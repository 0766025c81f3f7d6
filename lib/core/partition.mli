(** Service-class partitions [(O, P)] of a CP population (Sec. III-B).

    Represented as a membership vector: entry [i] is [true] when CP [i]
    joined the premium class.  [O union P = N] and [O inter P = empty]
    hold by construction. *)

type t

val all_ordinary : int -> t
(** Everyone in the ordinary class (the trivial profile for
    [kappa = 0]). *)

val of_premium_indicator : bool array -> t
val of_premium_pred : Po_model.Cp.t array -> (Po_model.Cp.t -> bool) -> t
(** Partition placing exactly the CPs satisfying the predicate in the
    premium class. *)

val size : t -> int
val in_premium : t -> int -> bool
val premium_count : t -> int
val ordinary_count : t -> int

val premium_members : t -> Po_model.Cp.t array -> Po_model.Cp.t array
val ordinary_members : t -> Po_model.Cp.t array -> Po_model.Cp.t array
(** Subset views; the CP array must have the partition's size.  Order is
    preserved. *)

val premium_indices : t -> int array
val ordinary_indices : t -> int array

val move : t -> int -> premium:bool -> t
(** Functional update of one CP's class. *)

val equal : t -> t -> bool

val mask : t -> bool array
(** The membership vector itself, not a copy: entry [i] is [true] when
    CP [i] is premium.  Read it, never write it — a partition is
    immutable. *)

(** {1 Hashing}

    A partition's Zobrist hash is the XOR of one table word per premium
    CP, so moving CP [i] changes it by exactly [table.(i)]: a search
    that moves one CP at a time keeps the hash of its current partition
    with one XOR per move. *)

val zobrist : int -> int array
(** [zobrist n] is the Zobrist table of partitions of [n] CPs: [n]
    words drawn from a fixed-seed [Po_prng.Splitmix] stream, the same on
    every run. *)

(** The table key of one partition at a time: its Zobrist hash and its
    membership packed one bit per CP, kept in step with a search — {!Key.set}
    loads a partition in O(n), {!Key.flip} follows a single-CP move in
    O(1). *)
module Key : sig
  type partition := t
  type t

  val create : int array -> t
  (** A key over a Zobrist table (see {!zobrist}), holding the
      all-ordinary partition. *)

  val set : t -> partition -> unit
  (** Load a partition of the table's size. *)

  val flip : t -> int -> unit
  (** CP [i] changed class. *)

  val hash : t -> int
  (** The XOR of [table.(i)] over the premium CPs [i]. *)
end

(** Tables keyed by partition.  Each entry stores the membership packed
    one bit per CP, and every lookup is confirmed by exact comparison,
    so two partitions whose hashes collide are never confused. *)
module Table : sig
  type 'a t

  val create : int -> 'a t

  val find_opt : 'a t -> Key.t -> 'a option
  (** The value bound to exactly the key's partition, if any. *)

  val add : 'a t -> Key.t -> 'a -> unit
  (** Bind the key's partition, not yet in the table; the entry keeps a
      copy of the packed membership. *)
end

val pp : Format.formatter -> t -> unit
