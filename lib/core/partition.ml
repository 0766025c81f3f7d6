type t = bool array
(* Invariant: treated as immutable; every exposed constructor copies. *)

let all_ordinary n =
  if n < 0 then invalid_arg "Partition.all_ordinary: negative size";
  Array.make n false

let of_premium_indicator a = Array.copy a

let of_premium_pred cps pred = Array.map pred cps

let size = Array.length
let in_premium t i = t.(i)

let premium_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t

let ordinary_count t = size t - premium_count t

let check_size t cps =
  if Array.length cps <> size t then
    invalid_arg "Partition: CP array size mismatch"

(* [f i] for every member [i] of the class, in index order: count, then
   fill one exact-size array. *)
let filter t keep_premium f =
  let n = size t in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if Bool.equal t.(i) keep_premium then incr m
  done;
  if !m = 0 then [||]
  else begin
    let out = Array.make !m (f 0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Bool.equal t.(i) keep_premium then begin
        out.(!k) <- f i;
        incr k
      end
    done;
    out
  end

let premium_members t cps =
  check_size t cps;
  filter t true (Array.get cps)

let ordinary_members t cps =
  check_size t cps;
  filter t false (Array.get cps)

let premium_indices t = filter t true Fun.id
let ordinary_indices t = filter t false Fun.id

let move t i ~premium =
  if i < 0 || i >= size t then invalid_arg "Partition.move: index out of bounds";
  let t' = Array.copy t in
  t'.(i) <- premium;
  t'

(* A monomorphic loop: polymorphic [=] on [bool array] goes through the
   runtime's generic compare on every simultaneous round. *)
let equal a b =
  let n = Array.length a in
  let rec same i = i >= n || (Bool.equal a.(i) b.(i) && same (i + 1)) in
  n = Array.length b && same 0

let mask t = t

(* ------------------------------------------------------------------ *)
(* Zobrist hashing and exact-confirmed tables                         *)
(* ------------------------------------------------------------------ *)

(* One word per CP from a fixed-seed splitmix stream, so hashes (and the
   tables' bucket layout) are the same on every run. *)
let zobrist_seed = 0x5A0B

let zobrist n =
  let rng = Po_prng.Splitmix.of_int zobrist_seed in
  Array.init n (fun _ -> Int64.to_int (Po_prng.Splitmix.next_int64 rng))

(* The memo key of one partition at a time, kept in step with a search:
   the Zobrist hash and the membership packed eight CPs to a byte (bit
   [i land 7] of byte [i lsr 3]).  A move of CP [i] flips table word
   [i] into the hash and bit [i] of the packed bytes. *)
module Key = struct
  type t = { table : int array; mutable hash : int; packed : Bytes.t }

  let create table =
    { table; hash = 0;
      packed = Bytes.make ((Array.length table + 7) / 8) '\000' }

  let hash k = k.hash

  let flip k i =
    k.hash <- k.hash lxor k.table.(i);
    let b = i lsr 3 in
    Bytes.unsafe_set k.packed b
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get k.packed b) lxor (1 lsl (i land 7))))

  let set k t =
    if Array.length t <> Array.length k.table then
      invalid_arg "Partition.Key.set: partition size mismatch";
    k.hash <- 0;
    Bytes.fill k.packed 0 (Bytes.length k.packed) '\000';
    Array.iteri (fun i p -> if p then flip k i) t
end

module Table = struct
  module Hash_tbl = Hashtbl.Make (Int)

  (* Entries whose hashes collide share a bucket; each keeps a copy of
     its packed membership, against which every lookup is confirmed
     exactly. *)
  type 'a t = (Bytes.t * 'a) list Hash_tbl.t

  let create n = Hash_tbl.create n

  let rec find_in (key : Key.t) = function
    | [] -> None
    | (packed, v) :: rest ->
        if Bytes.equal packed key.Key.packed then Some v else find_in key rest

  let find_opt table (key : Key.t) =
    match Hash_tbl.find_opt table key.Key.hash with
    | None -> None
    | Some bucket -> find_in key bucket

  let add table (key : Key.t) v =
    let bucket =
      Option.value ~default:[] (Hash_tbl.find_opt table key.Key.hash)
    in
    Hash_tbl.replace table key.Key.hash
      ((Bytes.copy key.Key.packed, v) :: bucket)
end

let pp fmt t =
  Format.fprintf fmt "@[<h>{premium: %d/%d}@]" (premium_count t) (size t)
