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

let key t = String.init (size t) (fun i -> if t.(i) then 'P' else 'O')

let pp fmt t =
  Format.fprintf fmt "@[<h>{premium: %d/%d}@]" (premium_count t) (size t)
