(* Order statistics over timing samples. *)

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are less than or equal to it.  No
   interpolation, so every reported value is one that was measured. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0. && p <= 100.) then
    invalid_arg "Stats.percentile: p outside (0, 100]";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

type summary = {
  n : int;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

let summary xs =
  { n = Array.length xs; min = percentile 1e-9 xs; q1 = percentile 25. xs;
    median = median xs; q3 = percentile 75. xs; max = percentile 100. xs }

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0. xs
