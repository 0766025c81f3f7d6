type point1 = { x : float; fx : float }
type point2 = { x1 : float; x2 : float; f12 : float }

let golden = (sqrt 5. -. 1.) /. 2.

let golden_section_max ?(tol = 1e-9) ?(max_iter = 200) ~f ~lo ~hi () =
  let rec loop a b c fc d fd n =
    (* Invariant: a < c < d < b with c, d at golden ratios. *)
    if b -. a <= tol || n >= max_iter then
      if fc >= fd then { x = c; fx = fc } else { x = d; fx = fd }
    else if fc >= fd then
      let b = d in
      let d = c and fd = fc in
      let c = b -. (golden *. (b -. a)) in
      loop a b c (f c) d fd (n + 1)
    else
      let a = c in
      let c = d and fc = fd in
      let d = a +. (golden *. (b -. a)) in
      loop a b c fc d (f d) (n + 1)
  in
  let c = hi -. (golden *. (hi -. lo)) in
  let d = lo +. (golden *. (hi -. lo)) in
  loop lo hi c (f c) d (f d) 0

(* Observability counter (DESIGN.md §11): one tick per objective
   evaluation of a grid search; disarmed it costs one atomic load. *)
let m_evaluations = Po_obs.Metrics.counter "optimize.evaluations"

(* Each grid point is evaluated exactly once: [grid.(0)] seeds the
   running best and the scan starts at the next point, so a strict [>]
   keeps the first maximiser on ties (and a NaN at [grid.(0)] is kept,
   since nothing compares greater than it). *)
let grid_max ~f ~grid () =
  let n = Array.length grid in
  if n = 0 then invalid_arg "Optimize.grid_max: empty grid";
  let eval x =
    Po_obs.Metrics.incr m_evaluations;
    f x
  in
  let best = ref { x = grid.(0); fx = eval grid.(0) } in
  for i = 1 to n - 1 do
    let x = grid.(i) in
    let fx = eval x in
    if fx > !best.fx then best := { x; fx }
  done;
  !best

let grid_max2 ~f ~grid1 ~grid2 () =
  let n1 = Array.length grid1 and n2 = Array.length grid2 in
  if n1 = 0 || n2 = 0 then invalid_arg "Optimize.grid_max2: empty grid";
  let eval x1 x2 =
    Po_obs.Metrics.incr m_evaluations;
    f x1 x2
  in
  let best =
    ref { x1 = grid1.(0); x2 = grid2.(0); f12 = eval grid1.(0) grid2.(0) }
  in
  for i = 0 to n1 - 1 do
    let x1 = grid1.(i) in
    for j = (if i = 0 then 1 else 0) to n2 - 1 do
      let x2 = grid2.(j) in
      let f12 = eval x1 x2 in
      if f12 > !best.f12 then best := { x1; x2; f12 }
    done
  done;
  !best

(* [levels] counts the grids scanned: the coarse scan of the whole
   interval, then up to [levels - 1] scans of the bracket one grid step
   either side of the best point so far.  A refined scan replaces the
   best only on a strict improvement. *)
let refine_grid_max ?(levels = 3) ?(points = 33) ~f ~lo ~hi () =
  if points < 3 then invalid_arg "Optimize.refine_grid_max: points < 3";
  let scan lo hi = grid_max ~f ~grid:(Grid.linspace lo hi points) () in
  let rec refine lo hi level best =
    if level <= 1 then best
    else begin
      let step = (hi -. lo) /. float_of_int (points - 1) in
      let lo' = Float.max lo (best.x -. step) in
      let hi' = Float.min hi (best.x +. step) in
      if hi' -. lo' <= 0. then best
      else
        let local = scan lo' hi' in
        refine lo' hi' (level - 1) (if local.fx > best.fx then local else best)
    end
  in
  refine lo hi levels (scan lo hi)

let refine_grid_max2 ?(levels = 3) ?(points = 17) ~f ~lo1 ~hi1 ~lo2 ~hi2 () =
  if points < 3 then invalid_arg "Optimize.refine_grid_max2: points < 3";
  let scan lo1 hi1 lo2 hi2 =
    grid_max2 ~f
      ~grid1:(Grid.linspace lo1 hi1 points)
      ~grid2:(Grid.linspace lo2 hi2 points)
      ()
  in
  let rec refine lo1 hi1 lo2 hi2 level best =
    if level <= 1 then best
    else begin
      let s1 = (hi1 -. lo1) /. float_of_int (points - 1) in
      let s2 = (hi2 -. lo2) /. float_of_int (points - 1) in
      let lo1 = Float.max lo1 (best.x1 -. s1)
      and hi1 = Float.min hi1 (best.x1 +. s1)
      and lo2 = Float.max lo2 (best.x2 -. s2)
      and hi2 = Float.min hi2 (best.x2 +. s2) in
      let local = scan lo1 hi1 lo2 hi2 in
      refine lo1 hi1 lo2 hi2 (level - 1)
        (if local.f12 > best.f12 then local else best)
    end
  in
  refine lo1 hi1 lo2 hi2 levels (scan lo1 hi1 lo2 hi2)

(* Standard Nelder-Mead with reflection 1, expansion 2, contraction 0.5,
   shrink 0.5. *)
let nelder_mead ?(tol = 1e-9) ?(max_iter = 2000) ~f ~init ?(step = 0.1) () =
  let n = Array.length init in
  if n = 0 then invalid_arg "Optimize.nelder_mead: empty init";
  let simplex =
    Array.init (n + 1) (fun i ->
        let v = Array.copy init in
        if i > 0 then v.(i - 1) <- v.(i - 1) +. step;
        v)
  in
  let values = Array.map f simplex in
  let order () =
    let idx = Array.init (n + 1) (fun i -> i) in
    Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
    idx
  in
  let centroid exclude =
    let c = Array.make n 0. in
    Array.iteri
      (fun i v ->
        if i <> exclude then
          Array.iteri (fun j vj -> c.(j) <- c.(j) +. vj) v)
      simplex;
    Array.map (fun cj -> cj /. float_of_int n) c
  in
  let affine c x t = Array.mapi (fun j cj -> cj +. (t *. (x.(j) -. cj))) c in
  let iter = ref 0 in
  let spread () =
    let idx = order () in
    Float.abs (values.(idx.(n)) -. values.(idx.(0)))
  in
  while !iter < max_iter && spread () > tol do
    incr iter;
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let c = centroid worst in
    let xr = affine c simplex.(worst) (-1.) in
    let fr = f xr in
    if fr < values.(best) then begin
      let xe = affine c simplex.(worst) (-2.) in
      let fe = f xe in
      if fe < fr then begin
        simplex.(worst) <- xe;
        values.(worst) <- fe
      end
      else begin
        simplex.(worst) <- xr;
        values.(worst) <- fr
      end
    end
    else if fr < values.(second_worst) then begin
      simplex.(worst) <- xr;
      values.(worst) <- fr
    end
    else begin
      let xc = affine c simplex.(worst) 0.5 in
      let fc = f xc in
      if fc < values.(worst) then begin
        simplex.(worst) <- xc;
        values.(worst) <- fc
      end
      else
        (* Shrink towards the best vertex. *)
        Array.iteri
          (fun i v ->
            if i <> best then begin
              let v' =
                Array.mapi
                  (fun j vj -> simplex.(best).(j) +. (0.5 *. (vj -. simplex.(best).(j))))
                  v
              in
              simplex.(i) <- v';
              values.(i) <- f v'
            end)
          simplex
    end
  done;
  let idx = order () in
  (Array.copy simplex.(idx.(0)), values.(idx.(0)))

let maximize_nelder_mead ?tol ?max_iter ~f ~init ?step () =
  let x, v = nelder_mead ?tol ?max_iter ~f:(fun x -> -.f x) ~init ?step () in
  (x, -.v)
