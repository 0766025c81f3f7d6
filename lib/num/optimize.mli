(** Derivative-free optimisation.

    The ISP strategy space is the compact square [(kappa, c) in [0,1]^2]
    and the objectives (market share, revenue, consumer surplus) are
    piecewise-continuous with jumps at CP re-equilibration points, so the
    primary tools are exhaustive grid search with local refinement; a
    golden-section routine and a Nelder-Mead simplex are provided for the
    smooth regions. *)

type point1 = { x : float; fx : float }
type point2 = { x1 : float; x2 : float; f12 : float }

val golden_section_max :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> point1
(** Golden-section search for a maximum of a unimodal function on
    [[lo, hi]]. *)

val grid_max :
  f:(float -> float) -> grid:float array -> unit -> point1
(** Exhaustive maximisation over an explicit grid (first maximiser wins
    ties).  [f] is evaluated exactly once per grid point.  The grid must
    be non-empty. *)

val grid_max2 :
  f:(float -> float -> float) -> grid1:float array -> grid2:float array ->
  unit -> point2
(** Exhaustive maximisation over a Cartesian product of grids, row-major
    in [grid1] (first maximiser wins ties); [f] is evaluated exactly once
    per grid pair. *)

val refine_grid_max :
  ?levels:int -> ?points:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> point1
(** Multilevel grid refinement: [levels] (default 3; at least one)
    grids of [points] samples are scanned in total — first [[lo, hi]],
    then up to [levels - 1] times the bracket one grid step either side
    of the best sample so far (a refined sample replaces it only on a
    strict improvement, so ties keep the earlier maximiser).  The search
    stops early when a bracket collapses to zero width, so [f] is called
    at most [levels * points] times.  Robust to jump discontinuities;
    resolution improves geometrically. *)

val refine_grid_max2 :
  ?levels:int -> ?points:int -> f:(float -> float -> float) ->
  lo1:float -> hi1:float -> lo2:float -> hi2:float -> unit -> point2
(** Two-dimensional multilevel grid refinement over a rectangle:
    [levels] (default 3; at least one) grids of [points * points]
    samples are scanned in total, the coarse rectangle and then
    [levels - 1] brackets around the best point, with the tie-breaking
    of {!refine_grid_max}.  [f] is called exactly
    [levels * points * points] times. *)

val nelder_mead :
  ?tol:float -> ?max_iter:int -> f:(float array -> float) ->
  init:float array -> ?step:float -> unit -> float array * float
(** Nelder-Mead simplex minimisation from [init] with initial simplex edge
    [step] (default [0.1]).  Returns the best vertex and its value. *)

val maximize_nelder_mead :
  ?tol:float -> ?max_iter:int -> f:(float array -> float) ->
  init:float array -> ?step:float -> unit -> float array * float
(** {!nelder_mead} on [-. f]; returns the maximiser and the (positive)
    maximum. *)
