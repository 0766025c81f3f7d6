(** The request → solve → result core shared by the daemon and the
    one-shot CLI (DESIGN.md §14).

    {!eval} is a pure function of the query: the optional budget can
    abort a computation (typed [Deadline_exceeded] / [Cancelled]) but
    never changes a completed result, so the daemon's cache can store
    rendered responses and serve them byte-identically, and [ponet
    query] answers with exactly the bytes the daemon would produce. *)

type regimes_outcome = {
  nu : float;  (** per-capita capacity of the compared market *)
  n_cps : int;
  results : Po_core.Public_option.regime_result list;
      (** unregulated, neutral, public option — {!Po_core.Public_option.compare_regimes} order *)
}

type welfare_outcome = {
  w_nu : float;
  w_n_cps : int;
  rows : (string * Po_core.Welfare.t) list;
}

val scenario_market :
  Request.scenario -> Po_model.Cp.t array * float
(** Materialise a request scenario: the paper ensemble at the request's
    seed, and [nu = nu_frac * saturation_nu] — the same construction as
    [Po_experiments.Common.ensemble] plus the CLI's [--capacity]
    convention. *)

val regimes :
  ?budget:Po_sup.Budget.t -> sc:Request.scenario -> po_share:float ->
  levels:int -> points:int -> unit -> regimes_outcome
(** The paper's headline regime comparison, with cooperative budget
    checks between the three regime solves.  The CLI's [ponet regimes]
    table and the daemon's JSON answer are both rendered from this. *)

val welfare :
  ?budget:Po_sup.Budget.t -> ?pool:Po_par.Pool.t -> sc:Request.scenario ->
  po_share:float -> levels:int -> points:int -> unit -> welfare_outcome
(** [pool] parallelises the underlying welfare sweeps (values are
    pool-invariant).  The daemon always omits it: a solve running inside
    a pool worker must not re-enter the pool. *)

val eval :
  ?budget:Po_sup.Budget.t -> Request.query -> (Po_obs.Json.t, Request.error)
  result
(** Evaluate one query of any kind.  Typed solver/supervision failures
    come back as structured {!Request.error}s carrying a
    [("query", name)] context frame — never an exception, never a
    dropped response.  Safe to run concurrently on the domain pool:
    [Fig_point] generates its figure serially ([jobs = 1]) with no
    checkpoint, and no query touches process-global figure state. *)
