(** Shared plumbing for the figure-reproduction experiments.

    Every experiment module produces a {!figure}: a set of named panels,
    each holding the series the corresponding paper figure plots.  The
    bench harness renders them as tables and ASCII plots and writes one
    CSV per panel. *)

type figure = {
  id : string;  (** e.g. ["fig4"] *)
  title : string;
  x_label : string;
  panels : (string * Po_report.Series.t list) list;
  notes : string list;  (** observations to compare against the paper *)
}

type checkpoint
(** Where and how chunked sweeps journal (DESIGN.md §10).  Built with
    {!checkpoint}; {!with_figure_scope} binds the figure the journals
    belong to. *)

val checkpoint : dir:string -> resume:bool -> checkpoint
(** [checkpoint ~dir ~resume] journals sweeps under [dir].  With
    [resume = true] journalled chunks from a previous (possibly crashed)
    run are replayed; with [false] any stale journal is discarded at
    each sweep start. *)

type params = {
  n_cps : int;  (** ensemble size *)
  seed : int;
  sweep_points : int;  (** resolution of the swept axis *)
  jobs : int;
      (** domains used for sweep evaluation; [1] keeps every figure on
          the serial code path.  Any value produces bit-identical
          figures (see {!Po_par.Pool}). *)
  checkpoint : checkpoint option;
      (** when set, chunked sweeps inside a {!with_figure_scope}
          journal completed chunks so an interrupted figure can resume;
          [None] (the library default) journals nothing *)
  sup : Po_sup.Supervise.policy;
      (** supervision policy threaded to every chunked sweep
          (DESIGN.md §13): deadline/cancellation budget, bounded
          deterministic retries, circuit breaker and per-chunk
          watchdog.  The default ({!Po_sup.Supervise.default}) is
          inactive — sweeps behave exactly as before the supervision
          layer existed. *)
}

val default_params : params
(** The paper's scale: 1000 CPs, 33-point sweeps, serial. *)

val quick_params : params
(** Reduced scale for tests and timing benches: 120 CPs, 9-point
    sweeps, serial. *)

val pool : params -> Po_par.Pool.t option
(** The process-wide domain pool for [params.jobs], or [None] when
    [jobs <= 1].  The pool is cached across calls (under a lock) and
    resized only when [jobs] changes; it is shut down automatically at
    exit. *)

val with_figure_scope : string -> params -> (params -> 'a) -> 'a
(** [with_figure_scope id params f] runs [f] on [params] with [id] bound
    as the figure scope of [params.checkpoint] (a fresh scope per call;
    [params] pass through unchanged when checkpointing is off).  Each
    chunked sweep run with the scoped params gets a stable sweep index
    and a journal file named [<figure>__sweep<k>__<hash>.journal] under
    the checkpoint directory, whose hash covers the scenario parameters
    and the sweep geometry (but never [jobs]: a journal written under
    any worker count resumes under any other).  Completed chunks are
    appended as they finish ([v2 <chunk> <len> <fnv64> <hex(Marshal)>]
    lines, each carrying a length prefix and an FNV-1a 64 digest of its
    payload; on load the journal is read until the first invalid line,
    the torn or corrupt tail is discarded with a {!Po_guard.Warnings}
    entry, and the file is rewritten to the surviving prefix); on resume
    journalled chunks are replayed instead of recomputed,
    bit-identically.  On success the figure's journals are removed; on
    an exception they are kept for a later [--resume].  The scope is a
    value, not process state, so figure scopes on different domains
    never share a counter or a journal.  The registry wraps every
    generator in this. *)

val sweep_par : ?chunk_size:int -> params -> ('a -> 'b) -> 'a array -> 'b array
(** [sweep_par params f arr] maps [f] over [arr] through {!pool} in
    fixed chunks of [chunk_size] (default 16) elements
    ({!Po_par.Pool.chunk_map}) — serial when [jobs <= 1].  [f] must be
    pure; results are in input order either way.  Chunks journal when
    [params] carry a figure scope (see {!with_figure_scope}). *)

val sweep_chained :
  ?chunk_size:int -> params -> step:('b option -> 'a -> 'b) -> 'a array ->
  'b array
(** {!Po_par.Pool.chain_map} through {!pool}: a 1-D sweep evaluated in
    fixed chunks of warm-start chains ([step] gets the previous grid
    point's result within a chunk, [None] at chunk starts).  The chunk
    layout is independent of [jobs], so any value reproduces the same
    figure bit for bit.  Chunks journal when [params] carry a figure
    scope (see {!with_figure_scope}). *)

val sweep_serpentine :
  ?chunk_size:int -> params -> rows:'a array -> cols:'c array ->
  step:('b option -> 'a -> 'c -> 'b) -> 'b array array
(** 2-D sweep over [rows x cols] in boustrophedon order (row 0
    left-to-right, row 1 right-to-left, ...), chained through
    {!sweep_chained} so warm starts survive row boundaries — consecutive
    flat positions are always adjacent grid points.  Returns results in
    row-major order: [(result.(r)).(j)] is [step prev rows.(r) cols.(j)].
    Same determinism contract as {!sweep_chained}. *)

val ensemble : ?phi:Po_workload.Ensemble.phi_setting -> params -> Po_model.Cp.t array

val render : ?plots:bool -> figure -> string
(** Tables (one per panel) and optional ASCII plots. *)

val csv_files : dir:string -> figure -> string list
(** Write one CSV per panel under [dir]; returns the paths written. *)
