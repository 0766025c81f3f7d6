(** The system rate equilibrium (Theorem 1).

    The interplay between a rate-allocation mechanism and the demand
    functions pins down a unique throughput profile.  For the whole family
    of mechanisms used in this repository — max-min fair and weighted
    alpha-fair with homogeneous flows — the allocation has the
    {e common-cap} form

    {v theta_i = min (theta_hat_i, w_i * cap) v}

    for a scalar [cap >= 0] and per-CP weights [w_i > 0]: every flow is
    throttled at the same (weighted) water level, and flows whose
    unconstrained throughput lies below the level are unconstrained.  The
    equilibrium cap solves the work-conservation equation (Axiom 2)

    {v sum_i alpha_i d_i(theta_i(cap)) theta_i(cap) = min (nu, sum_i alpha_i theta_hat_i) v}

    whose left side is continuous and non-decreasing in [cap] under
    Assumption 1, so root-finding converges to the unique solution.

    {b Kernel layout (DESIGN.md §9 and §12).}  The solver presorts CPs
    by saturation threshold [theta_hat_i / w_i] and prefix-sums their
    saturated contributions, making every aggregate evaluation a binary
    search plus a loop over only the unsaturated tail.  Since the
    million-CP tier the {!context} holds the sorted population as
    unboxed float columns (structure of arrays): the tail loop reads
    flat arrays and, for exponential-family demands, evaluates the curve
    inline with no closure call — whether the population arrived as
    records ({!solve}) or as a {!Cp_soa.t} ({!solve_soa}).  The root is
    located in two stages: a binary search over the threshold grid pins
    the canonical segment containing the sign change, then Brent runs
    inside that segment.  Because the segment is canonical, a [?bracket]
    hint (or its absence) can only change {e how fast} the segment is
    found, never the segment itself — warm-started solves are
    bit-identical to cold ones, and both are bit-identical to
    {!solve_reference}, which deliberately keeps boxed records and
    closure-based demand evaluation.

    All quantities are per-capita ([nu = mu / M]); Lemma 1 (independence of
    scale) is then true by construction, and absolute systems [(M, mu)] are
    handled by dividing. *)

type solution = {
  theta : float array;  (** achievable throughput per CP *)
  demand : float array;  (** [d_i theta_i] *)
  rho : float array;  (** per-user per-capita throughput [d_i theta_i * theta_i] (Eq. 5) *)
  per_capita_rate : float;  (** [lambda_N / M = sum_i alpha_i rho_i] *)
  congested : bool;  (** whether [nu < sum_i alpha_i theta_hat_i] *)
  cap : float;  (** the water level; [infinity] when unconstrained *)
}

val empty : solution
(** Equilibrium of a system with no CPs. *)

type context
(** Presorted saturation thresholds and prefix-summed saturated
    contributions for a fixed member set and weight vector, with the
    members' unconstrained rate [sum_i alpha_i theta_hat_i] — everything
    a water-level search reads, reusable across solves over the same
    CPs.  A context built by {!context} holds a whole array; a class
    context ({!class_context}) is a buffer the size of its population
    that {!refill} overwrites in place with the context of one member
    set at a time. *)

val context : ?weights:float array -> Cp.t array -> context
(** Build the sorted-prefix context.  [weights] defaults to all ones and
    must match the [weights] later passed to {!solve} alongside this
    context. *)

val context_soa : ?weights:float array -> Cp_soa.t -> context
(** {!context} built directly from SoA columns — no record
    materialisation; the resulting context is bit-equivalent to
    [context cps] whenever [soa = Cp_soa.of_cps cps]. *)

val prefix_table : context -> float array * float array
(** [(thresholds, sat_prefix)]: the ascending saturation thresholds of
    the CPs held and the prefix sums of their saturated contributions in
    that order — the tables every aggregate evaluation reads, copied out
    for differential tests. *)

type population
(** A population sorted once by saturation threshold (unit weights),
    from which the context of any member subset is filled by {!refill}
    — a filtered copy of the sorted columns, no sort (DESIGN.md §9). *)

val population : Cp.t array -> population

val rank : population -> int -> int
(** [rank pop i] is CP [i]'s position in the population's sort order by
    (threshold, index): the unit in which {!refill}'s [from] counts. *)

val class_context : population -> context
(** A fresh class context for [pop]: room for every CP of the
    population, holding no CP until {!refill} fills it. *)

val refill :
  population -> context -> bool array -> keep:bool -> from:int -> unit
(** [refill pop ctx mask ~keep ~from] makes [ctx] — a {!class_context}
    of [pop] — the context of the CPs [i] with [mask.(i) = keep], with
    no allocation.  The result is bit-identical to [context members],
    [members] listing those CPs in population order: restricting the
    population's (threshold, index) order to a member set gives the
    members' own order, ties included, and [sat_prefix] is refolded left
    to right.

    Only ranks [>= from] (see {!rank}) are recopied, so the cost is the
    tail of the order past [from] plus one pass over [mask].  The caller
    guarantees that [ctx] already holds the context of a member set that
    agrees with the new one on every CP of rank [< from]; [from = 0]
    always does.  Raises [Invalid_argument] when [mask] or [ctx] belongs
    to a population of another size or demand layout. *)

val solve :
  ?budget:Po_sup.Budget.t -> ?context:context -> ?bracket:float * float ->
  ?weights:float array -> ?tol:float -> nu:float -> Cp.t array -> solution
(** Compute the rate equilibrium of the per-capita system [(nu, cps)].
    [weights] defaults to all ones (max-min fairness); entries must be
    [> 0].  [nu >= 0].  [tol] (default [1e-12]) is the absolute tolerance
    on the water level.

    [context] reuses a presorted {!context} built from the same [cps] and
    [weights].  Only its size is checked: a context built for a
    population of another length raises [Invalid_argument], while one of
    the right length built from other CPs silently solves the wrong
    system.  [bracket] is a warm-start hint [(lo, hi)] for the water
    level, typically the previous solve's cap padded to the known side of
    a monotone perturbation; a hint that does not straddle the root is
    detected in two probes and discarded, and {e any} hint — valid,
    invalid, or absent — yields bit-identical output.

    Failure travels the typed error channel (DESIGN.md §10): an
    unbracketable work-conservation equation raises
    [Po_guard.Po_error.Error] with kind [No_bracket] (the seed raised
    {!Po_num.Roots.No_bracket}), and a Brent run that exhausts its
    iteration budget raises kind [Non_convergence] instead of silently
    returning the last iterate.  Context frames carry the solver name,
    [nu] and the population size.

    [budget] is a [Po_sup.Budget] deadline/cancellation token
    (DESIGN.md §13), checked cooperatively at every aggregate
    evaluation — i.e. at each iteration of the segment search and of
    Brent — and surfacing as kind [Deadline_exceeded] or [Cancelled]
    with the same context frames.  A budget never changes a completed
    solve's output. *)

val level :
  ?budget:Po_sup.Budget.t -> ?bracket:float * float -> ?tol:float ->
  nu:float -> context -> float
(** The first half of {!solve}, run on the context alone: the water
    level of the context's CPs — [infinity] when the system is
    uncongested or empty — with the same [budget], [bracket] and [tol]
    semantics, errors and counters (one [equilibrium.solves] per
    non-empty call).  The [nu >= unconstrained] test reads the
    unconstrained rate the context carries, folded in population index
    order exactly as {!solve} folds its CP array, so
    [level ~nu (context cps)] is the cap of [solve ~nu cps] bit for
    bit. *)

val of_level : ?weights:float array -> Cp.t array -> float -> solution
(** The second half of {!solve}: throughputs, demands, rates and the
    per-capita rate at a given water level, with no root search and no
    counter.  [solve ~nu cps = of_level cps (level ~nu (context cps))],
    so a level kept from an earlier {!level} call materialises the same
    bits as a fresh solve. *)

val solve_soa :
  ?budget:Po_sup.Budget.t -> ?context:context -> ?bracket:float * float ->
  ?weights:float array -> ?tol:float -> nu:float -> Cp_soa.t -> solution
(** {!solve} over a structure-of-arrays population: no [Cp.t] records
    are allocated anywhere on the solve path, which is what lets the
    n = 10^6 tier run with bounded memory.  Bit-identical to
    [solve ~nu cps] whenever [soa = Cp_soa.of_cps cps] (test/test_soa.ml);
    same option semantics, error taxonomy and observability counters as
    {!solve}. *)

val solve_checked :
  ?budget:Po_sup.Budget.t -> ?context:context -> ?bracket:float * float ->
  ?weights:float array -> ?tol:float -> nu:float -> Cp.t array ->
  (solution, Po_guard.Po_error.t) result
(** {!solve} with the error channel reified: [Error] carries the typed
    failure ({!solve}'s [Po_guard.Po_error.Error] payload, or
    [Invalid_scenario] for domain errors such as bad weights). *)

val solve_soa_checked :
  ?budget:Po_sup.Budget.t -> ?context:context -> ?bracket:float * float ->
  ?weights:float array -> ?tol:float -> nu:float -> Cp_soa.t ->
  (solution, Po_guard.Po_error.t) result
(** {!solve_soa} with the error channel reified, mirroring
    {!solve_checked}. *)

val solve_reference :
  ?weights:float array -> ?tol:float -> nu:float -> Cp.t array -> solution
(** The retained differential-testing reference: identical segment
    search and Brent call, but every aggregate evaluation walks all [n]
    CPs with no prefix table and no bracket narrowing ever applies.
    {!solve} must agree with it bit for bit on every input; the
    [test_perf_kernel] suite enforces this. *)

val solve_absolute :
  ?budget:Po_sup.Budget.t -> ?weights:float array -> ?tol:float -> m:float ->
  mu:float -> Cp.t array -> solution
(** Equilibrium of an absolute system of [m > 0] consumers and capacity
    [mu >= 0]; equals [solve ~nu:(mu /. m)] by Axiom 4. *)

val theta_for : solution -> int -> float
(** Bounds-checked accessor. *)
