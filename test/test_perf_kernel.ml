(* Differential tests for the optimized water-filling kernel (DESIGN.md
   §9): the sorted-prefix Equilibrium solver and the caching/warm-started
   CP-game engine must be bit-identical to the retained reference
   implementations on every input — random ensembles, weighted systems,
   degenerate classes, bracket hints good and bad — and every figure in
   the registry must be reproduced identically for any jobs count. *)

open Po_model
open Po_core

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Bit-level float equality: the contract is "bit-identical", not
   "close". *)
let check_bits name a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" name a b

let check_bits_array name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

let check_solution name (a : Equilibrium.solution) (b : Equilibrium.solution) =
  check_bits_array (name ^ " theta") a.Equilibrium.theta b.Equilibrium.theta;
  check_bits_array (name ^ " demand") a.Equilibrium.demand b.Equilibrium.demand;
  check_bits_array (name ^ " rho") a.Equilibrium.rho b.Equilibrium.rho;
  check_bits (name ^ " per_capita_rate") a.Equilibrium.per_capita_rate
    b.Equilibrium.per_capita_rate;
  check_bits (name ^ " cap") a.Equilibrium.cap b.Equilibrium.cap;
  Alcotest.(check bool)
    (name ^ " congested")
    a.Equilibrium.congested b.Equilibrium.congested

let ensemble ?(n = 60) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()

let nu_grid cps =
  let sat = Po_workload.Ensemble.saturation_nu cps in
  [ 0.; 1e-6; 0.05 *. sat; 0.3 *. sat; 0.7 *. sat; 0.99 *. sat; sat;
    1.5 *. sat ]

(* ------------------------------------------------------------------ *)
(* Equilibrium: optimized vs reference                                 *)
(* ------------------------------------------------------------------ *)

let test_eq_differential_random () =
  List.iter
    (fun seed ->
      let cps = ensemble seed in
      List.iter
        (fun nu ->
          check_solution
            (Printf.sprintf "seed=%d nu=%g" seed nu)
            (Equilibrium.solve ~nu cps)
            (Equilibrium.solve_reference ~nu cps))
        (nu_grid cps))
    [ 1; 2; 3; 17; 99 ]

let test_eq_differential_weighted () =
  let cps = ensemble ~n:40 5 in
  let rng = Po_prng.Splitmix.of_int 23 in
  let weights =
    Array.init (Array.length cps) (fun _ ->
        0.25 +. Po_prng.Splitmix.float rng)
  in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "weighted nu=%g" nu)
        (Equilibrium.solve ~weights ~nu cps)
        (Equilibrium.solve_reference ~weights ~nu cps))
    (nu_grid cps)

let test_eq_context_reuse () =
  (* A presorted context reused across many solves is the cp_game usage
     pattern; it must not leak state between nus. *)
  let cps = ensemble ~n:50 7 in
  let ctx = Equilibrium.context cps in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "context nu=%g" nu)
        (Equilibrium.solve ~context:ctx ~nu cps)
        (Equilibrium.solve_reference ~nu cps))
    (nu_grid cps)

let test_eq_bracket_hints_transparent () =
  (* Any hint — tight, sloppy, not containing the root, reversed,
     non-finite — must yield the bit-identical solution. *)
  let cps = ensemble ~n:45 11 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.4 *. sat in
  let cold = Equilibrium.solve ~nu cps in
  let root = cold.Equilibrium.cap in
  List.iter
    (fun (label, bracket) ->
      check_solution
        ("bracket " ^ label)
        (Equilibrium.solve ~bracket ~nu cps)
        cold)
    [ ("tight", (root *. 0.99, root *. 1.01));
      ("one-sided lo", (root *. 0.5, Float.infinity));
      ("one-sided hi", (0., root *. 2.));
      ("above root", (root *. 2., root *. 3.));
      ("below root", (0., root *. 0.5));
      ("reversed", (root *. 2., root *. 0.5));
      ("negative", (-3., -1.));
      ("nan", (Float.nan, Float.nan));
      ("exact degenerate", (root, root)) ]

let test_eq_all_saturated () =
  (* nu >= unconstrained throughput: the uncongested branch, cap
     infinite. *)
  let cps = ensemble ~n:30 13 in
  let unconstrained =
    Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
  in
  List.iter
    (fun nu ->
      let sol = Equilibrium.solve ~nu cps in
      Alcotest.(check bool)
        (Printf.sprintf "uncongested at nu=%g" nu)
        false sol.Equilibrium.congested;
      check_bits "cap is infinite" Float.infinity sol.Equilibrium.cap;
      check_solution
        (Printf.sprintf "all-saturated nu=%g" nu)
        sol
        (Equilibrium.solve_reference ~nu cps))
    [ unconstrained; unconstrained *. 1.5; unconstrained +. 100. ]

let test_eq_single_cp () =
  let cp =
    Cp.make ~id:0 ~alpha:0.7 ~theta_hat:2.5
      ~demand:(Demand.exponential ~beta:4.) ~v:0.5 ()
  in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "single cp nu=%g" nu)
        (Equilibrium.solve ~nu [| cp |])
        (Equilibrium.solve_reference ~nu [| cp |]))
    [ 0.; 0.1; 0.5; 1.; 1.74; 2. ]

let test_eq_threshold_ties () =
  (* Identical theta_hat / w thresholds: the sort must break ties by
     original index so accumulation order — and the bits — are pinned. *)
  let tied =
    Array.init 12 (fun i ->
        Cp.make ~id:i ~alpha:(0.3 +. (0.05 *. float_of_int (i mod 5)))
          ~theta_hat:2.
          ~demand:(Demand.exponential ~beta:(0.5 +. float_of_int (i mod 4)))
          ())
  in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "ties nu=%g" nu)
        (Equilibrium.solve ~nu tied)
        (Equilibrium.solve_reference ~nu tied))
    [ 0.; 0.5; 1.; 2.; 4.; 8. ]

let test_eq_empty_and_zero () =
  check_solution "empty population"
    (Equilibrium.solve ~nu:3. [||])
    (Equilibrium.solve_reference ~nu:3. [||]);
  let cps = ensemble ~n:20 29 in
  let zero = Equilibrium.solve ~nu:0. cps in
  check_bits "zero capacity pins cap to 0" 0. zero.Equilibrium.cap;
  Array.iteri
    (fun i theta -> check_bits (Printf.sprintf "theta.(%d)" i) 0. theta)
    zero.Equilibrium.theta;
  check_solution "zero capacity" zero (Equilibrium.solve_reference ~nu:0. cps)

(* ------------------------------------------------------------------ *)
(* Prepared population: restricted contexts vs fresh sorts             *)
(* ------------------------------------------------------------------ *)

(* Thresholds drawn from a small set so ties are common; [mixed] puts
   non-exponential demands among the exponential ones, which moves the
   whole population onto the closure (Dfun) column. *)
let random_population ~mixed rng n =
  let module R = Po_prng.Splitmix in
  Array.init n (fun i ->
      let theta_hat =
        [| 0.5; 1.; 2.; 3.5 |].(R.int rng 4)
        *. if R.bool rng then 1. else 1. +. R.float rng
      in
      let demand =
        if mixed && i mod 3 = 1 then
          if R.bool rng then Demand.linear else Demand.power ~gamma:2.
        else Demand.exponential ~beta:(R.uniform rng ~lo:0.1 ~hi:5.)
      in
      Cp.make ~id:i ~alpha:(R.uniform rng ~lo:0.1 ~hi:1.) ~theta_hat ~demand
        ~v:(R.float rng) ())

let members_of mask cps =
  Array.of_list
    (List.filteri (fun i _ -> mask.(i)) (Array.to_list cps))

let unconstrained_of members =
  Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. members

(* A class context refilled from [from] against a fresh sort of the
   members: both tables and the level at several capacities. *)
let check_refilled name ctx mask ~keep cps ~nus =
  let members = members_of (Array.map (Bool.equal keep) mask) cps in
  let fresh = Equilibrium.context members in
  let thresholds, sat_prefix = Equilibrium.prefix_table ctx in
  let thresholds', sat_prefix' = Equilibrium.prefix_table fresh in
  check_bits_array (name ^ " thresholds") thresholds thresholds';
  check_bits_array (name ^ " sat_prefix") sat_prefix sat_prefix';
  let unconstrained = unconstrained_of members in
  List.iter
    (fun frac ->
      let nu = frac *. unconstrained in
      let label = Printf.sprintf "%s nu=%g" name nu in
      check_bits (label ^ " level")
        (Equilibrium.level ~nu ctx)
        (Equilibrium.level ~nu fresh);
      check_bits (label ^ " cap of solve")
        (Equilibrium.level ~nu ctx)
        (Equilibrium.solve ~nu members).Equilibrium.cap)
    nus

let test_restricted_context () =
  let rng = Po_prng.Splitmix.of_int 41 in
  List.iter
    (fun (mixed, n) ->
      let cps = random_population ~mixed rng n in
      let pop = Equilibrium.population cps in
      let ctx = Equilibrium.class_context pop in
      let masks =
        [ ("random", Array.init n (fun _ -> Po_prng.Splitmix.bool rng));
          ("empty", Array.make n false);
          ("singleton", Array.init n (fun i -> i = n / 2));
          ("full", Array.make n true) ]
      in
      List.iter
        (fun (label, mask) ->
          let name = Printf.sprintf "mixed=%b n=%d %s" mixed n label in
          let members = members_of mask cps in
          Equilibrium.refill pop ctx mask ~keep:true ~from:0;
          check_refilled name ctx mask ~keep:true cps
            ~nus:[ 0.; 0.05; 0.3; 0.7; 0.99; 1.5 ];
          let fresh = Equilibrium.context members in
          List.iter
            (fun frac ->
              let nu = frac *. unconstrained_of members in
              check_solution
                (Printf.sprintf "%s nu=%g" name nu)
                (Equilibrium.solve ~context:ctx ~nu members)
                (Equilibrium.solve ~context:fresh ~nu members))
            [ 0.; 0.3; 0.99 ])
        masks)
    [ (false, 40); (true, 40); (false, 7); (true, 13); (true, 1) ]

(* The CP game's use of class contexts at scale: random single-CP moves,
   each class refilled only now and then (a memo hit skips the refill)
   from the lowest rank moved since its last refill, interleaved with
   whole-partition jumps that restart from rank 0.  After every refill
   both classes must match a fresh sort of their members bit for bit. *)
let test_move_sequence () =
  let n = 1000 in
  let rng = Po_prng.Splitmix.of_int 43 in
  List.iter
    (fun mixed ->
      let cps = random_population ~mixed rng n in
      let pop = Equilibrium.population cps in
      let ctx_o = Equilibrium.class_context pop in
      let ctx_p = Equilibrium.class_context pop in
      let mask = Array.init n (fun _ -> Po_prng.Splitmix.bool rng) in
      let dirty_o = ref 0 and dirty_p = ref 0 in
      for step = 1 to 120 do
        let r = Po_prng.Splitmix.int rng 20 in
        if r = 0 then begin
          Array.iteri (fun i _ -> mask.(i) <- Po_prng.Splitmix.bool rng) mask;
          dirty_o := 0;
          dirty_p := 0
        end
        else begin
          let i = Po_prng.Splitmix.int rng n in
          mask.(i) <- not mask.(i);
          let rank = Equilibrium.rank pop i in
          dirty_o := min !dirty_o rank;
          dirty_p := min !dirty_p rank
        end;
        if r mod 3 = 0 then
          List.iter
            (fun (keep, ctx, dirty) ->
              Equilibrium.refill pop ctx mask ~keep ~from:!dirty;
              dirty := n;
              check_refilled
                (Printf.sprintf "mixed=%b step=%d premium=%b" mixed step keep)
                ctx mask ~keep cps ~nus:[ 0.2; 0.8 ])
            [ (false, ctx_o, dirty_o); (true, ctx_p, dirty_p) ]
      done)
    [ false; true ]

let test_context_size_checked () =
  let cps = ensemble ~n:20 37 in
  let context = Equilibrium.context (Array.sub cps 0 12) in
  let nu = 0.5 *. Po_workload.Ensemble.saturation_nu cps in
  (match Equilibrium.solve_checked ~context ~nu cps with
  | Error { Po_guard.Po_error.kind = Po_guard.Po_error.Invalid_scenario _; _ }
    ->
      ()
  | Error e ->
      Alcotest.failf "expected Invalid_scenario, got %s"
        (Po_guard.Po_error.to_string e)
  | Ok _ -> Alcotest.fail "context of another size accepted");
  Alcotest.check_raises "solve_soa"
    (Invalid_argument
       "Equilibrium: context built for a population of another size")
    (fun () ->
      ignore (Equilibrium.solve_soa ~context ~nu (Cp_soa.of_cps cps)))

(* ------------------------------------------------------------------ *)
(* CP game: caching/warm-started engine vs cold reference engine       *)
(* ------------------------------------------------------------------ *)

let check_outcome name (a : Cp_game.outcome) (b : Cp_game.outcome) =
  Alcotest.(check (array bool))
    (name ^ " partition")
    (Partition.mask a.Cp_game.partition)
    (Partition.mask b.Cp_game.partition);
  check_bits_array (name ^ " theta") a.Cp_game.theta b.Cp_game.theta;
  check_bits_array (name ^ " rho") a.Cp_game.rho b.Cp_game.rho;
  check_bits (name ^ " cap_o") a.Cp_game.cap_ordinary b.Cp_game.cap_ordinary;
  check_bits (name ^ " cap_p") a.Cp_game.cap_premium b.Cp_game.cap_premium;
  check_bits (name ^ " lambda_o") a.Cp_game.lambda_ordinary
    b.Cp_game.lambda_ordinary;
  check_bits (name ^ " lambda_p") a.Cp_game.lambda_premium
    b.Cp_game.lambda_premium;
  check_bits (name ^ " phi") a.Cp_game.phi b.Cp_game.phi;
  check_bits (name ^ " psi") a.Cp_game.psi b.Cp_game.psi;
  Alcotest.(check bool) (name ^ " converged") a.Cp_game.converged
    b.Cp_game.converged;
  Alcotest.(check int) (name ^ " iterations") a.Cp_game.iterations
    b.Cp_game.iterations

let game_points cps =
  let sat = Po_workload.Ensemble.saturation_nu cps in
  [ (0.5, 0.3, 0.2 *. sat); (0.3, 0.6, 0.5 *. sat); (0.8, 0.2, 0.05 *. sat);
    (1., 0.5, 0.4 *. sat); (0., 0.3, 0.3 *. sat); (0.6, 0.4, 1.2 *. sat) ]

let test_game_differential () =
  List.iter
    (fun (seed, n) ->
      let cps = ensemble ~n seed in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          check_outcome
            (Printf.sprintf "seed=%d n=%d (%g,%g,nu=%g)" seed n kappa c nu)
            (Cp_game.solve ~nu ~strategy cps)
            (Cp_game.solve_reference ~nu ~strategy cps))
        (game_points cps))
    [ (4, 50); (42, 50); (4, 30); (42, 90) ]

let test_game_differential_small () =
  (* Tiny populations exercise the tolerant phase and the Nash fallback,
     where the engine's caches see the most reuse. *)
  List.iter
    (fun n ->
      let cps = ensemble ~n (100 + n) in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          check_outcome
            (Printf.sprintf "n=%d (%g,%g,nu=%g)" n kappa c nu)
            (Cp_game.solve ~nu ~strategy cps)
            (Cp_game.solve_reference ~nu ~strategy cps))
        (game_points cps))
    [ 1; 2; 3; 7 ]

let test_game_nash_differential () =
  List.iter
    (fun (seed, n) ->
      let cps = ensemble ~n seed in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          check_outcome
            (Printf.sprintf "nash seed=%d n=%d (%g,%g,nu=%g)" seed n kappa c
               nu)
            (Cp_game.solve_nash ~nu ~strategy cps)
            (Cp_game.solve_nash_reference ~nu ~strategy cps))
        (game_points cps))
    [ (8, 25); (43, 14) ]

let test_game_repeated_ids () =
  (* [Cp.make] accepts any id, so ids may repeat; the engine's
     solo-entrant memo must key on the CP's position, never its id, or
     one CP is handed another's solo rate. *)
  let cps =
    Array.map
      (fun (cp : Cp.t) ->
        Cp.make ~id:0 ~alpha:cp.Cp.alpha ~theta_hat:cp.Cp.theta_hat
          ~demand:cp.Cp.demand ~v:cp.Cp.v ~phi:cp.Cp.phi ())
      (ensemble ~n:12 1)
  in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun (kappa, c, nu_frac) ->
      let strategy = Strategy.make ~kappa ~c in
      let nu = nu_frac *. sat in
      check_outcome
        (Printf.sprintf "ids=0 (%g,%g,nu=%g)" kappa c nu)
        (Cp_game.solve ~nu ~strategy cps)
        (Cp_game.solve_reference ~nu ~strategy cps))
    [ (0.2, 0.4, 0.2); (0.2, 0.05, 0.5); (0.2, 0.2, 0.5) ]

let test_game_zero_capacity () =
  let cps = ensemble ~n:15 31 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  check_outcome "nu=0"
    (Cp_game.solve ~nu:0. ~strategy cps)
    (Cp_game.solve_reference ~nu:0. ~strategy cps)

(* Number of prepared-population builds since the last metrics reset:
   the observation count of the build-time histogram. *)
let population_builds () =
  match
    List.assoc_opt "cp_game.population_build_s" (Po_obs.Metrics.snapshot ())
  with
  | Some (Po_obs.Metrics.Histogram { counts; _ }) ->
      Array.fold_left ( + ) 0 counts
  | _ -> 0

let with_metrics f =
  Po_obs.Metrics.reset ();
  Po_obs.Metrics.arm ();
  Fun.protect ~finally:Po_obs.Metrics.disarm f

let test_game_differential_large () =
  (* At n = 1000 the asynchronous passes make long runs of single-CP
     moves, and each class re-solve refills its context from the lowest
     rank moved since the last refill. *)
  let cps = ensemble ~n:1000 5 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun (kappa, c, nu_frac) ->
      let strategy = Strategy.make ~kappa ~c in
      let nu = nu_frac *. sat in
      let name = Printf.sprintf "n=1000 (%g,%g,nu=%g)" kappa c nu in
      let optimized, moves =
        with_metrics (fun () ->
            let o = Cp_game.solve ~nu ~strategy cps in
            (o, List.assoc_opt "cp_game.moves" (Po_obs.Metrics.counters ())))
      in
      Alcotest.(check bool) (name ^ " moved CPs one at a time") true
        (Option.value ~default:0 moves > 0);
      check_outcome name optimized (Cp_game.solve_reference ~nu ~strategy cps))
    [ (0.5, 0.3, 0.2); (0.3, 0.6, 0.5) ]

let test_prepared_population_shared () =
  (* Every game of one best response runs on the same array, so the
     market is sorted once for all of them. *)
  let cps = ensemble ~n:14 51 in
  let config =
    Duopoly.config ~nu:(0.85 *. Po_workload.Ensemble.saturation_nu cps)
      ~strategy_i:Strategy.public_option ()
  in
  let builds =
    with_metrics (fun () ->
        ignore (Duopoly.best_response_market_share ~config cps);
        population_builds ())
  in
  Alcotest.(check int) "one build per best response" 1 builds

let test_prepared_population_invalidated () =
  (* The per-domain slot must never serve a stale population: not after
     the caller overwrites a slot of the same array, nor for another
     array of the same length. *)
  let cps = ensemble ~n:30 53 in
  let other = ensemble ~n:30 54 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let strategy = Strategy.make ~kappa:0.4 ~c:0.3 in
  let nu = 0.4 *. sat in
  let game name cps =
    check_outcome name
      (Cp_game.solve ~nu ~strategy cps)
      (Cp_game.solve_reference ~nu ~strategy cps)
  in
  let builds =
    with_metrics (fun () ->
        game "original" cps;
        game "original again" cps;
        List.iter
          (fun i ->
            cps.(i) <- other.(i);
            game (Printf.sprintf "slot %d overwritten" i) cps)
          [ 0; 17; 29 ];
        game "other array" other;
        population_builds ())
  in
  Alcotest.(check int) "rebuilt on every change only" 5 builds

(* ------------------------------------------------------------------ *)
(* Chained sweeps: chunk layout independent of the pool                *)
(* ------------------------------------------------------------------ *)

let test_chain_map_matches_serial () =
  let input = Array.init 103 (fun i -> float_of_int i /. 7.) in
  let step prev x =
    match prev with None -> x | Some p -> (0.5 *. p) +. x
  in
  let serial = Po_par.Pool.chain_map None ~step input in
  List.iter
    (fun domains ->
      Po_par.Pool.with_pool ~domains (fun pool ->
          check_bits_array
            (Printf.sprintf "chain_map %d domains" domains)
            serial
            (Po_par.Pool.chain_map (Some pool) ~step input)))
    [ 1; 2; 8 ];
  (* Chunk boundaries: with chunk_size 10, element 10 starts a fresh
     chain and must not see element 9. *)
  let chunked = Po_par.Pool.chain_map ~chunk_size:10 None ~step input in
  check_bits "chunk restart" input.(10) chunked.(10)

let test_monopoly_sweeps_pool_invariant () =
  let cps = ensemble ~n:40 3 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let cs = Po_num.Grid.linspace 0. 1. 23 in
  let nus = Po_num.Grid.linspace 1e-3 (2. *. sat) 23 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  let prices = Monopoly.price_sweep ~nu:(0.4 *. sat) ~cs cps in
  let caps = Monopoly.capacity_sweep ~strategy ~nus cps in
  Po_par.Pool.with_pool ~domains:4 (fun pool ->
      Array.iteri
        (fun i (p : Monopoly.price_point) ->
          check_bits
            (Printf.sprintf "price psi.(%d)" i)
            p.Monopoly.psi
            (Monopoly.price_sweep ~pool ~nu:(0.4 *. sat) ~cs cps).(i)
              .Monopoly.psi)
        prices;
      Array.iteri
        (fun i (o : Cp_game.outcome) ->
          check_outcome
            (Printf.sprintf "capacity point %d" i)
            o
            (Monopoly.capacity_sweep ~pool ~strategy ~nus cps).(i))
        caps)

(* ------------------------------------------------------------------ *)
(* Duopoly best response: rival memo vs brute force                     *)
(* ------------------------------------------------------------------ *)

(* The best responses memoise a kappa_J = 0 rival's surplus across the
   grid; the reference re-solves every grid point from the public
   [Duopoly.solve] through the same grid search, so the two must agree
   bit for bit.  The kappa_J = 0.5 rival pins the memo-off path. *)
let brute_force_best_response ~objective ~config:cfg cps =
  let hi_c =
    Float.max
      (Array.fold_left (fun acc (cp : Cp.t) -> Float.max acc cp.Cp.v) 0. cps)
      1e-9
  in
  let value kappa c =
    objective
      (Duopoly.solve { cfg with Duopoly.strategy_i = Strategy.make ~kappa ~c } cps)
  in
  let best =
    Po_num.Optimize.refine_grid_max2 ~levels:2 ~points:9 ~f:value ~lo1:0.
      ~hi1:1. ~lo2:0. ~hi2:hi_c ()
  in
  let strategy =
    Strategy.make ~kappa:best.Po_num.Optimize.x1 ~c:best.Po_num.Optimize.x2
  in
  (strategy, Duopoly.solve { cfg with Duopoly.strategy_i = strategy } cps)

let check_best_response name (s, (eq : Duopoly.equilibrium))
    (s', (eq' : Duopoly.equilibrium)) =
  check_bits (name ^ " kappa") (Strategy.kappa s) (Strategy.kappa s');
  check_bits (name ^ " c") (Strategy.c s) (Strategy.c s');
  check_bits (name ^ " m_i") eq.Duopoly.m_i eq'.Duopoly.m_i;
  check_bits (name ^ " phi") eq.Duopoly.phi eq'.Duopoly.phi;
  check_bits (name ^ " psi_i") eq.Duopoly.psi_i eq'.Duopoly.psi_i

(* Run [f] with the metrics armed; also return the rival-memo hits and
   the duopoly solves it made. *)
let with_duopoly_counts f =
  Po_obs.Metrics.reset ();
  Po_obs.Metrics.arm ();
  let r = Fun.protect ~finally:Po_obs.Metrics.disarm f in
  let count name =
    Option.value ~default:0
      (List.assoc_opt name (Po_obs.Metrics.counters ()))
  in
  (r, count "duopoly.rival_memo_hits", count "duopoly.solves")

let test_best_response_rival_memo () =
  List.iter
    (fun (seed, n, strategy_j) ->
      let cps = ensemble ~n seed in
      let nu = 0.85 *. Po_workload.Ensemble.saturation_nu cps in
      let config =
        Duopoly.config ~strategy_j ~nu ~strategy_i:Strategy.public_option ()
      in
      let name = Printf.sprintf "seed=%d n=%d s_J=%s" seed n
          (Strategy.to_string strategy_j) in
      let share, hits, solves =
        with_duopoly_counts (fun () ->
            Duopoly.best_response_market_share ~config cps)
      in
      (* 2 grids of 9 x 9, then the solve at the chosen strategy. *)
      Alcotest.(check int) (name ^ " duopoly solves") 163 solves;
      Alcotest.(check bool)
        (name ^ " memo used iff kappa_J = 0")
        (Float.equal (Strategy.kappa strategy_j) 0.)
        (hits > 0);
      check_best_response (name ^ " share") share
        (brute_force_best_response ~objective:(fun eq -> eq.Duopoly.m_i)
           ~config cps);
      check_best_response (name ^ " surplus")
        (Duopoly.best_response_consumer_surplus ~config cps)
        (brute_force_best_response ~objective:(fun eq -> eq.Duopoly.phi)
           ~config cps))
    [ (1, 12, Strategy.public_option); (2, 16, Strategy.public_option);
      (3, 20, Strategy.public_option);
      (4, 14, Strategy.make ~kappa:0.5 ~c:0.3) ]

(* ------------------------------------------------------------------ *)
(* Figure registry: every figure identical for any jobs count          *)
(* ------------------------------------------------------------------ *)

let series_of_figure (figure : Po_experiments.Common.figure) =
  List.concat_map
    (fun (panel, series) ->
      List.map
        (fun s ->
          ( panel ^ "/" ^ Po_report.Series.label s,
            (Po_report.Series.xs s, Po_report.Series.ys s) ))
        series)
    figure.Po_experiments.Common.panels

let slow_test_registry_jobs_invariant () =
  List.iter
    (fun (entry : Po_experiments.Registry.entry) ->
      let at jobs =
        series_of_figure
          (entry.Po_experiments.Registry.generate
             ~params:{ Po_experiments.Common.quick_params with jobs }
             ())
      in
      let reference = at 1 and got = at 3 in
      Alcotest.(check int)
        (entry.Po_experiments.Registry.id ^ " series count")
        (List.length reference) (List.length got);
      List.iter2
        (fun (name, (xs, ys)) (name', (xs', ys')) ->
          let name = entry.Po_experiments.Registry.id ^ "/" ^ name in
          Alcotest.(check string) (name ^ " label") name
            (entry.Po_experiments.Registry.id ^ "/" ^ name');
          check_bits_array (name ^ " xs") xs xs';
          check_bits_array (name ^ " ys") ys ys')
        reference got)
    Po_experiments.Registry.entries

let () =
  Alcotest.run "po_perf_kernel"
    [ ( "equilibrium",
        [ quick "random ensembles bit-identical" test_eq_differential_random;
          quick "weighted systems bit-identical" test_eq_differential_weighted;
          quick "context reuse" test_eq_context_reuse;
          quick "bracket hints are transparent"
            test_eq_bracket_hints_transparent;
          quick "all-saturated ensembles" test_eq_all_saturated;
          quick "single CP" test_eq_single_cp;
          quick "threshold ties" test_eq_threshold_ties;
          quick "empty and zero capacity" test_eq_empty_and_zero;
          quick "restricted contexts bit-identical" test_restricted_context;
          quick "class contexts along a move sequence" test_move_sequence;
          quick "context size checked" test_context_size_checked ] );
      ( "cp_game",
        [ quick "random ensembles bit-identical" test_game_differential;
          quick "small populations bit-identical"
            test_game_differential_small;
          quick "1000 CPs bit-identical" test_game_differential_large;
          quick "nash solver bit-identical" test_game_nash_differential;
          quick "repeated CP ids" test_game_repeated_ids;
          quick "zero capacity" test_game_zero_capacity;
          quick "prepared population shared" test_prepared_population_shared;
          quick "prepared population invalidated"
            test_prepared_population_invalidated ] );
      ( "sweeps",
        [ quick "chain_map pool-invariant" test_chain_map_matches_serial;
          quick "monopoly sweeps pool-invariant"
            test_monopoly_sweeps_pool_invariant ] );
      ( "duopoly",
        [ quick "best responses match brute force"
            test_best_response_rival_memo ] );
      ( "figures",
        [ slow "whole registry identical at jobs 1/3"
            slow_test_registry_jobs_invariant ] ) ]
