(* Tests for the paper's core contribution (lib/core): ISP strategies,
   class partitions, the second-stage CP game (Definitions 2 and 3,
   Theorem 3) and the monopoly analysis (Sec. III, Theorem 4). *)

open Po_core
open Po_model

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let prop t = QCheck_alcotest.to_alcotest t
let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let priced () = Po_workload.Scenario.three_cp_priced ()
let ensemble ?(n = 80) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()

(* ------------------------------------------------------------------ *)
(* Strategy                                                           *)
(* ------------------------------------------------------------------ *)

let test_strategy_validation () =
  Alcotest.check_raises "kappa > 1"
    (Invalid_argument "Strategy.make: kappa outside [0, 1]") (fun () ->
      ignore (Strategy.make ~kappa:1.5 ~c:0.));
  Alcotest.check_raises "negative c" (Invalid_argument "Strategy.make: c < 0")
    (fun () -> ignore (Strategy.make ~kappa:0.5 ~c:(-1.)))

let test_strategy_predicates () =
  Alcotest.(check bool) "public option" true
    (Strategy.is_public_option Strategy.public_option);
  Alcotest.(check bool) "kappa=0 is neutral" true
    (Strategy.is_neutral (Strategy.make ~kappa:0. ~c:0.9));
  Alcotest.(check bool) "c=0 is neutral" true
    (Strategy.is_neutral (Strategy.make ~kappa:0.7 ~c:0.));
  Alcotest.(check bool) "charged split is not neutral" false
    (Strategy.is_neutral (Strategy.make ~kappa:0.7 ~c:0.2))

let test_strategy_ordering () =
  let a = Strategy.make ~kappa:0.2 ~c:0.9 in
  let b = Strategy.make ~kappa:0.3 ~c:0.1 in
  Alcotest.(check bool) "lexicographic" true (Strategy.compare a b < 0);
  Alcotest.(check bool) "equal" true
    (Strategy.equal a (Strategy.make ~kappa:0.2 ~c:0.9))

let test_strategy_grid () =
  let g = Strategy.grid ~kappas:[| 0.; 1. |] ~cs:[| 0.; 0.5; 1. |] () in
  Alcotest.(check int) "cartesian size" 6 (Array.length g)

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let test_partition_basics () =
  let p = Partition.of_premium_indicator [| true; false; true |] in
  Alcotest.(check int) "premium count" 2 (Partition.premium_count p);
  Alcotest.(check int) "ordinary count" 1 (Partition.ordinary_count p);
  Alcotest.(check bool) "membership" true (Partition.in_premium p 0);
  Alcotest.(check (array int)) "premium indices" [| 0; 2 |]
    (Partition.premium_indices p);
  Alcotest.(check (array int)) "ordinary indices" [| 1 |]
    (Partition.ordinary_indices p)

let test_partition_members_preserve_order () =
  let cps = priced () in
  let p = Partition.of_premium_pred cps (fun cp -> cp.Cp.v >= 0.5) in
  let prem = Partition.premium_members p cps in
  Alcotest.(check int) "two premium" 2 (Array.length prem);
  Alcotest.(check string) "google first" "google" prem.(0).Cp.label;
  Alcotest.(check string) "netflix second" "netflix" prem.(1).Cp.label

let test_partition_move_functional () =
  let p = Partition.all_ordinary 3 in
  let q = Partition.move p 1 ~premium:true in
  Alcotest.(check int) "original untouched" 0 (Partition.premium_count p);
  Alcotest.(check bool) "moved" true (Partition.in_premium q 1)

let key_of table p =
  let key = Partition.Key.create table in
  Partition.Key.set key p;
  key

let test_partition_key () =
  (* The memo key of a partition is its Zobrist hash, the XOR of one
     table word per premium CP, kept by one flip per single-CP move. *)
  let p = Partition.of_premium_indicator [| true; false |] in
  let table = Partition.zobrist 2 in
  Alcotest.(check (array bool)) "mask" [| true; false |] (Partition.mask p);
  let key = key_of table p in
  Alcotest.(check int) "key" table.(0) (Partition.Key.hash key);
  Partition.Key.flip key 1;
  let moved = Partition.move p 1 ~premium:true in
  Alcotest.(check int) "key after a move" (table.(0) lxor table.(1))
    (Partition.Key.hash key);
  Alcotest.(check int) "flip = set" (Partition.Key.hash (key_of table moved))
    (Partition.Key.hash key);
  let memo = Partition.Table.create 4 in
  Partition.Table.add memo key "moved";
  Alcotest.(check (option string)) "found by a fresh key" (Some "moved")
    (Partition.Table.find_opt memo (key_of table moved));
  Alcotest.(check (array int)) "fixed seed" table (Partition.zobrist 2)

(* Two distinct partitions with one Zobrist hash: the hash is linear
   over GF(2), so among more table words than hash bits some subset XORs
   to zero, and that subset as a premium class hashes like the
   all-ordinary partition.  Gaussian elimination finds it. *)
let zero_xor_subset table =
  let n = Array.length table in
  let basis = Array.make Sys.int_size None in
  let rec reduce v comb bit =
    if bit < 0 then Some comb
    else if (v lsr bit) land 1 = 0 then reduce v comb (bit - 1)
    else
      match basis.(bit) with
      | Some (bv, bcomb) ->
          reduce (v lxor bv) (Array.map2 (fun a b -> a <> b) comb bcomb)
            (bit - 1)
      | None ->
          basis.(bit) <- Some (v, comb);
          None
  in
  let rec scan i =
    if i >= n then Alcotest.fail "no dependent subset"
    else
      match
        reduce table.(i) (Array.init n (fun j -> j = i)) (Sys.int_size - 1)
      with
      | Some comb -> comb
      | None -> scan (i + 1)
  in
  scan 0

let test_partition_table_collision () =
  let n = 80 in
  let table = Partition.zobrist n in
  let a = Partition.of_premium_indicator (zero_xor_subset table) in
  let b = Partition.all_ordinary n in
  Alcotest.(check bool) "distinct partitions" false (Partition.equal a b);
  Alcotest.(check int) "equal hashes"
    (Partition.Key.hash (key_of table b))
    (Partition.Key.hash (key_of table a));
  let memo = Partition.Table.create 4 in
  Partition.Table.add memo (key_of table a) "a";
  Alcotest.(check (option string)) "b not confused with a" None
    (Partition.Table.find_opt memo (key_of table b));
  Partition.Table.add memo (key_of table b) "b";
  Alcotest.(check (option string)) "a" (Some "a")
    (Partition.Table.find_opt memo (key_of table a));
  Alcotest.(check (option string)) "b" (Some "b")
    (Partition.Table.find_opt memo (key_of table b))

let test_partition_immutability_from_source () =
  let src = [| true; false |] in
  let p = Partition.of_premium_indicator src in
  src.(1) <- true;
  Alcotest.(check bool) "copied on construction" false (Partition.in_premium p 1)

(* ------------------------------------------------------------------ *)
(* Cp_game: degenerate strategies                                     *)
(* ------------------------------------------------------------------ *)

let test_game_kappa0_all_ordinary () =
  let cps = priced () in
  let o = Cp_game.solve ~nu:3. ~strategy:Strategy.public_option cps in
  Alcotest.(check int) "no premium members" 0
    (Partition.premium_count o.Cp_game.partition);
  Alcotest.(check bool) "converged" true o.Cp_game.converged;
  check_float "no revenue" 0. o.Cp_game.psi

let test_game_kappa1_affordable_set () =
  (* With kappa=1 the ordinary class has zero capacity, so exactly the
     CPs with v > c join premium (paper's trivial profile). *)
  let cps = priced () in
  let o = Cp_game.solve ~nu:3. ~strategy:(Strategy.make ~kappa:1. ~c:0.4) cps in
  Alcotest.(check bool) "google in premium (v=0.8)" true
    (Partition.in_premium o.Cp_game.partition 0);
  Alcotest.(check bool) "netflix in premium (v=0.5)" true
    (Partition.in_premium o.Cp_game.partition 1);
  Alcotest.(check bool) "skype out (v=0.2)" false
    (Partition.in_premium o.Cp_game.partition 2);
  check_float "skype starved" 0. o.Cp_game.theta.(2)

let test_game_price_above_all_v () =
  let cps = priced () in
  let o = Cp_game.solve ~nu:3. ~strategy:(Strategy.make ~kappa:1. ~c:0.95) cps in
  Alcotest.(check int) "nobody can afford premium" 0
    (Partition.premium_count o.Cp_game.partition);
  check_float "zero revenue" 0. o.Cp_game.psi;
  check_float "zero consumer surplus" 0. o.Cp_game.phi

let test_game_free_premium () =
  (* c = 0: the split is PMP with two free classes; revenue is zero. *)
  let cps = priced () in
  let o = Cp_game.solve ~nu:3. ~strategy:(Strategy.make ~kappa:0.5 ~c:0.) cps in
  check_float "free premium yields no revenue" 0. o.Cp_game.psi;
  Alcotest.(check bool) "converged" true o.Cp_game.converged

let test_game_zero_capacity () =
  let cps = priced () in
  let o = Cp_game.solve ~nu:0. ~strategy:(Strategy.make ~kappa:0.5 ~c:0.3) cps in
  check_float "no surplus at zero capacity" 0. o.Cp_game.phi;
  check_float "no revenue at zero capacity" 0. o.Cp_game.psi

(* ------------------------------------------------------------------ *)
(* Cp_game: equilibrium properties                                    *)
(* ------------------------------------------------------------------ *)

let test_game_outcome_accounting () =
  let cps = priced () in
  let strategy = Strategy.make ~kappa:0.6 ~c:0.3 in
  let o = Cp_game.solve ~nu:3. ~strategy cps in
  (* Psi = c * lambda_premium by definition. *)
  check_close 1e-9 "psi accounting" (0.3 *. o.Cp_game.lambda_premium)
    o.Cp_game.psi;
  (* Phi recomputed from the per-CP profile. *)
  let phi =
    Array.to_list
      (Array.mapi
         (fun i (cp : Cp.t) -> cp.Cp.phi *. cp.Cp.alpha *. o.Cp_game.rho.(i))
         cps)
    |> List.fold_left ( +. ) 0.
  in
  check_close 1e-9 "phi accounting" phi o.Cp_game.phi;
  (* Carried traffic fits in each class's capacity. *)
  Alcotest.(check bool) "ordinary load within capacity" true
    (o.Cp_game.lambda_ordinary <= (0.4 *. 3.) +. 1e-6);
  Alcotest.(check bool) "premium load within capacity" true
    (o.Cp_game.lambda_premium <= (0.6 *. 3.) +. 1e-6)

let test_game_solution_is_competitive () =
  let cps = ensemble 3 in
  List.iter
    (fun (kappa, c, nu) ->
      let strategy = Strategy.make ~kappa ~c in
      let o = Cp_game.solve ~nu ~strategy cps in
      Alcotest.(check bool)
        (Printf.sprintf "converged at (%g, %g, %g)" kappa c nu)
        true o.Cp_game.converged;
      let audit =
        match o.Cp_game.concept with
        | Cp_game.Competitive eps ->
            (* Audit with the eps the solver settled at, plus room for the
               one-CP displacement the eps-equilibrium concept allows. *)
            Cp_game.check_competitive
              ~rel_tol:((2. *. eps) +. Cp_game.default_hysteresis)
              ~nu ~strategy cps o.Cp_game.partition
        | Cp_game.Expost_nash ->
            Cp_game.check_nash ~tol:1e-7 ~nu ~strategy cps
              o.Cp_game.partition
      in
      match audit with
      | Ok () -> ()
      | Error (_, e) ->
          Alcotest.failf "not an equilibrium at (%g, %g, %g): %s" kappa c nu e)
    [ (0.5, 0.3, 5.); (0.3, 0.6, 10.); (0.8, 0.2, 2.); (1., 0.5, 8.);
      (0.6, 0.4, 15.) ]

let test_game_warm_start_agrees () =
  let cps = ensemble 5 in
  let strategy = Strategy.make ~kappa:0.7 ~c:0.35 in
  let cold = Cp_game.solve ~nu:6. ~strategy cps in
  let warm = Cp_game.solve ~init:cold.Cp_game.partition ~nu:6. ~strategy cps in
  Alcotest.(check bool) "warm start stays at equilibrium" true
    (Partition.equal cold.Cp_game.partition warm.Cp_game.partition)

let test_game_outcome_reproducible () =
  let cps = ensemble 7 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.4 in
  let o = Cp_game.solve ~nu:4. ~strategy cps in
  let rebuilt =
    Cp_game.outcome_of_partition ~nu:4. ~strategy cps o.Cp_game.partition
  in
  check_close 1e-9 "phi reproducible" o.Cp_game.phi rebuilt.Cp_game.phi;
  check_close 1e-9 "psi reproducible" o.Cp_game.psi rebuilt.Cp_game.psi

let test_game_nash_solver () =
  let cps = priced () in
  let strategy = Strategy.make ~kappa:0.6 ~c:0.3 in
  let o = Cp_game.solve_nash ~nu:3. ~strategy cps in
  Alcotest.(check bool) "nash search converged" true o.Cp_game.converged;
  match
    Cp_game.check_nash ~tol:1e-7 ~nu:3. ~strategy cps o.Cp_game.partition
  with
  | Ok () -> ()
  | Error (_, e) -> Alcotest.fail e

let test_game_nash_detects_deviation () =
  (* Park everyone in ordinary under a tempting premium class: the Nash
     audit must flag a profitable deviation. *)
  let cps = priced () in
  let strategy = Strategy.make ~kappa:0.9 ~c:0.01 in
  let all_ordinary = Partition.all_ordinary 3 in
  match Cp_game.check_nash ~nu:1. ~strategy cps all_ordinary with
  | Ok () -> Alcotest.fail "expected a profitable deviation"
  | Error _ -> ()

let slow_test_nash_competitive_concordance () =
  (* The paper treats Definitions 2 and 3 as interchangeable for large
     populations; the two solvers should deliver near-identical welfare. *)
  let cps = ensemble ~n:80 211 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun (kappa, c, frac) ->
      let strategy = Strategy.make ~kappa ~c in
      let nu = frac *. sat in
      let competitive = Cp_game.solve ~nu ~strategy cps in
      let nash = Cp_game.solve_nash ~nu ~strategy cps in
      let scale = Float.max competitive.Cp_game.phi 1e-9 in
      Alcotest.(check bool)
        (Printf.sprintf
           "Phi concordance at (%g, %g, %.2f sat): competitive %.3f vs             nash %.3f"
           kappa c frac competitive.Cp_game.phi nash.Cp_game.phi)
        true
        (Float.abs (competitive.Cp_game.phi -. nash.Cp_game.phi)
        <= 0.05 *. scale);
      Alcotest.(check bool) "Psi concordance" true
        (Float.abs (competitive.Cp_game.psi -. nash.Cp_game.psi)
        <= 0.05 *. Float.max competitive.Cp_game.psi 1e-2))
    [ (0.5, 0.3, 0.3); (1., 0.4, 0.5); (0.7, 0.2, 0.8) ]

let test_class_solution_zero_capacity () =
  let sol = Cp_game.class_solution ~nu_class:0. (priced ()) in
  check_float "cap zero" 0. sol.Equilibrium.cap;
  Array.iter (fun th -> check_float "starved" 0. th) sol.Equilibrium.theta

let prop_game_converges_on_random_points =
  QCheck.Test.make ~name:"CP game converges across random strategy points"
    ~count:25
    QCheck.(
      triple (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_range 0.5 25.))
    (fun (kappa, c, nu) ->
      let cps = ensemble 40 in
      let o = Cp_game.solve ~nu ~strategy:(Strategy.make ~kappa ~c) cps in
      o.Cp_game.converged)

let prop_game_psi_nonnegative =
  QCheck.Test.make ~name:"Psi and Phi are non-negative" ~count:25
    QCheck.(
      triple (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_range 0.1 30.))
    (fun (kappa, c, nu) ->
      let cps = ensemble 40 in
      let o = Cp_game.solve ~nu ~strategy:(Strategy.make ~kappa ~c) cps in
      o.Cp_game.psi >= 0. && o.Cp_game.phi >= 0.)

(* ------------------------------------------------------------------ *)
(* Monopoly (Sec. III)                                                *)
(* ------------------------------------------------------------------ *)

let test_monopoly_price_sweep_linear_regime () =
  (* Fig. 4: Psi = c * nu while the premium class stays saturated. *)
  let cps = ensemble ~n:120 11 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.3 *. sat in
  let points =
    Monopoly.price_sweep ~kappa:1. ~nu ~cs:[| 0.05; 0.1; 0.2 |] cps
  in
  Array.iter
    (fun (p : Monopoly.price_point) ->
      check_close (0.01 *. nu)
        (Printf.sprintf "Psi = c*nu at c=%g" p.Monopoly.c)
        (p.Monopoly.c *. nu) p.Monopoly.psi)
    points

let test_monopoly_revenue_collapses_at_high_price () =
  let cps = ensemble ~n:120 11 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let sweep =
    Monopoly.price_sweep ~kappa:1. ~nu:(0.5 *. sat) ~cs:[| 0.3; 0.999 |] cps
  in
  Alcotest.(check bool) "revenue collapses near max v" true
    (sweep.(1).Monopoly.psi < 0.2 *. sweep.(0).Monopoly.psi)

let test_monopoly_theorem4 () =
  let cps = ensemble ~n:100 13 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun (nu_frac, c) ->
      match
        Monopoly.check_theorem4 ~nu:(nu_frac *. sat) ~c
          ~kappas:[| 0.; 0.2; 0.5; 0.8 |] cps
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ (0.2, 0.3); (0.6, 0.5); (0.9, 0.2) ]

let test_monopoly_optimal_price_beats_grid () =
  let cps = ensemble ~n:80 17 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.7 *. sat in
  let best = Monopoly.optimal_price ~nu cps in
  let sweep =
    Monopoly.price_sweep ~kappa:1. ~nu
      ~cs:(Po_num.Grid.linspace 0.02 1. 15)
      cps
  in
  Array.iter
    (fun (p : Monopoly.price_point) ->
      if p.Monopoly.psi > best.Monopoly.psi +. 1e-6 then
        Alcotest.failf "grid point c=%g beats the optimiser (%g > %g)"
          p.Monopoly.c p.Monopoly.psi best.Monopoly.psi)
    sweep

let test_monopoly_regimes () =
  let cps = ensemble ~n:80 19 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.85 *. sat in
  let neutral = Monopoly.regime_outcome ~nu Monopoly.Neutral cps in
  check_float "neutral has no revenue" 0. neutral.Cp_game.psi;
  let fixed =
    Monopoly.regime_outcome ~nu
      (Monopoly.Fixed (Strategy.make ~kappa:1. ~c:0.4))
      cps
  in
  Alcotest.(check bool) "fixed strategy collects revenue" true
    (fixed.Cp_game.psi > 0.);
  let capped = Monopoly.regime_outcome ~nu (Monopoly.Capped 0.3) cps in
  Alcotest.(check bool) "capped kappa stays within the cap" true
    (Strategy.kappa capped.Cp_game.strategy <= 0.3 +. 1e-9)

let test_monopoly_capacity_sweep_length () =
  let cps = ensemble ~n:60 23 in
  let nus = Po_num.Grid.linspace 1. 20. 7 in
  let outcomes =
    Monopoly.capacity_sweep ~strategy:(Strategy.make ~kappa:0.5 ~c:0.3) ~nus
      cps
  in
  Alcotest.(check int) "one outcome per capacity" 7 (Array.length outcomes);
  Array.iter
    (fun (o : Cp_game.outcome) ->
      Alcotest.(check bool) "each converged" true o.Cp_game.converged)
    outcomes

let slow_test_monopoly_misalignment_at_abundance () =
  (* The paper's central monopoly finding: at abundant capacity the
     revenue-optimal price reduces consumer surplus below the neutral
     level. *)
  let cps = ensemble ~n:200 29 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.85 *. sat in
  let best = Monopoly.optimal_price ~nu cps in
  let neutral = Cp_game.solve ~nu ~strategy:Strategy.public_option cps in
  Alcotest.(check bool)
    (Printf.sprintf "Phi(optimal c)=%g < Phi(neutral)=%g" best.Monopoly.phi
       neutral.Cp_game.phi)
    true
    (best.Monopoly.phi < neutral.Cp_game.phi)

let () =
  Alcotest.run "po_game"
    [ ( "strategy",
        [ quick "validation" test_strategy_validation;
          quick "predicates" test_strategy_predicates;
          quick "ordering" test_strategy_ordering;
          quick "grid" test_strategy_grid ] );
      ( "partition",
        [ quick "basics" test_partition_basics;
          quick "members preserve order" test_partition_members_preserve_order;
          quick "move functional" test_partition_move_functional;
          quick "key" test_partition_key;
          quick "hash collisions kept apart" test_partition_table_collision;
          quick "copies source" test_partition_immutability_from_source ] );
      ( "cp_game degenerate",
        [ quick "kappa=0" test_game_kappa0_all_ordinary;
          quick "kappa=1 affordable set" test_game_kappa1_affordable_set;
          quick "price above all v" test_game_price_above_all_v;
          quick "free premium" test_game_free_premium;
          quick "zero capacity" test_game_zero_capacity ] );
      ( "cp_game equilibrium",
        [ quick "accounting" test_game_outcome_accounting;
          slow "competitive equilibrium" test_game_solution_is_competitive;
          quick "warm start" test_game_warm_start_agrees;
          quick "outcome reproducible" test_game_outcome_reproducible;
          quick "nash solver" test_game_nash_solver;
          quick "nash detects deviation" test_game_nash_detects_deviation;
          slow "nash/competitive concordance" slow_test_nash_competitive_concordance;
          quick "zero-capacity class" test_class_solution_zero_capacity;
          prop prop_game_converges_on_random_points;
          prop prop_game_psi_nonnegative ] );
      ( "monopoly",
        [ quick "linear regime" test_monopoly_price_sweep_linear_regime;
          quick "collapse at high price" test_monopoly_revenue_collapses_at_high_price;
          quick "theorem 4" test_monopoly_theorem4;
          slow "optimal price beats grid" test_monopoly_optimal_price_beats_grid;
          quick "regimes" test_monopoly_regimes;
          quick "capacity sweep" test_monopoly_capacity_sweep_length;
          slow "misalignment at abundance"
            slow_test_monopoly_misalignment_at_abundance ] ) ]
