open Po_model

type config = {
  nu : float;
  gamma_i : float;
  strategy_i : Strategy.t;
  strategy_j : Strategy.t;
}

let config ?(gamma_i = 0.5) ?(strategy_j = Strategy.public_option) ~nu
    ~strategy_i () =
  if nu < 0. then invalid_arg "Duopoly.config: nu < 0";
  if not (gamma_i > 0. && gamma_i < 1.) then
    invalid_arg "Duopoly.config: gamma_i outside (0, 1)";
  { nu; gamma_i; strategy_i; strategy_j }

type equilibrium = {
  m_i : float;
  nu_i : float;
  nu_j : float;
  outcome_i : Cp_game.outcome;
  outcome_j : Cp_game.outcome;
  phi : float;
  psi_i : float;
  psi_j : float;
  interior : bool;
}

let unconstrained_nu cps =
  Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps

(* Per-capita capacity of an ISP holding capacity share [gamma] and market
   share [m]; an (almost) empty ISP is effectively unconstrained, which we
   represent with a finite capacity comfortably above saturation. *)
let isp_nu ~nu ~gamma ~nu_sat m =
  if m <= 1e-12 then (4. *. nu_sat) +. 1.
  else Float.min (((4. *. nu_sat) +. 1.)) (gamma *. nu /. m)

(* Observability counters (DESIGN.md §11); disarmed each costs one
   atomic load. *)
let m_solves = Po_obs.Metrics.counter "duopoly.solves"

let m_rival_memo_hits = Po_obs.Metrics.counter "duopoly.rival_memo_hits"

module Bits_tbl = Hashtbl.Make (Int64)

(* [rival_phi], when given, memoises Phi_J by the bits of the market share
   for the root search's [gap]; see [best_response_generic] for when that
   is sound.  [finish] always solves ISP J's game in full. *)
let solve_with ?rival_phi ?(tol = 1e-6) config cps =
  Po_obs.Metrics.incr m_solves;
  let nu_sat = unconstrained_nu cps in
  let warm_i = ref None and warm_j = ref None in
  let eval_i m =
    let nu_i = isp_nu ~nu:config.nu ~gamma:config.gamma_i ~nu_sat m in
    let o =
      Cp_game.solve ?init:!warm_i ~nu:nu_i ~strategy:config.strategy_i cps
    in
    warm_i := Some o.Cp_game.partition;
    (nu_i, o)
  in
  let eval_j m =
    let nu_j =
      isp_nu ~nu:config.nu ~gamma:(1. -. config.gamma_i) ~nu_sat (1. -. m)
    in
    let o =
      Cp_game.solve ?init:!warm_j ~nu:nu_j ~strategy:config.strategy_j cps
    in
    warm_j := Some o.Cp_game.partition;
    (nu_j, o)
  in
  let phi_j m =
    let solve_j () = (snd (eval_j m)).Cp_game.phi in
    match rival_phi with
    | None -> solve_j ()
    | Some memo -> (
        let key = Int64.bits_of_float m in
        match Bits_tbl.find_opt memo key with
        | Some phi ->
            Po_obs.Metrics.incr m_rival_memo_hits;
            phi
        | None ->
            let phi = solve_j () in
            Bits_tbl.replace memo key phi;
            phi)
  in
  let gap m =
    let _, oi = eval_i m in
    oi.Cp_game.phi -. phi_j m
  in
  let finish m ~interior =
    let nu_i, outcome_i = eval_i m in
    let nu_j, outcome_j = eval_j m in
    let phi_i = outcome_i.Cp_game.phi and phi_j = outcome_j.Cp_game.phi in
    { m_i = m; nu_i; nu_j; outcome_i; outcome_j;
      phi = (m *. phi_i) +. ((1. -. m) *. phi_j);
      psi_i = m *. outcome_i.Cp_game.psi;
      psi_j = (1. -. m) *. outcome_j.Cp_game.psi;
      interior }
  in
  let m_lo = 1e-9 and m_hi = 1. -. 1e-9 in
  let g_lo = gap m_lo in
  if g_lo <= 0. then finish 0. ~interior:false
  else begin
    let g_hi = gap m_hi in
    if g_hi >= 0. then finish 1. ~interior:false
    else begin
      (* gap is non-increasing in m: bisect the sign change. *)
      let rec bisect lo hi n =
        if hi -. lo <= tol || n > 80 then finish (0.5 *. (lo +. hi)) ~interior:true
        else
          let mid = 0.5 *. (lo +. hi) in
          if gap mid > 0. then bisect mid hi (n + 1)
          else bisect lo mid (n + 1)
      in
      bisect m_lo m_hi 0
    end
  end

let solve ?tol config cps = solve_with ?tol config cps

(* Each sweep point is an independent [solve] (the warm-start refs above
   live inside a single solve), so the points can be evaluated on a pool
   in any order without changing a single bit of the result. *)
let price_sweep ?pool ?(kappa_i = 1.) ~config:cfg ~cs cps =
  Po_par.Pool.maybe_map pool
    (fun c ->
      let cfg = { cfg with strategy_i = Strategy.make ~kappa:kappa_i ~c } in
      solve cfg cps)
    cs

let capacity_sweep ?pool ~config:cfg ~nus cps =
  Po_par.Pool.maybe_map pool (fun nu -> solve { cfg with nu } cps) nus

let max_revenue_price cps =
  Array.fold_left (fun acc (cp : Cp.t) -> Float.max acc cp.Cp.v) 0. cps

(* When ISP J plays kappa_J = 0 its premium class has no capacity, so no
   CP ever prefers it: J's game settles at all-ordinary from any start and
   Phi_J(m) is a pure function of J's capacity, hence of m alone (nu,
   gamma_i and the population are fixed for the whole search).  The grid
   points of one best response bisect over largely the same shares, so
   one table of Phi_J per call replays J's game bit for bit.  It holds
   floats only and dies with the call. *)
let best_response_generic ~objective ?(levels = 2) ?(points = 9) ~config:cfg
    cps =
  let hi_c = Float.max (max_revenue_price cps) 1e-9 in
  let rival_phi =
    if Float.equal (Strategy.kappa cfg.strategy_j) 0. then
      Some (Bits_tbl.create 64)
    else None
  in
  let value kappa c =
    let cfg = { cfg with strategy_i = Strategy.make ~kappa ~c } in
    objective (solve_with ?rival_phi cfg cps)
  in
  let best =
    Po_num.Optimize.refine_grid_max2 ~levels ~points ~f:value ~lo1:0. ~hi1:1.
      ~lo2:0. ~hi2:hi_c ()
  in
  let strategy =
    Strategy.make ~kappa:best.Po_num.Optimize.x1 ~c:best.Po_num.Optimize.x2
  in
  (strategy, solve { cfg with strategy_i = strategy } cps)

let best_response_market_share ?levels ?points ~config cps =
  best_response_generic ~objective:(fun eq -> eq.m_i) ?levels ?points ~config
    cps

let best_response_consumer_surplus ?levels ?points ~config cps =
  best_response_generic ~objective:(fun eq -> eq.phi) ?levels ?points ~config
    cps

let check_theorem5 ?(tol = 1e-3) ?strategies ~config:cfg cps =
  let strategies =
    match strategies with
    | Some s -> s
    | None ->
        Strategy.grid
          ~kappas:(Po_num.Grid.linspace 0. 1. 5)
          ~cs:(Po_num.Grid.linspace 0. (Float.max (max_revenue_price cps) 1e-9) 5)
          ()
  in
  if not (Strategy.is_public_option cfg.strategy_j) then
    invalid_arg "Duopoly.check_theorem5: ISP J must be the Public Option";
  let results =
    Array.map
      (fun s ->
        let eq = solve { cfg with strategy_i = s } cps in
        (s, eq.m_i, eq.phi))
      strategies
  in
  let _, _, best_phi =
    Array.fold_left
      (fun ((_, _, bphi) as acc) ((_, _, phi) as r) ->
        if phi > bphi then r else acc)
      results.(0) results
  in
  let share_max_s, _, share_max_phi =
    Array.fold_left
      (fun ((_, bm, _) as acc) ((_, m, _) as r) -> if m > bm then r else acc)
      results.(0) results
  in
  if share_max_phi < best_phi -. tol then
    Error
      (Printf.sprintf
         "theorem 5 violated: share-maximising %s yields Phi=%g < max \
          Phi=%g"
         (Strategy.to_string share_max_s) share_max_phi best_phi)
  else Ok ()
