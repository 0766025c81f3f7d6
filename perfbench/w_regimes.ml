(* regimes-cold: a closed loop of one client sending cold [regimes]
   queries one at a time through [Po_serve.Engine.eval], the call behind
   [ponet query].  Every query is a distinct market, so nothing is
   shared between queries: no pool, no cache. *)

open Common
module Request = Po_serve.Request
module Engine = Po_serve.Engine
module PO = Po_core.Public_option

let sizes = [| 20; 30; 40; 55 |]
let per_size = 4
let setup_repeats = 21

(* The market set: [per_size] markets of each size, each with its own
   scenario seed.  The set is the same for every workload seed: cold
   query cost differs up to 3x between markets of one size, so a seeded
   set of 16 would measure the draw, not the code.  The workload seed
   orders the queries. *)
let market j =
  { Request.default_scenario with
    Request.n_cps = sizes.(j mod Array.length sizes); seed = 1 + j }

(* A [regimes] request line at the CLI's default search settings. *)
let regimes_line sc =
  Json.to_string ~indent:0
    (Request.to_json
       { Request.query =
           Request.Regimes
             { sc; po_share = Request.default_po_share;
               levels = Request.default_levels;
               points = Request.default_points };
         deadline_s = None })

let shuffle seed a =
  let a = Array.copy a in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let parse line =
  match Request.of_line line with
  | Ok r -> r.Request.query
  | Error e -> failwith ("perfbench: unparsable query: " ^ e.Request.message)

let query_line query =
  Json.to_string ~indent:0 (Request.to_json { Request.query; deadline_s = None })

(* The queries of the market set, in set order. *)
let golden_requests () =
  List.init (per_size * Array.length sizes) (fun j -> regimes_line (market j))

(* Rebuild the regime results from the JSON answer, for the Theorem-5
   ordering audit. *)
let regime_results json =
  let num k o = Option.bind (Json.member k o) Json.to_float in
  let str k o = Option.bind (Json.member k o) Json.to_str in
  match Option.bind (Json.member "regimes" json) Json.to_list with
  | None -> []
  | Some rs ->
      List.filter_map
        (fun r ->
          match (str "label" r, num "phi" r, num "psi" r) with
          | Some label, Some phi, Some psi ->
              Some
                { PO.label; phi; psi; commercial_strategy = None;
                  market_share = None }
          | _ -> None)
        rs

(* The Theorem-5 ordering audit of one answer, counted, not failed:
   on markets of 20-55 CPs both legs have exceptions.  Neutral >=
   unregulated fails where price discrimination raises surplus
   (EXPERIMENTS.md), and public option >= neutral fails where the
   levels-2, points-9 grid misses the commercial ISP's best response. *)
let ordering_holds json = PO.check_ordering (regime_results json) = Ok ()

(* Every answer is checked against its golden line; a violated ordering
   is counted. *)
let check_answer ctx golden ~violations q answer =
  Golden.check ctx golden ~request:(query_line q)
    ~response:(Request.response_line answer);
  match answer with
  | Ok json when not (ordering_holds json) -> incr violations
  | _ -> ()

let n_cps = function
  | Request.Regimes { sc; _ } -> sc.Request.n_cps
  | _ -> 0

(* One pass of the closed loop over [queries]: per-query latencies. *)
let pass ?(wrap = fun f -> f ()) ~on_answer queries =
  Array.map
    (fun q ->
      let answer, dt = time (fun () -> wrap (fun () -> Engine.eval q)) in
      on_answer q answer;
      dt)
    queries

(* The timed set-up: read the golden answers, parse the query set and
   draw each market once. *)
let setup seed =
  let golden = Golden.load () in
  let queries =
    shuffle seed
      (Array.of_list (List.map parse (golden_requests ())))
  in
  Array.iter
    (function
      | Request.Regimes { sc; _ } -> ignore (Engine.scenario_market sc)
      | _ -> ())
    queries;
  (queries, golden)

(* Untimed warm-up: one small solve pages in the solver code and grows
   the heap, so the first timed query is not also the first ever. *)
let warm_up () =
  ignore
    (Engine.eval
       (parse
          (regimes_line
             { Request.default_scenario with Request.n_cps = 12; seed = 1 })))

(* Must run traced.  Replay one market layer by layer, each public call
   in its own span; returns the CP games of the best response and the
   duopoly root's, both exact counts. *)
let descend (q : Request.query) =
  match q with
  | Request.Regimes { sc; po_share; levels; points } ->
      let cps, nu =
        span "ensemble.build" (fun () -> Engine.scenario_market sc)
      in
      ignore (span "monopoly.optimal_strategy" (fun () ->
          PO.unregulated ~levels ~points ~nu cps));
      ignore (span "public_option.neutral" (fun () -> PO.neutral ~nu cps));
      let before = Metrics.counters () in
      let po =
        span "public_option.best_response" (fun () ->
            PO.public_option ~po_share ~levels ~points ~nu cps)
      in
      let br_games =
        counter_delta before (Metrics.counters ()) "cp_game.solves"
      in
      let cfg =
        Po_core.Duopoly.config ~gamma_i:(1. -. po_share) ~nu
          ~strategy_i:(Option.get po.PO.commercial_strategy) ()
      in
      (br_games, Layers.descend cfg cps)
  | _ -> invalid_arg "descend: not a regimes query"

let run ctx =
  let setup_s, setups, (queries, golden) =
    median_time setup_repeats (fun () -> setup ctx.seed)
  in
  warm_up ();
  let violations = ref 0 in
  let on_answer = check_answer ctx golden ~violations in
  (* A traced run times the first half of the set untraced, then
     replays that half traced. *)
  let half = Array.length queries / 2 in
  let timed = if ctx.trace then Array.sub queries 0 half else queries in
  let alloc0 = allocated_mb () in
  let passes = ref [] in
  let wall =
    repeat_within ~seconds:(if ctx.trace then 0. else ctx.seconds) (fun _ ->
        passes := pass ~on_answer timed :: !passes)
  in
  let passes = List.rev !passes in
  let lat = Array.concat passes in
  let k = Array.length lat in
  let alloc_per_op = (allocated_mb () -. alloc0) /. float_of_int k in
  note ctx "%d cold queries in %.2f s" k wall;
  emit ctx ~samples:setups "setup_s" "s" setup_s;
  emit ctx ~samples:lat "regimes.query_s_p50" "s" (Stats.median lat);
  emit ctx ~samples:lat "latency_ms" "ms" (Stats.median lat *. 1000.);
  emit ctx "regimes.queries_per_s" "1/s" (float_of_int k /. wall);
  emit ctx "ops_per_s" "1/s" (float_of_int k /. wall);
  emit ctx "regimes.ordering_violations" "count" (float_of_int !violations);
  Array.iter
    (fun n ->
      let xs =
        Array.concat
          (List.map
             (fun p ->
               Array.of_list
                 (List.filteri (fun i _ -> n_cps queries.(i) = n) (Array.to_list p)))
             passes)
      in
      emit ctx ~samples:xs (Printf.sprintf "regimes.query_s_p50.n%d" n) "s"
        (Stats.median xs))
    sizes;
  if ctx.trace then begin
    let replay = timed in
    let untraced = Stats.sum (List.hd passes) in
    let before = ref [] and after = ref [] and twall = ref 0. in
    traced (fun () ->
        before := Metrics.counters ();
        let lat =
          pass ~wrap:(span "engine.eval") ~on_answer:(fun _ _ -> ()) replay
        in
        twall := Stats.sum lat;
        after := Metrics.counters ());
    let d = counter_delta !before !after in
    emit ctx "trace.overhead_share" "ratio" (ratio !twall untraced);
    emit ctx "gc.alloc_mb_per_op" "MB" alloc_per_op;
    Layers.emit_counters ctx d ~ops:(float_of_int half);
    (* Layer descent on the first market of each size. *)
    let sample =
      Array.map
        (fun n -> List.find (fun q -> n_cps q = n) (Array.to_list queries))
        sizes
    in
    let descents =
      traced (fun () ->
          Array.map (fun q -> span "query" (fun () -> descend q)) sample)
    in
    let rows = Layers.span_rows () in
    let avg f = Stats.mean (Array.map f descents) in
    let br_games = avg fst and games = avg snd in
    emit ctx "ensemble.build_ms" "ms" (Layers.mean_us rows "ensemble.build" /. 1e3);
    emit ctx "monopoly.optimal_strategy_s" "s"
      (Layers.mean_us rows "monopoly.optimal_strategy" /. 1e6);
    emit ctx "public_option.best_response_s" "s"
      (Layers.mean_us rows "public_option.best_response" /. 1e6);
    emit ctx "duopoly.solves_per_query_est" "count" (ratio br_games games);
    Layers.emit_descent ctx rows ~games
  end
