(* Per-layer readings shared by the solver workloads: exact work counts
   from the program's own counters, and per-call times from calling the
   solver layers directly, each call in its own span. *)

open Common

(* Counter-derived metrics over [ops] user operations; [d] gives a
   counter's delta over the measured loop. *)
let emit_counters ctx d ~ops =
  let solves = d "cp_game.solves" and eq_solves = d "equilibrium.solves" in
  let hit_ratio h m = ratio (d h) (d h +. d m) in
  emit ctx "cp_game.solves_per_op" "count" (solves /. ops);
  emit ctx "cp_game.sync_rounds_per_solve" "count"
    (ratio (d "cp_game.sync_rounds") solves);
  emit ctx "cp_game.class_memo_hit_ratio" "ratio"
    (hit_ratio "cp_game.class_memo_hits" "cp_game.class_memo_misses");
  emit ctx "cp_game.solo_memo_hit_ratio" "ratio"
    (hit_ratio "cp_game.solo_memo_hits" "cp_game.solo_memo_misses");
  emit ctx "equilibrium.solves_per_op" "count" (eq_solves /. ops);
  emit ctx "equilibrium.iterations_per_solve" "count"
    (ratio (d "equilibrium.iterations") eq_solves);
  emit ctx "equilibrium.bracket_hint_ratio" "ratio"
    (hit_ratio "equilibrium.bracket_hint_used"
       "equilibrium.bracket_hint_discarded")

let cp_reps = 10
let eq_reps = 200

(* Must run traced.  One migration root at [cfg], then CP-game and
   water-filling solves at ISP I's resulting capacity.  Returns the CP
   games of the duopoly solve, an exact count. *)
let descend cfg cps =
  let before = Metrics.counters () in
  let eq = span "duopoly.solve" (fun () -> Po_core.Duopoly.solve cfg cps) in
  let games = counter_delta before (Metrics.counters ()) "cp_game.solves" in
  let nu = eq.Po_core.Duopoly.nu_i in
  let nu = if Float.is_finite nu then nu else cfg.Po_core.Duopoly.nu in
  let strategy = cfg.Po_core.Duopoly.strategy_i in
  for _ = 1 to cp_reps do
    ignore (span "cp_game.solve" (fun () ->
        Po_core.Cp_game.solve ~nu ~strategy cps))
  done;
  for _ = 1 to eq_reps do
    ignore (span "equilibrium.solve" (fun () ->
        Po_model.Equilibrium.solve ~nu cps))
  done;
  games

let mean_us rows name =
  match Span_fold.find rows name with
  | Some r -> r.Span_fold.total_us /. float_of_int r.Span_fold.count
  | None -> 0.

let span_rows () = Span_fold.fold (Span_fold.of_trace (Po_obs.Trace.events ()))

(* Emit the descent's per-call times, each from direct calls on the
   workload's market. *)
let emit_descent ctx rows ~games =
  emit ctx "duopoly.solve_ms" "ms" (mean_us rows "duopoly.solve" /. 1e3);
  emit ctx "duopoly.cp_games_per_solve" "count" games;
  emit ctx "cp_game.solve_ms" "ms" (mean_us rows "cp_game.solve" /. 1e3);
  emit ctx "equilibrium.solve_us" "us" (mean_us rows "equilibrium.solve")
