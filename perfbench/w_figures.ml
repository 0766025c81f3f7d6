(* figures-400: the duopoly and monopoly figures of the paper rendered
   at n = 400 CPs and 17 sweep points, once serially and once with 2
   domains.  The CSVs of both renders must agree byte for byte, and both
   must match the committed results/ files, which come from this exact
   configuration. *)

open Common
module C = Po_experiments.Common

let ids = [ "fig4"; "fig5"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12" ]

(* The committed results/ are the paper ensemble at seed 42.  The market
   is held there: a figure sweep's cost depends on the market so
   strongly (fig12 takes 3.7-8.2 s over seeds 1-5) that a seeded market
   would measure the draw, not the code.  So this workload's input is
   fixed; the seed is recorded and changes nothing. *)
let market_seed = 42

let params jobs =
  { C.n_cps = 400; seed = market_seed; sweep_points = 17; jobs;
    checkpoint = None; sup = Po_sup.Supervise.default }

let generate id ~params =
  match Po_experiments.Registry.find id with
  | Some e -> e.Po_experiments.Registry.generate ~params ()
  | None -> failwith ("perfbench: unknown figure " ^ id)

(* Render every figure in [order] into [dir]; per-figure times and the
   written CSVs in order. *)
let render ?(wrap = fun _ f -> f ()) ~jobs ~order ~dir () =
  Po_report.Writer.mkdir_p dir;
  let params = params jobs in
  let t0 = now () in
  let per_fig =
    List.map
      (fun id ->
        let files, dt =
          time (fun () ->
              wrap id (fun () -> C.csv_files ~dir (generate id ~params)))
        in
        (id, dt, files))
      order
  in
  (now () -. t0, per_fig)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The committed CSVs of the rendered figures, read and never written. *)
let committed () =
  Sys.readdir "results" |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".csv"
         && List.exists (fun id -> has_prefix (id ^ "_") f) ids)
  |> List.map (fun f -> (f, read_file (Filename.concat "results" f)))

(* Byte identity, one check per figure: the jobs-2 render, the jobs-1
   render and the committed files hold the same CSVs with the same
   bytes. *)
let check_renders ctx ~committed ~par ~ser =
  let contents files =
    List.sort compare
      (List.map (fun p -> (Filename.basename p, read_file p)) files)
  in
  List.iter2
    (fun (id, _, files_par) (_, _, files_ser) ->
      let expected =
        List.sort compare
          (List.filter (fun (f, _) -> has_prefix (id ^ "_") f) committed)
      in
      let got = contents files_par in
      check ctx
        (got <> [] && got = contents files_ser && got = expected)
        (Printf.sprintf "%s: CSVs differ between jobs 2, jobs 1 and results/" id))
    par ser

let setup ~dir () =
  let committed = committed () in
  (* The paper market itself, drawn and sized as every figure draws it. *)
  let cps = C.ensemble (params 1) in
  ignore (Po_workload.Ensemble.saturation_nu cps);
  (* Warm-up: the two cheapest figures, serially, page in the figure
     code before the first timed render. *)
  ignore (render ~jobs:1 ~order:[ "fig4"; "fig9" ] ~dir ());
  committed

let run ctx =
  let dir k = Filename.concat ctx.tmp k in
  let setup_s, setups, committed = median_time 3 (setup ~dir:(dir "warm")) in
  let render_noted ~jobs k =
    let w, per_fig =
      render ~jobs ~order:ids ~dir:(dir (Printf.sprintf "j%d_%d" jobs k)) ()
    in
    note ctx "jobs %d %.2f s: %s" jobs w
      (String.concat " "
         (List.map (fun (id, dt, _) -> Printf.sprintf "%s %.2f" id dt) per_fig));
    (w, per_fig)
  in
  let alloc0 = allocated_mb () in
  let pairs = ref [] in
  (* Whole (jobs 1, jobs 2) pairs; another only if it fits the time.
     Jobs 1 goes first, before the 2-domain pool exists, so the serial
     baseline runs without an idle worker domain in the process.  A
     traced run skips it: its readings come from jobs-2 renders. *)
  let wall =
    repeat_within ~seconds:(if ctx.trace then 0. else ctx.seconds) (fun k ->
        let ser = if ctx.trace then None else Some (render_noted ~jobs:1 k) in
        let w2, par = render_noted ~jobs:2 k in
        check_renders ctx ~committed ~par
          ~ser:(match ser with Some (_, s) -> s | None -> par);
        pairs := (w2, Option.map fst ser) :: !pairs)
  in
  let pairs = List.rev !pairs in
  let w2s = Array.of_list (List.map fst pairs) in
  let w1s = Array.of_list (List.filter_map snd pairs) in
  let renders =
    float_of_int (List.length ids * (Array.length w2s + Array.length w1s))
  in
  emit ctx ~samples:setups "setup_s" "s" setup_s;
  emit ctx ~samples:w2s "figures.wall_s" "s" (Stats.median w2s);
  (* The mean wall time of one render of the figure set, serial and
     parallel alike.  The jobs-2 wall alone spreads more than the bound
     from run to run: a 2-domain render needs both cores of a 2-core
     box, and shares them with whatever else runs there. *)
  let walls = Array.append w1s w2s in
  emit ctx ~samples:walls "latency_ms" "ms" (Stats.mean walls *. 1000.);
  if w1s <> [||] then
    emit ctx ~samples:w1s "figures.wall_serial_s" "s" (Stats.median w1s);
  emit ctx "ops_per_s" "1/s" (renders /. wall);
  if ctx.trace then begin
    let alloc_per_op = (allocated_mb () -. alloc0) /. renders in
    let w2_untraced = w2s.(0) in
    let before = ref [] and after = ref [] and twall = ref 0. in
    let per_fig = ref [] in
    traced (fun () ->
        before := Metrics.counters ();
        let w, pf =
          render ~wrap:(fun id f -> span ("figure." ^ id) f) ~jobs:2 ~order:ids
            ~dir:(dir "traced") ()
        in
        twall := w;
        per_fig := pf;
        after := Metrics.counters ());
    check_renders ctx ~committed ~par:!per_fig ~ser:!per_fig;
    let d = counter_delta !before !after in
    emit ctx "trace.overhead_share" "ratio" (ratio !twall w2_untraced);
    emit ctx "gc.alloc_mb_per_op" "MB" alloc_per_op;
    List.iter
      (fun (id, dt, _) -> emit ctx (Printf.sprintf "figure.%s_s" id) "s" dt)
      !per_fig;
    Layers.emit_counters ctx d ~ops:(float_of_int (List.length ids));
    emit ctx "pool.chunks_computed" "count" (d "pool.chunks_computed");
    (match hist "pool.chunk_s" with
    | Some ((_, _, busy) as h) ->
        emit ctx "pool.chunk_ms_p99" "ms" (hist_percentile 99. h *. 1000.);
        emit ctx "pool.busy_share" "ratio" (ratio busy (!twall *. 2.))
    | None -> ());
    (* Per-call times on the paper market, against a commercial ISP
       charging (1, 0.5) next to a Public Option. *)
    let cps = C.ensemble (params 1) in
    let nu = 0.85 *. Po_workload.Ensemble.saturation_nu cps in
    let cfg =
      Po_core.Duopoly.config ~nu
        ~strategy_i:(Po_core.Strategy.make ~kappa:1. ~c:0.5) ()
    in
    let games = traced (fun () -> Layers.descend cfg cps) in
    Layers.emit_descent ctx (Layers.span_rows ()) ~games
  end
