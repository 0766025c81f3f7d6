(* perfbench: the repository benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Runs one workload from the repository root, prints one stamped JSON
   row per reading, and as its last line the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when a
   correctness check failed.  See perfbench/README.md.

     main.exe --print-golden > perfbench/golden.tsv

   rewrites the golden answers from the program at hand. *)

let workloads =
  [ ("regimes-cold", W_regimes.run); ("figures-400", W_figures.run);
    ("serve-mixed", W_serve.run) ]

(* The registered metrics, [(name, unit)] in file order, of one section
   of BENCHMARK.json: the result object holds exactly these. *)
let registered section =
  let entries =
    match Po_obs.Json.of_string (Common.read_file "BENCHMARK.json") with
    | Ok doc -> Option.bind (Po_obs.Json.member section doc) Po_obs.Json.to_list
    | Error _ -> None
  in
  let field k m = Option.bind (Po_obs.Json.member k m) Po_obs.Json.to_str in
  match entries with
  | None -> failwith ("perfbench: BENCHMARK.json has no " ^ section)
  | Some ms ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("perfbench: malformed entry in " ^ section))
        ms

let usage =
  "main.exe --workload <"
  ^ String.concat "|" (List.map fst workloads)
  ^ "> --seed <n> --seconds <s> --trace <0|1>"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let print_golden () =
    Golden.print (W_regimes.golden_requests () @ W_serve.golden_requests ());
    exit 0
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--print-golden", Arg.Unit print_golden,
       " print the golden answers of this commit and exit");
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds > 0 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline usage;
        exit 2
  in
  if not (Sys.file_exists "results" && Sys.file_exists "BENCHMARK.json") then begin
    prerr_endline
      "perfbench: run from the repository root (no results/ or BENCHMARK.json)";
    exit 2
  end;
  let registered = registered (if !trace = 1 then "per_layer" else "end_to_end") in
  let base = ".perfbench-tmp" in
  let tmp = Filename.concat base (string_of_int (Unix.getpid ())) in
  Po_report.Writer.mkdir_p tmp;
  let ctx =
    Common.make ~workload:!workload ~seed:!seed
      ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) ~tmp
  in
  Fun.protect
    ~finally:(fun () ->
      Common.rm_rf tmp;
      try Sys.rmdir base with Sys_error _ -> ())
    (fun () ->
      (* A workload that dies still reports, as a failed run. *)
      try run ctx with e -> Common.check ctx false (Printexc.to_string e));
  (* serve-mixed reports its daemon's peak instead of this process's. *)
  if not (Hashtbl.mem ctx.Common.values "peak_rss_mb") then
    Common.emit ctx "peak_rss_mb" "MB" (Common.peak_rss_mb ());
  Common.emit ctx "failed_share" "ratio"
    (Common.ratio (float_of_int ctx.Common.failed)
       (float_of_int ctx.Common.attempted));
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt ctx.Common.values name with
          | Some (v, u) when u = unit -> v
          | Some (v, u) ->
              Common.check ctx false
                (Printf.sprintf "%s measured in %s, registered in %s" name u unit);
              v
          | None ->
              (* A per-layer metric the workload does not exercise reads
                 0; an end-to-end metric must always be measured. *)
              if not ctx.Common.trace then missing := name :: !missing;
              0.
        in
        ( name,
          Po_obs.Json.Obj
            [ ("value", Po_obs.Json.Number v); ("unit", Po_obs.Json.String unit) ]
        ))
      registered
  in
  List.iter
    (fun m -> Common.check ctx false ("end-to-end metric not measured: " ^ m))
    !missing;
  let correct = ctx.Common.failed = 0 in
  print_endline
    (Po_obs.Json.to_string ~indent:0
       (Po_obs.Json.Obj
          [ ("correct", Po_obs.Json.Bool correct);
            ("attempted", Po_obs.Json.Number (float_of_int ctx.Common.attempted));
            ("failed", Po_obs.Json.Number (float_of_int ctx.Common.failed));
            ("metrics", Po_obs.Json.Obj metrics) ]));
  exit (if correct then 0 else 1)
