(* Plumbing shared by the workloads: run context, stamped output rows,
   counter deltas, the scratch directory and process-level readings. *)

module Json = Po_obs.Json
module Metrics = Po_obs.Metrics

let now = Po_obs.Clock.now_s

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;  (* scratch directory inside the checkout, removed at exit *)
  stamp : (string * Json.t) list;
  values : (string, float * string) Hashtbl.t;  (* metric -> value, unit *)
  mutable attempted : int;
  mutable failed : int;
}

let commit () =
  (Po_obs.Manifest.make ~figure:"perfbench" ~params_hash:"" ~jobs:0
     ~wall_s:0. ~warnings:0 ())
    .Po_obs.Manifest.git

let make ~workload ~seed ~seconds ~trace ~tmp =
  { workload; seed; seconds; trace; tmp;
    stamp =
      [ ("workload", Json.String workload);
        ("seed", Json.Number (float_of_int seed));
        ("traced", Json.Bool trace);
        ("nproc", Json.Number (float_of_int (Po_par.Pool.default_domains ())));
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ())) ];
    values = Hashtbl.create 64; attempted = 0; failed = 0 }

(* Every reported figure is one stdout row: the metric, its unit, the
   run's stamp and, for sampled metrics, the spread over the repeats. *)
let emit ctx ?samples name unit value =
  Hashtbl.replace ctx.values name (value, unit);
  let spread =
    match samples with
    | None -> []
    | Some xs when Array.length xs = 0 -> [ ("repeats", Json.Number 0.) ]
    | Some xs ->
        let s = Stats.summary xs in
        [ ("repeats", Json.Number (float_of_int s.Stats.n));
          ("min", Json.Number s.Stats.min); ("q1", Json.Number s.Stats.q1);
          ("median", Json.Number s.Stats.median);
          ("q3", Json.Number s.Stats.q3); ("max", Json.Number s.Stats.max) ]
  in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          ([ ("row", Json.String name); ("value", Json.Number value);
             ("unit", Json.String unit) ]
          @ spread @ ctx.stamp)))

let note ctx fmt =
  Printf.ksprintf
    (fun s -> Printf.printf "# %s: %s\n%!" ctx.workload s)
    fmt

(* A failed correctness check fails the operation it was made on. *)
let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] [n] times; the median of the durations is the reading, the
   last run's result is kept. *)
let median_time n f =
  let runs = Array.init n (fun _ -> time f) in
  let xs = Array.map snd runs in
  (Stats.median xs, xs, fst runs.(n - 1))

(* Run [f k] for k = 0, 1, ... while one more run is projected to end
   within [seconds]; at least once.  Returns the wall time. *)
let repeat_within ~seconds f =
  let t0 = now () in
  let rec go k =
    f k;
    let elapsed = now () -. t0 in
    if elapsed +. (elapsed /. float_of_int (k + 1)) <= seconds then go (k + 1)
  in
  go 0;
  now () -. t0

let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  float_of_int (get after - get before)

let ratio a b = if b > 0. then a /. b else 0.

let hist name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some (Metrics.Histogram { bounds; counts; sum }) -> Some (bounds, counts, sum)
  | _ -> None

(* Upper bound of the histogram bucket holding the nearest-rank p-th
   percentile ([infinity] for the overflow bucket, 0 when empty). *)
let hist_percentile p (bounds, counts, _) =
  let total = Array.fold_left ( + ) 0 counts in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int total)) in
  let rec go i acc =
    if i >= Array.length counts then infinity
    else
      let acc = acc + counts.(i) in
      if acc >= rank then
        if i < Array.length bounds then bounds.(i) else infinity
      else go (i + 1) acc
  in
  if total = 0 then 0. else go 0 0

(* Peak resident set of a process (default: this one), from the
   kernel's high-water mark. *)
let peak_rss_mb ?pid () =
  let status =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in status with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f"
              (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Bytes allocated by the calling domain, in MB. *)
let allocated_mb () = Gc.allocated_bytes () /. 1048576.

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* Arm the program's own counters and the tracer around a thunk, from a
   clean registry. *)
let traced f =
  Metrics.reset ();
  Po_obs.Trace.reset ();
  Metrics.arm ();
  Po_obs.Trace.arm ();
  Fun.protect
    ~finally:(fun () ->
      Po_obs.Trace.disarm ();
      Metrics.disarm ())
    f

let span = Po_obs.Trace.with_span

