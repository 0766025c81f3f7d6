type figure = {
  id : string;
  title : string;
  x_label : string;
  panels : (string * Po_report.Series.t list) list;
  notes : string list;
}

(* The figure a checkpointed sweep belongs to: its id, a per-figure
   sweep counter (figures call their sweeps in a fixed order, so the
   counter is a stable coordinate), and the journal files the figure has
   touched (removed on success).  Bound by {!with_figure_scope}; one
   scope is only ever used by the figure that created it. *)
type scope = {
  figure : string;
  mutable sweeps : int;
  mutable journals : string list;
}

type checkpoint = { dir : string; resume : bool; scope : scope option }

let checkpoint ~dir ~resume = { dir; resume; scope = None }

type params = {
  n_cps : int;
  seed : int;
  sweep_points : int;
  jobs : int;
  checkpoint : checkpoint option;
  sup : Po_sup.Supervise.policy;
}

(* Observability (DESIGN.md §11).  Sweep and checkpoint counters sit at
   the figure-scope level — one increment per logical sweep/journal
   event, independent of the worker count. *)
let m_sweeps = Po_obs.Metrics.counter "sweep.sweeps"

let m_journalled = Po_obs.Metrics.counter "sweep.chunks_journalled"

let m_replayed = Po_obs.Metrics.counter "sweep.journals_loaded"

let default_params =
  { n_cps = 1000; seed = 42; sweep_points = 33; jobs = 1; checkpoint = None;
    sup = Po_sup.Supervise.default }

let quick_params =
  { n_cps = 120; seed = 42; sweep_points = 9; jobs = 1; checkpoint = None;
    sup = Po_sup.Supervise.default }

(* One pool per process, resized only when [jobs] changes.  Worker
   domains park on a condition variable between sweeps, so keeping the
   pool alive across figures costs nothing; the at_exit handler joins
   them so the process never exits with domains mid-flight. *)
let cached_pool : (int * Po_par.Pool.t) option ref = ref None

let pool_mutex = Mutex.create ()

let shutdown_pool () =
  Mutex.protect pool_mutex (fun () ->
      Option.iter (fun (_, pool) -> Po_par.Pool.shutdown pool) !cached_pool;
      cached_pool := None)

let () = at_exit shutdown_pool

let pool params =
  if params.jobs <= 1 then None
  else
    Mutex.protect pool_mutex (fun () ->
        match !cached_pool with
        | Some (jobs, pool) when jobs = params.jobs -> Some pool
        | cached ->
            Option.iter (fun (_, pool) -> Po_par.Pool.shutdown pool) cached;
            let pool = Po_par.Pool.create ~domains:params.jobs () in
            cached_pool := Some (params.jobs, pool);
            Some pool)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    name

(* ------------------------------------------------------------------ *)
(* Crash-safe sweep checkpointing (DESIGN.md §10)                     *)
(*                                                                    *)
(* Every chunked sweep of the current figure journals each completed  *)
(* chunk to an append-only file keyed by (figure, sweep index, a hash *)
(* of the sweep geometry and the scenario parameters).  A resumed run *)
(* replays journalled chunks through the [cached] hook of the chunked *)
(* combinators — the chunk layout is a pure function of the input     *)
(* length and [chunk_size], never of [jobs], so a journal written     *)
(* under any worker count resumes bit-identically under any other.    *)
(* ------------------------------------------------------------------ *)

let with_figure_scope figure params f =
  let scope, params =
    match params.checkpoint with
    | None -> (None, params)
    | Some cp ->
        let scope = { figure; sweeps = 0; journals = [] } in
        ( Some scope,
          { params with checkpoint = Some { cp with scope = Some scope } } )
  in
  let result =
    Po_obs.Trace.with_span ~args:[ ("figure", figure) ] ("figure:" ^ figure)
      (fun () -> f params)
  in
  (* Success: the figure's journals have served their purpose. *)
  Option.iter
    (fun scope -> List.iter Po_report.Writer.remove_if_exists scope.journals)
    scope;
  result

let hex_encode s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    match
      String.init (n / 2) (fun i ->
          Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
    with
    | decoded -> Some decoded
    | exception (Failure _ | Invalid_argument _) -> None

(* Serialised appends: [on_chunk] fires concurrently from several
   domains, and interleaved writes would tear journal lines. *)
let journal_mutex = Mutex.create ()

(* FNV-1a 64-bit over a string — the per-line integrity check of the
   journal format.  Not cryptographic; it only needs to catch torn
   appends and bit rot, where any corruption almost surely changes the
   digest. *)
let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

(* Journal line format v2: [v2 <chunk> <len> <fnv64-hex> <hex(Marshal)>].
   [len] is the hex payload's length and the digest covers the hex
   payload, so a line torn anywhere — mid-payload or mid-prefix — fails
   validation before [Marshal.from_string] ever runs on it. *)
let journal_line ci r =
  let hex = hex_encode (Marshal.to_string r []) in
  Printf.sprintf "v2 %d %d %016Lx %s" ci (String.length hex) (fnv64 hex) hex

let parse_journal_line line =
  match String.split_on_char ' ' line with
  | [ "v2"; ci; len; sum; hex ] -> (
      match
        (int_of_string_opt ci, int_of_string_opt len,
         Int64.of_string_opt ("0x" ^ sum))
      with
      | Some ci, Some len, Some sum
        when len = String.length hex && Int64.equal sum (fnv64 hex) -> (
          match hex_decode hex with
          | Some data -> (
              (* Guarded by the digest, but keep the catches: a future
                 format bump could reuse the line shape. *)
              match Marshal.from_string data 0 with
              | v -> Some (ci, v)
              | exception (Failure _ | Invalid_argument _) -> None)
          | None -> None)
      | _ -> None)
  | _ -> None

let append_chunk path ci r =
  Po_obs.Metrics.incr m_journalled;
  Po_obs.Trace.instant ~args:[ ("chunk", string_of_int ci) ] "checkpoint";
  let line = journal_line ci r in
  Mutex.protect journal_mutex (fun () ->
      Po_report.Writer.append_line ~path line)

(* Journal load with torn-tail truncation: appends are atomic up to a
   crash, so only a {e suffix} of the file can be damaged.  Lines are
   validated in order (length prefix + FNV-1a digest, see
   {!journal_line}) and loading stops at the first bad one; everything
   after it is discarded and the file is rewritten to the surviving
   prefix, so later appends extend a clean journal instead of
   interleaving with the wreckage.  Lost chunks simply recompute —
   the file name's geometry hash plus the length check inside the
   chunked combinators remain the outer integrity guards. *)
let load_journal path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let tbl = Hashtbl.create 16 in
    let good = Buffer.create 256 in
    let torn = ref false in
    (try
       while not !torn do
         let line = input_line ic in
         match parse_journal_line line with
         | Some (ci, v) ->
             Hashtbl.replace tbl ci v;
             Buffer.add_string good line;
             Buffer.add_char good '\n'
         | None -> torn := true
       done
     with End_of_file -> ());
    close_in ic;
    if !torn then begin
      Po_guard.Warnings.emit
        (Printf.sprintf
           "Checkpoint journal %s has a torn or corrupt tail; truncated to \
            the last %d valid line(s)"
           path (Hashtbl.length tbl));
      Po_report.Writer.write_atomic ~path (Buffer.contents good)
    end;
    Some tbl
  end

let journal_path params ~figure ~sweep ~n ~chunk_size dir =
  (* [jobs] is deliberately absent: a journal written under any worker
     count must resume under any other. *)
  let hash =
    Hashtbl.hash
      ( params.n_cps, params.seed, params.sweep_points, n, chunk_size,
        figure, sweep )
  in
  Filename.concat dir
    (Printf.sprintf "%s__sweep%d__%08x.journal" (sanitize figure) sweep hash)

(* The [cached]/[on_chunk] hooks for the next sweep of the figure whose
   scope [params] carries, or [(None, None)] when checkpointing is off or
   no figure scope is bound (library callers outside the registry). *)
let journal_hooks params ~n ~chunk_size =
  match params.checkpoint with
  | Some { dir; resume; scope = Some scope } ->
      let sweep = scope.sweeps in
      scope.sweeps <- sweep + 1;
      let path =
        journal_path params ~figure:scope.figure ~sweep ~n ~chunk_size dir
      in
      scope.journals <- path :: scope.journals;
      if not resume then Po_report.Writer.remove_if_exists path;
      let cached =
        if resume then
          Option.map
            (fun tbl ->
              Po_obs.Metrics.incr m_replayed;
              fun ci -> Hashtbl.find_opt tbl ci)
            (load_journal path)
        else None
      in
      (cached, Some (fun ci r -> append_chunk path ci r))
  | Some { scope = None; _ } | None -> (None, None)

let default_chunk = 16

let sweep_par ?(chunk_size = default_chunk) params f arr =
  Po_obs.Metrics.incr m_sweeps;
  let cached, on_chunk =
    journal_hooks params ~n:(Array.length arr) ~chunk_size
  in
  Po_obs.Trace.with_span
    ~args:[ ("points", string_of_int (Array.length arr)) ]
    "sweep"
    (fun () ->
      Po_par.Pool.chunk_map ~chunk_size ~sup:params.sup ?cached ?on_chunk
        (pool params) ~f arr)

let sweep_chained ?(chunk_size = default_chunk) params ~step arr =
  Po_obs.Metrics.incr m_sweeps;
  let cached, on_chunk =
    journal_hooks params ~n:(Array.length arr) ~chunk_size
  in
  Po_obs.Trace.with_span
    ~args:[ ("points", string_of_int (Array.length arr)) ]
    "sweep_chained"
    (fun () ->
      Po_par.Pool.chain_map ~chunk_size ~sup:params.sup ?cached ?on_chunk
        (pool params) ~step arr)

let sweep_serpentine ?chunk_size params ~rows ~cols ~step =
  let n_rows = Array.length rows and n_cols = Array.length cols in
  if n_rows = 0 || n_cols = 0 then Array.make n_rows [||]
  else begin
    (* Boustrophedon flat order: row 0 left-to-right, row 1 right-to-left,
       ... — consecutive flat positions are always adjacent grid points,
       including across row boundaries, so warm-start chains stay warm
       through the whole grid instead of restarting every row. *)
    let serp r j = if r mod 2 = 0 then j else n_cols - 1 - j in
    let flat =
      Array.init (n_rows * n_cols) (fun k ->
          let r = k / n_cols in
          (r, serp r (k mod n_cols)))
    in
    let results =
      sweep_chained ?chunk_size params
        ~step:(fun prev (r, j) -> step prev rows.(r) cols.(j))
        flat
    in
    (* Scatter back to row-major: the value of (row r, col j) sits at flat
       position r * n_cols + serp r j. *)
    Array.init n_rows (fun r ->
        Array.init n_cols (fun j -> results.((r * n_cols) + serp r j)))
  end

let ensemble ?phi params =
  Po_workload.Ensemble.paper_ensemble ~n:params.n_cps ?phi
    ?pool:(pool params) ~seed:params.seed ()

let render ?(plots = true) figure =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s ==\n" figure.id figure.title);
  List.iter
    (fun (panel_name, series) ->
      Buffer.add_string buf (Printf.sprintf "\n-- %s --\n" panel_name);
      Buffer.add_string buf
        (Po_report.Table.of_series ~precision:4 ~x_header:figure.x_label
           series);
      if plots then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf
          (Po_report.Asciiplot.render ~width:64 ~height:14 series)
      end)
    figure.panels;
  if figure.notes <> [] then begin
    Buffer.add_string buf "\nNotes:\n";
    List.iter
      (fun note -> Buffer.add_string buf (Printf.sprintf "  - %s\n" note))
      figure.notes
  end;
  Buffer.contents buf

let csv_files ~dir figure =
  List.map
    (fun (panel_name, series) ->
      let path =
        Filename.concat dir
          (Printf.sprintf "%s_%s.csv" figure.id (sanitize panel_name))
      in
      Po_report.Csv.write_file ~path
        (Po_report.Csv.of_series ~x_header:figure.x_label series);
      path)
    figure.panels
