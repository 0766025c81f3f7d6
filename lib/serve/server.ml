(* The scenario-query daemon (DESIGN.md §14).

   Thread/domain layout:

   - one {e listener} systhread accepts on the Unix-domain socket,
     polling a stop flag every 100 ms through [Unix.select];
   - one systhread {e per connection} frames requests with [Lineio],
     parses them ([Request.of_line]), admits them to the bounded queue
     and blocks on the job's reply cell — the protocol is synchronous
     per connection, concurrency comes from having many connections;
   - one {e dispatcher} systhread drains the queue in batches of up to
     [batch_max], answers repeats from the LRU cache, and fans every
     miss, whatever its query kind, out over the domain pool through
     [Engine.eval].

   The cache and metrics are thread-safe; the job queue and each job's
   reply cell use their own mutex/condition pairs.  Signal handlers
   only flip an [Atomic] (async-signal-safe); the drain sequence runs
   in [stop], on whichever thread called it. *)

module Clock = Po_obs.Clock
module Metrics = Po_obs.Metrics
module Json = Po_obs.Json

type config = {
  socket_path : string;
  domains : int;  (* solver parallelism of the batch pool *)
  queue_capacity : int;  (* admission bound; beyond it requests shed *)
  batch_max : int;  (* max jobs drained per dispatch round *)
  cache_capacity : int;  (* LRU entries; <= 0 disables the cache *)
  default_deadline_s : float option;  (* for requests that set none *)
  max_request_bytes : int;
  access_log : string option;  (* request journal via Po_report.Writer *)
  snapshot_path : string option;  (* shutdown metrics+manifest export *)
  hold_s : float;
      (* test hook: dispatcher pause before each batch, so tests and CI
         can fill the admission queue deterministically *)
}

let default_config =
  { socket_path = "ponet.sock"; domains = 2; queue_capacity = 64;
    batch_max = 16; cache_capacity = 256; default_deadline_s = Some 30.;
    max_request_bytes = 65536; access_log = None; snapshot_path = None;
    hold_s = 0. }

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let m_connections = Metrics.counter "serve.connections"
let m_requests = Metrics.counter "serve.requests"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_cache_misses = Metrics.counter "serve.cache_misses"
let m_errors = Metrics.counter "serve.errors"
let m_overloaded = Metrics.counter "serve.overloaded"
let m_queue_depth = Metrics.gauge "serve.queue_depth_peak"
let m_latency = Metrics.histogram "serve.latency_s"

(* ------------------------------------------------------------------ *)
(* Jobs and the admission queue                                       *)
(* ------------------------------------------------------------------ *)

type job = {
  req : Request.t;
  budget : Po_sup.Budget.t option;
  t0 : float;  (* admission instant, for the latency histogram *)
  jm : Mutex.t;
  jc : Condition.t;
  mutable reply : string option;  (* rendered response line *)
}

(* One live connection.  [closed] and list membership are guarded by
   [conns_m]: the connection thread closes its own fd and removes its
   entry when the peer goes away, and [stop] shuts down whatever is
   still registered — the flag keeps the two from ever touching a
   descriptor number the kernel may have reassigned. *)
type conn = {
  c_fd : Unix.file_descr;
  mutable c_th : Thread.t option;  (* set right after spawn *)
  mutable c_closed : bool;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  pool : Po_par.Pool.t;
  cache : Cache.t;
  queue : job Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  mutable accepting : bool;  (* guarded by [qm] *)
  mutable queue_peak : int;  (* guarded by [qm]; feeds the peak gauge *)
  stop_flag : bool Atomic.t;
  mutable listener : Thread.t option;
  mutable dispatcher : Thread.t option;
  conns_m : Mutex.t;
  mutable conns : conn list;
  log_m : Mutex.t;  (* serialises access-log appenders *)
  started_s : float;
  mutable stopped : bool;
}

let fulfill job line =
  Mutex.protect job.jm (fun () ->
      job.reply <- Some line;
      Condition.signal job.jc)

let await job =
  Mutex.protect job.jm (fun () ->
      let rec wait () =
        match job.reply with
        | Some line -> line
        | None ->
            Condition.wait job.jc job.jm;
            wait ()
      in
      wait ())

let submit t job =
  Mutex.protect t.qm (fun () ->
      if not t.accepting then Error Request.shutting_down
      else
        let depth = Queue.length t.queue in
        if depth >= t.cfg.queue_capacity then begin
          Metrics.incr m_overloaded;
          Error
            (Request.overloaded ~queue_depth:depth
               ~capacity:t.cfg.queue_capacity)
        end
        else begin
          Queue.push job t.queue;
          (* The gauge is a running peak: only a new maximum moves it,
             so a later shallow admission can't overwrite the high-water
             mark. *)
          if depth + 1 > t.queue_peak then begin
            t.queue_peak <- depth + 1;
            Metrics.set m_queue_depth (float_of_int t.queue_peak)
          end;
          Condition.signal t.qc;
          Ok ()
        end)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                         *)
(* ------------------------------------------------------------------ *)

let finish t (job, key) resp =
  let line = Request.response_line resp in
  (match (resp, key) with
  | Ok _, Some k -> Cache.add t.cache k line
  | Ok _, None -> ()
  | Error _, _ -> Metrics.incr m_errors);
  Metrics.observe m_latency (Clock.now_s () -. job.t0);
  fulfill job line

let eval_one (job, _) = Engine.eval ?budget:job.budget job.req.Request.query

let process t batch =
  (* Cache pass: answer repeats with the stored bytes.  Two identical
     queries in one batch both miss and both solve — their results are
     bit-identical by the determinism contract, so the cache converges
     regardless of which lands last. *)
  let misses =
    List.filter_map
      (fun job ->
        match Request.cache_key job.req with
        | Some key -> (
            match Cache.find t.cache key with
            | Some line ->
                Metrics.incr m_cache_hits;
                Metrics.observe m_latency (Clock.now_s () -. job.t0);
                fulfill job line;
                None
            | None ->
                Metrics.incr m_cache_misses;
                Some (job, Some key))
        | None -> Some (job, None))
      batch
    |> Array.of_list
  in
  let results =
    if Array.length misses > 1 && Po_par.Pool.domains t.pool > 1 then
      match Po_par.Pool.parallel_map t.pool eval_one misses with
      | results -> results
      | exception Po_guard.Po_error.Error e ->
          (* [Engine.eval] never raises, so this is a pool-level failure
             (e.g. Worker_crash on a dying domain): answer the whole
             batch with the typed error rather than dropping replies. *)
          Array.map (fun _ -> Error (Request.error_of_po e)) misses
    else Array.map eval_one misses
  in
  Array.iteri (fun i resp -> finish t misses.(i) resp) results

let rec dispatch_loop t =
  let batch =
    Mutex.protect t.qm (fun () ->
        while Queue.is_empty t.queue && t.accepting do
          Condition.wait t.qc t.qm
        done;
        let n = min t.cfg.batch_max (Queue.length t.queue) in
        List.init n (fun _ -> Queue.pop t.queue))
  in
  match batch with
  | [] -> ()  (* queue empty and no longer accepting: drain complete *)
  | batch ->
      if t.cfg.hold_s > 0. then Clock.sleep_s t.cfg.hold_s;
      process t batch;
      dispatch_loop t

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

(* Derived from the renderer rather than spelled out, so a whitespace
   change in [Json.to_string] cannot silently break the log's ok flag. *)
let ok_prefix =
  let s = Json.to_string ~indent:0 (Json.Obj [ ("ok", Json.Bool true) ]) in
  String.sub s 0 (String.length s - 1)

let access_log t ~qname ~t0 line =
  match t.cfg.access_log with
  | None -> ()
  | Some path ->
      let ok =
        String.length line >= String.length ok_prefix
        && String.sub line 0 (String.length ok_prefix) = ok_prefix
      in
      let entry =
        Json.to_string ~indent:0
          (Json.Obj
             [ ("t", Json.Number t0);
               ("query", Json.String qname);
               ("ok", Json.Bool ok);
               ("ms", Json.Number ((Clock.now_s () -. t0) *. 1000.)) ])
      in
      (* Writer appends are not atomic across concurrent appenders;
         serialise the connection threads here. *)
      Mutex.protect t.log_m (fun () ->
          Po_report.Writer.append_line ~path entry)

let handle t (req : Request.t) =
  let deadline =
    match req.Request.deadline_s with
    | Some d -> Some d
    | None -> t.cfg.default_deadline_s
  in
  (* The budget starts at admission, so queue wait counts against the
     deadline — an overloaded server answers [deadline_exceeded] rather
     than solving work the client has already given up on. *)
  let budget = Option.map (fun d -> Po_sup.Budget.start ~deadline:d ()) deadline in
  let job =
    { req; budget; t0 = Clock.now_s (); jm = Mutex.create ();
      jc = Condition.create (); reply = None }
  in
  match submit t job with
  | Error e ->
      let line = Request.response_line (Error e) in
      Metrics.observe m_latency (Clock.now_s () -. job.t0);
      line
  | Ok () -> await job

(* Close the connection's fd and drop it from the registry.  Safe to
   race with [stop]: both sides take [conns_m] and test [c_closed], so
   the fd is closed exactly once and never shut down after a close
   could have let the kernel reuse its number. *)
let deregister t c =
  Mutex.protect t.conns_m (fun () ->
      if not c.c_closed then begin
        c.c_closed <- true;
        try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ()
      end;
      t.conns <- List.filter (fun c' -> c' != c) t.conns)

let conn_loop t c =
  let fd = c.c_fd in
  let reader = Lineio.reader fd in
  let rec loop () =
    match Lineio.read_line ~max_bytes:t.cfg.max_request_bytes reader with
    | Lineio.Eof -> ()
    | Lineio.Oversized ->
        (* Framing is lost beyond this point; answer and close. *)
        Metrics.incr m_requests;
        Metrics.incr m_errors;
        let e =
          Request.invalid_request
            (Printf.sprintf "request exceeds %d bytes"
               t.cfg.max_request_bytes)
        in
        (try Lineio.write_line fd (Request.response_line (Error e))
         with Unix.Unix_error (_, _, _) -> ())
    | Lineio.Line line ->
        Metrics.incr m_requests;
        let t0 = Clock.now_s () in
        let qname, resp =
          match Request.of_line line with
          | Error e ->
              Metrics.incr m_errors;
              ("invalid", Request.response_line (Error e))
          | Ok req -> (Request.query_name req.Request.query, handle t req)
        in
        access_log t ~qname ~t0 resp;
        (match Lineio.write_line fd resp with
        | () -> loop ()
        | exception Unix.Unix_error (_, _, _) -> ())
  in
  loop ();
  deregister t c

(* ------------------------------------------------------------------ *)
(* Listener                                                           *)
(* ------------------------------------------------------------------ *)

let rec listen_loop t =
  if not (Atomic.get t.stop_flag) then begin
    (match Unix.select [ t.lsock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.lsock with
        | fd, _ ->
            Metrics.incr m_connections;
            (* Register before spawning, so the connection thread's
               [deregister] always finds its own entry. *)
            let c = { c_fd = fd; c_th = None; c_closed = false } in
            Mutex.protect t.conns_m (fun () -> t.conns <- c :: t.conns);
            let th = Thread.create (fun () -> conn_loop t c) () in
            Mutex.protect t.conns_m (fun () -> c.c_th <- Some th)
        | exception Unix.Unix_error (_, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    listen_loop t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let start cfg =
  (* A peer that closes its socket before reading the response would
     otherwise deliver SIGPIPE on our next write, whose default
     disposition kills the whole daemon — ignoring it turns those
     writes into EPIPE, which every write site already catches as
     [Unix.Unix_error]. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Metrics.arm ();
  Po_report.Writer.mkdir_p (Filename.dirname cfg.socket_path);
  Po_report.Writer.remove_if_exists cfg.socket_path;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen lsock 64;
  let t =
    { cfg; lsock; pool = Po_par.Pool.create ~domains:cfg.domains ();
      cache = Cache.create ~capacity:cfg.cache_capacity;
      queue = Queue.create (); qm = Mutex.create (); qc = Condition.create ();
      accepting = true; queue_peak = 0; stop_flag = Atomic.make false;
      listener = None;
      dispatcher = None; conns_m = Mutex.create (); conns = [];
      log_m = Mutex.create (); started_s = Clock.now_s (); stopped = false }
  in
  t.listener <- Some (Thread.create (fun () -> listen_loop t) ());
  t.dispatcher <- Some (Thread.create (fun () -> dispatch_loop t) ());
  t

let socket_path t = t.cfg.socket_path

let request_stop t = Atomic.set t.stop_flag true

let export_snapshot t =
  match t.cfg.snapshot_path with
  | None -> ()
  | Some path ->
      let params_hash =
        Po_obs.Manifest.params_hash_kv
          [ ("domains", string_of_int t.cfg.domains);
            ("queue_capacity", string_of_int t.cfg.queue_capacity);
            ("batch_max", string_of_int t.cfg.batch_max);
            ("cache_capacity", string_of_int t.cfg.cache_capacity) ]
      in
      let manifest =
        Po_obs.Manifest.make ~figure:"serve" ~params_hash
          ~jobs:t.cfg.domains
          ~wall_s:(Clock.now_s () -. t.started_s)
          ~warnings:(Po_guard.Warnings.count ()) ()
      in
      let body =
        Json.Obj
          [ ("schema", Json.String "po-serve-metrics-v1");
            ("manifest", Po_obs.Manifest.to_json manifest);
            ("metrics", Metrics.snapshot_json ()) ]
      in
      Po_report.Writer.write_atomic ~path (Json.to_string ~indent:2 body)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (match t.listener with Some th -> Thread.join th | None -> ());
    (* No new connections past this point.  Stop admitting, then let the
       dispatcher drain what was already queued. *)
    Mutex.protect t.qm (fun () ->
        t.accepting <- false;
        Condition.broadcast t.qc);
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    (* Every admitted job has been answered; unblock connection threads
       still parked in [read_line] and collect them.  Shutdown happens
       under [conns_m] and only on entries not yet closed, so a thread
       that deregistered concurrently can't leave us poking a
       descriptor number the kernel already reassigned. *)
    let conns =
      Mutex.protect t.conns_m (fun () ->
          List.iter
            (fun c ->
              if not c.c_closed then
                try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error (_, _, _) -> ())
            t.conns;
          t.conns)
    in
    List.iter
      (fun c -> match c.c_th with Some th -> Thread.join th | None -> ())
      conns;
    (try Unix.close t.lsock with Unix.Unix_error (_, _, _) -> ());
    export_snapshot t;
    Po_par.Pool.shutdown t.pool;
    Po_report.Writer.remove_if_exists t.cfg.socket_path
  end

let run cfg =
  let t = start cfg in
  let on_signal _ = Atomic.set t.stop_flag true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let rec wait_for_stop () =
    if Atomic.get t.stop_flag then ()
    else begin
      Clock.sleep_s 0.1;
      wait_for_stop ()
    end
  in
  wait_for_stop ();
  stop t;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int
