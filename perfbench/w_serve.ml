(* serve-mixed: a [Po_serve.Server] daemon under an open loop.  One
   generator thread multiplexes two connections: connection 0 carries a
   background stream of cold [regimes] misses, connection 1 the fast path
   (pings and cached [equilibrium]/[surplus] answers) at stepped rates.
   Every request is timed from the instant it was due. *)

open Common
module Request = Po_serve.Request
module Engine = Po_serve.Engine
module Server = Po_serve.Server

let rates = [ 20.; 50.; 100. ]
let limit_ms = 50.  (* fast-path latency limit on the p90 of a step *)
let lag_limit_ms = 10.  (* a step driven later than this is not judged *)
(* One miss every 6 s.  The 2-domain daemon's n=20 solves take 1.0-1.6 s
   from run to run; at one every 3 s they block the fast path 33-53% of
   the time, and the fast-path readings swing with that share. *)
let miss_every_s = 6.
let pool_size = 8

let line = W_regimes.query_line

(* The fast path's markets: the scenario pool of [Po_serve.Loadgen],
   the repository's own traffic model (n_cps 20 + 5i, seed 1000 + i,
   nu_frac 0.85). *)
let scenario i =
  { Request.n_cps = 20 + (5 * i); seed = 1000 + i; nu_frac = 0.85 }

(* The fast path's working set, in the proportions Loadgen draws its
   queries with its regimes share left out (that share is the misses'
   connection): 1 ping to 3 equilibrium to 2 surplus. *)
let ping = line Request.Ping
let equilibrium = Array.init pool_size (fun i -> line (Request.Equilibrium (scenario i)))
let surplus = Array.init pool_size (fun i -> line (Request.Surplus (scenario i)))
let pool = Array.concat [ [| ping |]; equilibrium; surplus ]

let draw rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 6 with
  | 0 -> ping
  | 1 | 2 | 3 -> pick equilibrium
  | _ -> pick surplus

(* The i-th background miss: a distinct market of 20 CPs.  The misses
   are the same for every workload seed, like regimes-cold's market set:
   their solve times set how long the fast path is blocked, and a
   seeded draw would measure the draw. *)
let miss_line i =
  W_regimes.regimes_line
    { Request.default_scenario with Request.n_cps = 20; seed = 101 + i }

(* Golden answers cover this many misses: at one every [miss_every_s],
   runs of up to two minutes. *)
let golden_misses = 20

let golden_requests () =
  Array.to_list pool @ List.init golden_misses miss_line

type req = {
  conn : int;  (* 0: misses, 1: fast path *)
  step : int;  (* rate step of a fast request; -1 for misses *)
  text : string;
  due : float;
  mutable sent : float;
  mutable answered : float;
  mutable resp : string option;
}

(* The load plan relative to t = 0: each rate step in turn on the fast
   path, and a miss every [miss_every_s] throughout. *)
let plan seed ~step_s =
  let rng = Random.State.make [| seed; 7 |] in
  let fast =
    List.concat
      (List.mapi
         (fun k rate ->
           Array.to_list
             (Array.map
                (fun t ->
                  { conn = 1; step = k;
                    text = draw rng;
                    due = t; sent = nan; answered = nan; resp = None })
                (Openloop.schedule ~start:(float_of_int k *. step_s) ~rate
                   ~duration:step_s)))
         rates)
  in
  let total = step_s *. float_of_int (List.length rates) in
  let misses =
    List.init
      (1 + int_of_float (Float.max 0. (total -. 0.5) /. miss_every_s))
      (fun i ->
        { conn = 0; step = -1; text = miss_line i;
          due = 0.5 +. (float_of_int i *. miss_every_s); sent = nan;
          answered = nan; resp = None })
  in
  Array.of_list
    (List.stable_sort (fun a b -> Float.compare a.due b.due) (misses @ fast))

(* A client connection: its socket, bytes read but not yet a whole
   line, bytes not yet accepted by the socket, and the requests awaiting
   an answer, oldest first. *)
type client = {
  fd : Unix.file_descr;
  carry : Buffer.t;
  out : Buffer.t;
  waiting : req Queue.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; carry = Buffer.create 4096; out = Buffer.create 4096;
    waiting = Queue.create () }

(* Hand pending bytes to a non-blocking socket, keeping what it refuses:
   a daemon that stops reading must not stall the generator. *)
let flush c =
  let s = Buffer.contents c.out in
  if s <> "" then
    match Unix.single_write_substring c.fd s 0 (String.length s) with
    | n ->
        Buffer.clear c.out;
        Buffer.add_string c.out (String.sub s n (String.length s - n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()

let chunk = Bytes.create 65536

(* Read what is available and complete the oldest waiting requests, one
   per whole line; false on end of stream. *)
let receive c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.carry chunk 0 n;
      let s = Buffer.contents c.carry in
      let rec lines from =
        match String.index_from_opt s from '\n' with
        | None ->
            Buffer.clear c.carry;
            Buffer.add_string c.carry
              (String.sub s from (String.length s - from))
        | Some i ->
            (match Queue.take_opt c.waiting with
            | Some r ->
                r.answered <- now ();
                r.resp <- Some (String.sub s from (i - from))
            | None -> ());
            lines (i + 1)
      in
      lines 0;
      true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true

(* One request, answered before returning. *)
let call c text =
  let r =
    { conn = 0; step = -1; text; due = now (); sent = now (); answered = nan;
      resp = None }
  in
  Queue.push r c.waiting;
  Po_serve.Lineio.write_line c.fd text;
  while r.resp = None && receive c do () done;
  r

(* The daemon runs in a child process, as [ponet serve] does.  In this
   process the generator would share the daemon's runtime: as a thread
   of the daemon's domain it waits for the runtime lock behind the
   dispatcher's solves, and as a domain of its own it slows those solves
   1.5-4x through stop-the-world collections on 2 cores. *)
type daemon = {
  pid : int;
  dir : string;
  clients : client array;
  mutable rss_mb : float;  (* the daemon's peak resident set, read at stop *)
}

let snapshot_file dir = Filename.concat dir "metrics.json"

(* Connect, retrying while the child has not bound or listened yet. *)
let rec connect_when_up ~pid path tries =
  match connect path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 ->
      Unix.sleepf 0.005;
      connect_when_up ~pid path (tries - 1)

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()  (* already reaped *)
  in
  wait ()

let start ctx ~k =
  let dir = Filename.concat ctx.tmp (Printf.sprintf "daemon%d" k) in
  Po_report.Writer.mkdir_p dir;
  let cfg =
    { Server.default_config with
      Server.socket_path = Filename.concat dir "serve.sock"; domains = 2;
      snapshot_path = Some (snapshot_file dir) }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try Server.run cfg with _ -> ());
      Unix._exit 0
  | pid -> (
      match
        let clients =
          Array.init 2 (fun _ ->
              connect_when_up ~pid cfg.Server.socket_path 2000)
        in
        (* Pre-warm the fast path's answers into the cache. *)
        Array.iter (fun text -> ignore (call clients.(1) text)) pool;
        clients
      with
      | clients -> { pid; dir; clients; rss_mb = 0. }
      | exception e ->
          kill_and_wait pid;
          raise e)

(* Close the connections, then SIGTERM: the daemon drains, writes its
   metrics snapshot and exits; wait for it. *)
let stop d =
  Array.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
    d.clients;
  d.rss_mb <- peak_rss_mb ~pid:d.pid ();
  kill_and_wait d.pid

(* The daemon's metrics snapshot, written at shutdown. *)
let snapshot d =
  match Json.of_string (read_file (snapshot_file d.dir)) with
  | Ok doc -> Json.member "metrics" doc
  | Error _ | (exception Sys_error _) -> None

let snapshot_value metrics section name =
  Option.bind (Option.bind metrics (Json.member section)) (Json.member name)

(* Drive the plan open-loop; returns the drain wall time.  Unanswered
   requests stay [resp = None]. *)
let drive d reqs =
  let t0 = now () +. 0.05 in
  let n = Array.length reqs in
  let drain_cap = 60. in
  let outstanding () =
    Array.exists (fun c -> not (Queue.is_empty c.waiting)) d.clients
  in
  Array.iter (fun c -> Unix.set_nonblock c.fd) d.clients;
  let rec loop next =
    let t = now () in
    let next = ref next in
    while !next < n && t0 +. reqs.(!next).due <= now () do
      let r = reqs.(!next) in
      let c = d.clients.(r.conn) in
      r.sent <- now () -. t0;
      Queue.push r c.waiting;
      Buffer.add_string c.out r.text;
      Buffer.add_char c.out '\n';
      incr next
    done;
    Array.iter flush d.clients;
    let last_due = if n = 0 then 0. else reqs.(n - 1).due in
    if !next >= n && ((not (outstanding ())) || t -. t0 > last_due +. drain_cap)
    then ()
    else begin
      let timeout =
        if !next < n then Float.max 0. (t0 +. reqs.(!next).due -. now ())
        else 0.1
      in
      let fds = Array.to_list (Array.map (fun c -> c.fd) d.clients) in
      let pending =
        List.filter_map
          (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
          (Array.to_list d.clients)
      in
      (match Unix.select fds pending [] timeout with
      | ready, _, _ ->
          Array.iter
            (fun c -> if List.memq c.fd ready then ignore (receive c))
            d.clients
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop !next
    end
  in
  loop 0;
  Array.iter
    (fun r -> if r.resp <> None then r.answered <- r.answered -. t0)
    reqs;
  now () -. t0

let sample r = { Openloop.due = r.due; sent = r.sent; answered = r.answered }
let latency_ms r = Openloop.latency (sample r) *. 1000.

let ok_response r =
  match r.resp with
  | None -> false
  | Some l -> (
      match Request.response_of_line l with Ok (Ok _) -> true | _ -> false)

(* Correctness: every answer is a success and byte-identical to its
   golden line.  Ordering violations among the misses are counted. *)
let check_answers ctx golden reqs =
  let violations = ref 0 in
  Array.iter
    (fun r ->
      match r.resp with
      | None -> check ctx false (Printf.sprintf "no answer to %s" r.text)
      | Some response -> (
          check ctx (ok_response r) ("error response: " ^ response);
          Golden.check ctx golden ~request:r.text ~response;
          match Request.response_of_line response with
          | Ok (Ok json) when r.conn = 0 && not (W_regimes.ordering_holds json) ->
              incr violations
          | _ -> ()))
    reqs;
  emit ctx "regimes.ordering_violations" "count" (float_of_int !violations)

(* Whether fast request [r] was in flight while no miss was: from its
   due time to its answer, no miss had been sent and not yet answered. *)
let clear misses r =
  List.for_all
    (fun m ->
      let answered = if m.resp = None then infinity else m.answered in
      r.answered < m.sent || r.due > answered)
    misses

let summarise ctx reqs ~wall =
  let all = Array.to_list reqs in
  let fast = List.filter (fun r -> r.conn = 1) all in
  let misses = List.filter (fun r -> r.conn = 0) all in
  let lat rs = Array.of_list (List.map latency_ms rs) in
  let steps =
    List.mapi
      (fun k rate ->
        let rs = List.filter (fun r -> r.step = k) fast in
        let answered = List.filter (fun r -> r.resp <> None) rs in
        { Openloop.rate;
          p90_ms =
            (if answered = [] then infinity
             else Stats.percentile 90. (lat answered));
          failed = List.length (List.filter (fun r -> not (ok_response r)) rs);
          lag_ms_max =
            List.fold_left
              (fun m r -> Float.max m (Openloop.lag (sample r) *. 1000.))
              0. rs })
      rates
  in
  List.iter
    (fun (s : Openloop.step) ->
      note ctx "step %.0f req/s: p90 %.1f ms, %d failed, generator lag max %.2f ms"
        s.Openloop.rate s.Openloop.p90_ms s.Openloop.failed
        s.Openloop.lag_ms_max)
    steps;
  let answered = List.filter (fun r -> r.resp <> None) fast in
  let fast_lat = lat answered in
  let clear_lat = lat (List.filter (clear misses) answered) in
  let good =
    List.length (List.filter (fun r -> ok_response r && latency_ms r <= limit_ms) fast)
  in
  let miss_s =
    Array.of_list
      (List.filter_map
         (fun r -> if r.resp <> None then Some (latency_ms r /. 1000.) else None)
         misses)
  in
  note ctx "%d of %d answered fast requests were clear of misses"
    (Array.length clear_lat) (Array.length fast_lat);
  if clear_lat <> [||] then
    emit ctx ~samples:clear_lat "latency_ms" "ms" (Stats.median clear_lat);
  if fast_lat <> [||] then begin
    emit ctx ~samples:fast_lat "serve.fast_ms_p50" "ms" (Stats.median fast_lat);
    emit ctx ~samples:fast_lat "serve.fast_ms_p99" "ms"
      (Stats.percentile 99. fast_lat)
  end;
  if miss_s <> [||] then
    emit ctx ~samples:miss_s "serve.miss_s_p50" "s" (Stats.median miss_s);
  emit ctx "serve.max_ok_rate_rps" "1/s"
    (Openloop.max_ok_rate ~limit_ms ~lag_limit_ms steps);
  emit ctx "ops_per_s" "1/s" (float_of_int good /. wall);
  List.fold_left
    (fun m (s : Openloop.step) -> Float.max m s.Openloop.lag_ms_max)
    0. steps

(* One [Engine.eval] of a request line, timed: its service time. *)
let service_s text =
  match Request.of_line text with
  | Ok req -> snd (time (fun () -> Engine.eval req.Request.query))
  | Error e -> failwith ("perfbench: " ^ e.Request.message)

(* Per-layer readings of a run: the daemon's own counters, queue-depth
   gauge and latency histogram come from the metrics snapshot it writes
   at shutdown; request parse and the engine's service times from
   calling them directly.  The daemon is another process and is not
   traced, so trace.overhead_share is not reported here. *)
let emit_layers ctx d reqs ~lag_max ~alloc_per_op =
  let metrics = snapshot d in
  let num section name =
    Option.value ~default:0.
      (Option.bind (snapshot_value metrics section name) Json.to_float)
  in
  let parse_reps = 20_000 in
  let (), parse_s =
    time (fun () ->
        for i = 1 to parse_reps do
          ignore (Request.of_line pool.(i mod Array.length pool))
        done)
  in
  let service = Hashtbl.create 32 in
  Array.iter (fun text -> Hashtbl.replace service text (service_s text)) pool;
  let service_ms lines =
    Stats.mean (Array.map (fun t -> Hashtbl.find service t *. 1000.) lines)
  in
  let waits =
    Array.of_list
      (List.filter_map
         (fun r ->
           if r.conn = 1 && r.resp <> None then
             Some (latency_ms r -. (Hashtbl.find service r.text *. 1000.))
           else None)
         (Array.to_list reqs))
  in
  let hits = num "counters" "serve.cache_hits" in
  let misses = num "counters" "serve.cache_misses" in
  emit ctx "gc.alloc_mb_per_op" "MB" alloc_per_op;
  emit ctx "loadgen.lag_ms_max" "ms" lag_max;
  emit ctx "request.parse_us" "us" (parse_s *. 1e6 /. float_of_int parse_reps);
  emit ctx "cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
  emit ctx "server.queue_depth_peak" "count"
    (num "gauges" "serve.queue_depth_peak");
  (match snapshot_value metrics "histograms" "serve.latency_s" with
  | Some h ->
      let floats k =
        Option.value ~default:[]
          (Option.map
             (List.filter_map Json.to_float)
             (Option.bind (Json.member k h) Json.to_list))
      in
      let bounds = Array.of_list (floats "le") in
      let counts = Array.of_list (List.map int_of_float (floats "counts")) in
      emit ctx "server.latency_ms_p99" "ms"
        (hist_percentile 99. (bounds, counts, 0.) *. 1000.)
  | None -> ());
  emit ctx ~samples:waits "server.queue_wait_ms_p99_est" "ms"
    (if waits = [||] then 0. else Stats.percentile 99. waits);
  emit ctx "engine.equilibrium_ms" "ms" (service_ms equilibrium);
  emit ctx "engine.surplus_ms" "ms" (service_ms surplus);
  emit ctx "engine.regimes_s" "s" (service_s (miss_line 0))

let setup_repeats = 5

let run ctx =
  let golden = Golden.load () in
  let daemon = ref None in
  let stop_daemon () =
    Option.iter stop !daemon;
    daemon := None
  in
  (* Each set-up is timed from a stopped daemon to a warm one. *)
  let start_daemon k =
    stop_daemon ();
    snd (time (fun () -> daemon := Some (start ctx ~k)))
  in
  Fun.protect ~finally:stop_daemon (fun () ->
      let setups = Array.init setup_repeats start_daemon in
      emit ctx ~samples:setups "setup_s" "s" (Stats.median setups);
      let step_s = ctx.seconds /. float_of_int (List.length rates) in
      let d = Option.get !daemon in
      let reqs = plan ctx.seed ~step_s in
      let alloc0 = allocated_mb () in
      let wall = drive d reqs in
      let alloc_per_op =
        (allocated_mb () -. alloc0) /. float_of_int (Array.length reqs)
      in
      stop_daemon ();
      emit ctx "peak_rss_mb" "MB" d.rss_mb;
      let lag_max = summarise ctx reqs ~wall in
      check_answers ctx golden reqs;
      if ctx.trace then emit_layers ctx d reqs ~lag_max ~alloc_per_op)
