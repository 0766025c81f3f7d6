(* Domain-safe metrics registry (DESIGN.md §11).

   Counters, gauges and fixed-bucket histograms are registered once
   (typically at module initialisation) and updated through handles.
   Updates go to a per-domain {e shard} (Domain.DLS), so the hot paths
   never contend on a lock; a snapshot merges all shards with
   commutative operations — counters and histogram buckets sum, gauges
   take the max — so the merged reading is independent of which domain
   did which chunk of work.  Because the chunked sweep combinators give
   every chunk a jobs-invariant layout (DESIGN.md §6), counter snapshots
   are bit-identical for any --jobs (test/test_obs.ml pins this).

   Disarmed — the only state production runs see unless --metrics or
   --trace is passed — every update is a single atomic load, the same
   pattern as Po_guard.Faultinject. *)

let armed_flag = Atomic.make false

let arm () = Atomic.set armed_flag true

let disarm () = Atomic.set armed_flag false

let armed () = Atomic.get armed_flag

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

type counter = int (* slot in shard.counters *)

type gauge = int (* slot in shard.gauges *)

type histogram = int (* slot in shard.hist_counts / hist_sums *)

type kind = Kcounter | Kgauge | Khistogram

(* Shared by registration and snapshotting; updates never take it. *)
let registry_mutex = Mutex.create ()

let names : (string, kind * int) Hashtbl.t = Hashtbl.create 64

let counter_names : string list ref = ref [] (* reverse slot order *)

let gauge_names : string list ref = ref []

let hist_names : string list ref = ref []

let hist_bounds : float array list ref = ref [] (* reverse slot order *)

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

let register name kind make =
  locked (fun () ->
      match Hashtbl.find_opt names name with
      | Some (k, slot) when k = kind -> slot
      | Some (k, _) ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name
               (kind_name k))
      | None ->
          let slot = make () in
          Hashtbl.replace names name (kind, slot);
          slot)

let counter name : counter =
  register name Kcounter (fun () ->
      counter_names := name :: !counter_names;
      List.length !counter_names - 1)

let gauge name : gauge =
  register name Kgauge (fun () ->
      gauge_names := name :: !gauge_names;
      List.length !gauge_names - 1)

(* Default buckets for the timing histograms: decades of seconds from
   1 µs to 100 s, the dynamic range between one cached lookup and one
   full-scale figure sweep. *)
let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

let histogram ?(buckets = default_buckets) name : histogram =
  let sorted = Array.copy buckets in
  Array.sort Float.compare sorted;
  if Array.length sorted = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  register name Khistogram (fun () ->
      hist_names := name :: !hist_names;
      hist_bounds := sorted :: !hist_bounds;
      List.length !hist_names - 1)

let bounds_of slot =
  (* The reverse list grows at the head; slot s sits at position
     (length - 1 - s). *)
  let all = !hist_bounds in
  List.nth all (List.length all - 1 - slot)

(* ------------------------------------------------------------------ *)
(* Shards                                                             *)
(* ------------------------------------------------------------------ *)

type shard = {
  mutable counters : int array;
  mutable gauges : float array; (* nan = never set in this shard *)
  mutable hist_counts : int array array;
  mutable hist_sums : float array;
}

let shards : shard list ref = ref []

let shards_mutex = Mutex.create ()

let new_shard () =
  let sh =
    { counters = [||]; gauges = [||]; hist_counts = [||]; hist_sums = [||] }
  in
  Mutex.lock shards_mutex;
  shards := sh :: !shards;
  Mutex.unlock shards_mutex;
  sh

let shard_key = Domain.DLS.new_key new_shard

let shard () = Domain.DLS.get shard_key

let grow_int arr n fill =
  if Array.length arr > n then arr
  else begin
    let bigger = Array.make (max 8 (2 * (n + 1))) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let grow_float arr n fill =
  if Array.length arr > n then arr
  else begin
    let bigger = Array.make (max 8 (2 * (n + 1))) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

(* ------------------------------------------------------------------ *)
(* Updates (hot path)                                                 *)
(* ------------------------------------------------------------------ *)

let add c n =
  if Atomic.get armed_flag then begin
    let sh = shard () in
    sh.counters <- grow_int sh.counters c 0;
    sh.counters.(c) <- sh.counters.(c) + n
  end

let incr c = add c 1

let set g v =
  if Atomic.get armed_flag then begin
    let sh = shard () in
    sh.gauges <- grow_float sh.gauges g Float.nan;
    sh.gauges.(g) <- v
  end

let observe h v =
  if Atomic.get armed_flag then begin
    let sh = shard () in
    if Array.length sh.hist_counts <= h then begin
      let bigger = Array.make (max 8 (2 * (h + 1))) [||] in
      Array.blit sh.hist_counts 0 bigger 0 (Array.length sh.hist_counts);
      sh.hist_counts <- bigger;
      sh.hist_sums <- grow_float sh.hist_sums h 0.
    end;
    let bounds = bounds_of h in
    if Array.length sh.hist_counts.(h) = 0 then
      sh.hist_counts.(h) <- Array.make (Array.length bounds + 1) 0;
    (* First bucket whose upper bound admits v; the final slot is the
       overflow bucket. *)
    let n = Array.length bounds in
    let b = ref 0 in
    while !b < n && v > bounds.(!b) do
      b := !b + 1
    done;
    sh.hist_counts.(h).(!b) <- sh.hist_counts.(h).(!b) + 1;
    sh.hist_sums.(h) <- sh.hist_sums.(h) +. v
  end

let time_s h f =
  if Atomic.get armed_flag then begin
    let t0 = Clock.now_s () in
    Fun.protect ~finally:(fun () -> observe h (Clock.now_s () -. t0)) f
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Snapshot & reset                                                   *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float }

let with_shards f =
  Mutex.lock shards_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shards_mutex) (fun () -> f !shards)

(* Snapshots are only exact at quiescence (after the pool has drained);
   a snapshot raced by live updates reads torn per-shard state.  Every
   caller in the repo snapshots after the figure pipeline has returned,
   except the daemon's stats query, which answers a live reading. *)
let snapshot () =
  locked (fun () ->
      with_shards (fun shards ->
          let slot_names rev = Array.of_list (List.rev !rev) in
          let counters = slot_names counter_names in
          let gauges = slot_names gauge_names in
          let hists = slot_names hist_names in
          let counter_rows =
            Array.to_list
              (Array.mapi
                 (fun slot name ->
                   let total =
                     List.fold_left
                       (fun acc sh ->
                         if Array.length sh.counters > slot then
                           acc + sh.counters.(slot)
                         else acc)
                       0 shards
                   in
                   (name, Counter total))
                 counters)
          in
          let gauge_rows =
            Array.to_list
              (Array.mapi
                 (fun slot name ->
                   let merged =
                     List.fold_left
                       (fun acc sh ->
                         if
                           Array.length sh.gauges > slot
                           && not (Float.is_nan sh.gauges.(slot))
                         then
                           if Float.is_nan acc then sh.gauges.(slot)
                           else Float.max acc sh.gauges.(slot)
                         else acc)
                       Float.nan shards
                   in
                   (name, Gauge merged))
                 gauges)
          in
          let hist_rows =
            Array.to_list
              (Array.mapi
                 (fun slot name ->
                   let bounds = bounds_of slot in
                   let counts = Array.make (Array.length bounds + 1) 0 in
                   let sum = ref 0. in
                   List.iter
                     (fun sh ->
                       if
                         Array.length sh.hist_counts > slot
                         && Array.length sh.hist_counts.(slot) > 0
                       then begin
                         Array.iteri
                           (fun b n -> counts.(b) <- counts.(b) + n)
                           sh.hist_counts.(slot);
                         sum := !sum +. sh.hist_sums.(slot)
                       end)
                     shards;
                   (name, Histogram { bounds; counts; sum = !sum }))
                 hists)
          in
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (counter_rows @ gauge_rows @ hist_rows)))

let counters () =
  List.filter_map
    (function name, Counter n -> Some (name, n) | _ -> None)
    (snapshot ())

let reset () =
  locked (fun () ->
      with_shards
        (List.iter (fun sh ->
             Array.fill sh.counters 0 (Array.length sh.counters) 0;
             Array.fill sh.gauges 0 (Array.length sh.gauges) Float.nan;
             Array.iter
               (fun c -> Array.fill c 0 (Array.length c) 0)
               sh.hist_counts;
             Array.fill sh.hist_sums 0 (Array.length sh.hist_sums) 0.)))

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                     *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Counter n -> Json.Number (float_of_int n)
  | Gauge v -> Json.Number v
  | Histogram { bounds; counts; sum } ->
      Json.Obj
        [ ( "le",
            Json.List
              (Array.to_list (Array.map (fun b -> Json.Number b) bounds)
              @ [ Json.String "+inf" ]) );
          ( "counts",
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Number (float_of_int n)) counts))
          );
          ("sum", Json.Number sum) ]

let snapshot_json () =
  let snap = snapshot () in
  let section pred =
    List.filter_map
      (fun (name, v) -> if pred v then Some (name, value_to_json v) else None)
      snap
  in
  Json.Obj
    [ ( "counters",
        Json.Obj (section (function Counter _ -> true | _ -> false)) );
      ("gauges", Json.Obj (section (function Gauge _ -> true | _ -> false)));
      ( "histograms",
        Json.Obj (section (function Histogram _ -> true | _ -> false)) ) ]
