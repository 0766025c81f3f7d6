(* Span-based tracer exporting Chrome trace-event JSON (DESIGN.md §11).

   Spans nest through a per-domain stack: [with_span] assigns the next
   id from its domain's shard, records the shard's current stack top as
   the parent, runs the thunk and appends one complete ("ph": "X")
   event on the way out.  Ids are {e structural} — a per-shard sequence
   number, never an address or a timestamp — so a serial run always
   produces the same ids and nesting; only the [ts]/[dur] fields carry
   wall time.  Parent/child edges never cross domains (each domain
   nests its own work), so the stack needs no synchronisation.

   Disarmed, [with_span] is one atomic load around the thunk — the
   tracer is safe to leave in hot paths. *)

let armed_flag = Atomic.make false

let arm () = Atomic.set armed_flag true

let disarm () = Atomic.set armed_flag false

let armed () = Atomic.get armed_flag

type event = {
  name : string;
  phase : [ `Span of float (* duration us *) | `Instant ];
  ts_us : float;
  tid : int;
  id : int;
  parent : int; (* -1 at a shard's root *)
  args : (string * string) list;
}

type shard = {
  tid : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable events : event list; (* newest first *)
}

let shards : shard list ref = ref []

let shards_mutex = Mutex.create ()

let next_tid = Atomic.make 0

let new_shard () =
  let sh =
    { tid = Atomic.fetch_and_add next_tid 1; next_id = 0; stack = [];
      events = [] }
  in
  Mutex.protect shards_mutex (fun () -> shards := sh :: !shards);
  sh

let shard_key = Domain.DLS.new_key new_shard

let shard () = Domain.DLS.get shard_key

let with_span ?(args = []) name f =
  if not (Atomic.get armed_flag) then f ()
  else begin
    let sh = shard () in
    let id = sh.next_id in
    sh.next_id <- id + 1;
    let parent = match sh.stack with [] -> -1 | p :: _ -> p in
    sh.stack <- id :: sh.stack;
    let t0 = Clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Clock.now_us () -. t0 in
        (match sh.stack with [] -> () | _ :: rest -> sh.stack <- rest);
        sh.events <-
          { name; phase = `Span dur; ts_us = t0; tid = sh.tid; id; parent;
            args }
          :: sh.events)
      f
  end

let instant ?(args = []) name =
  if Atomic.get armed_flag then begin
    let sh = shard () in
    let id = sh.next_id in
    sh.next_id <- id + 1;
    let parent = match sh.stack with [] -> -1 | p :: _ -> p in
    sh.events <-
      { name; phase = `Instant; ts_us = Clock.now_us (); tid = sh.tid; id;
        parent; args }
      :: sh.events
  end

let reset () =
  Mutex.lock shards_mutex;
  List.iter
    (fun sh ->
      sh.next_id <- 0;
      sh.stack <- [];
      sh.events <- [])
    !shards;
  Mutex.unlock shards_mutex;
  Atomic.set next_tid (List.length !shards)

(* All recorded events, ordered by (tid, id) — a structural order that
   does not depend on timestamps. *)
let events () =
  Mutex.lock shards_mutex;
  let all =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock shards_mutex)
      (fun () -> List.concat_map (fun sh -> sh.events) !shards)
  in
  List.sort
    (fun (a : event) (b : event) ->
      let c = Int.compare a.tid b.tid in
      if c <> 0 then c else Int.compare a.id b.id)
    all

let event_json e =
  let ph, dur = match e.phase with `Span d -> ("X", Some d) | `Instant -> ("i", None) in
  Json.Obj
    ([ ("name", Json.String e.name); ("cat", Json.String "ponet");
       ("ph", Json.String ph); ("ts", Json.Number e.ts_us) ]
    @ (match dur with Some d -> [ ("dur", Json.Number d) ] | None -> [])
    @ [ ("pid", Json.Number 1.); ("tid", Json.Number (float_of_int e.tid));
        ( "args",
          Json.Obj
            ([ ("id", Json.String (string_of_int e.id));
               ( "parent",
                 Json.String
                   (if e.parent < 0 then "" else string_of_int e.parent) ) ]
            @ List.map (fun (k, v) -> (k, Json.String v)) e.args) ) ])

let to_json ?(other = []) () =
  Json.Obj
    [ ("traceEvents", Json.List (List.map event_json (events ())));
      ("displayTimeUnit", Json.String "ms"); ("otherData", Json.Obj other) ]

let export ?other ~path () =
  Po_report.Writer.write_atomic ~path
    (Json.to_string (to_json ?other ()) ^ "\n")
