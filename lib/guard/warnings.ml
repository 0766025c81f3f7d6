(* polint: allow R4 — this module IS the warning sink: the default
   handler must reach a human even when the embedder never installed
   one, and stderr is the only channel that cannot corrupt the report
   stream on stdout. *)
let handler = ref (fun msg -> prerr_endline ("warning: " ^ msg))

(* Every emission is also tallied and retained, independent of the
   handler, so the run manifest can report a warning count and tests can
   assert on degradation messages without installing a handler.  The
   retained list is unbounded, which is fine: warnings are exceptional
   by construction — a run that emits thousands has bigger problems
   than memory. *)
let counter = Atomic.make 0

let retained : string list ref = ref [] (* newest first *)

let retained_mutex = Mutex.create ()

let set_handler f = handler := f

let emit msg =
  Atomic.incr counter;
  Mutex.protect retained_mutex (fun () -> retained := msg :: !retained);
  !handler msg

let count () = Atomic.get counter

let drain () =
  Mutex.protect retained_mutex (fun () ->
      let msgs = List.rev !retained in
      retained := [];
      msgs)
