(* Per-layer time from the benchmark's spans: one row per span name,
   with its call count and total duration. *)

type span = { name : string; dur_us : float }

type row = { name : string; count : int; total_us : float }

let of_trace (events : Po_obs.Trace.event list) =
  List.filter_map
    (fun (e : Po_obs.Trace.event) ->
      match e.Po_obs.Trace.phase with
      | `Span dur -> Some { name = e.Po_obs.Trace.name; dur_us = dur }
      | `Instant -> None)
    events

(* Rows sorted by name, one per span name. *)
let fold spans =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let count, total =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name (count + 1, total +. s.dur_us))
    spans;
  Hashtbl.fold
    (fun name (count, total_us) acc -> { name; count; total_us } :: acc)
    rows []
  |> List.sort (fun (a : row) b -> String.compare a.name b.name)

let find rows name = List.find_opt (fun (r : row) -> r.name = name) rows
