(* Open-loop load accounting.  A request is timed from the instant it
   was due, not from when the generator got round to sending it, so a
   stall on the client or the server is charged to every request that
   should have gone out during it. *)

type sample = {
  due : float;  (* scheduled send instant, s *)
  sent : float;  (* actual send instant, s *)
  answered : float;  (* response fully read, s *)
}

let latency s = s.answered -. s.due

(* How late the generator itself ran for this request. *)
let lag s = s.sent -. s.due

(* Due instants of a constant-rate stream over [start, start + duration). *)
let schedule ~start ~rate ~duration =
  let n = int_of_float (Float.floor (duration *. rate)) in
  Array.init n (fun i -> start +. (float_of_int i /. rate))

(* One rate step of the fast path, as [max_ok_rate] judges it. *)
type step = {
  rate : float;  (* offered requests per second *)
  p90_ms : float;  (* fast-path latency p90, from due time *)
  failed : int;  (* failed, refused or wrong responses *)
  lag_ms_max : float;  (* worst generator lateness *)
}

(* The highest offered rate whose step met the latency limit on its
   p90, lost no request and was driven on time; 0 when none did. *)
let max_ok_rate ~limit_ms ~lag_limit_ms steps =
  List.fold_left
    (fun best s ->
      if s.p90_ms <= limit_ms && s.failed = 0 && s.lag_ms_max <= lag_limit_ms
      then Float.max best s.rate
      else best)
    0. steps
