(* Tests of the benchmark's own pieces: percentiles, due-time latency,
   the per-name span fold and the max-ok-rate step selection. *)

let quick name f = Alcotest.test_case name `Quick f
let feq = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.check feq "p5 is the smallest" 15. (Stats.percentile 5. xs);
  Alcotest.check feq "p30" 20. (Stats.percentile 30. xs);
  Alcotest.check feq "p40 is rank 2" 20. (Stats.percentile 40. xs);
  Alcotest.check feq "p50" 35. (Stats.percentile 50. xs);
  Alcotest.check feq "p100 is the largest" 50. (Stats.percentile 100. xs);
  Alcotest.check feq "median of an even count is the lower middle" 2.
    (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "input order does not matter" 35.
    (Stats.percentile 50. [| 50.; 15.; 40.; 35.; 20. |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile 50. [||]))

let test_summary () =
  let s = Stats.summary [| 3.; 1.; 2.; 4. |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.check feq "min" 1. s.Stats.min;
  Alcotest.check feq "q1" 1. s.Stats.q1;
  Alcotest.check feq "q3" 3. s.Stats.q3;
  Alcotest.check feq "max" 4. s.Stats.max

(* A generator that stalls: three requests due 10 ms apart all go out
   50 ms late and are answered at 60 ms.  Each is charged from its due
   time, so the stall shows in every latency. *)
let test_due_time () =
  let due = Openloop.schedule ~start:0. ~rate:100. ~duration:0.03 in
  Alcotest.(check int) "three due instants" 3 (Array.length due);
  let samples =
    Array.map (fun d -> { Openloop.due = d; sent = 0.05; answered = 0.06 }) due
  in
  let lat = Array.map Openloop.latency samples in
  let eps = Alcotest.float 1e-9 in
  Alcotest.check eps "first" 0.06 lat.(0);
  Alcotest.check eps "second" 0.05 lat.(1);
  Alcotest.check eps "third" 0.04 lat.(2);
  Alcotest.check eps "worst lag" 0.05
    (Array.fold_left (fun m s -> Float.max m (Openloop.lag s)) 0. samples);
  Alcotest.check eps "on-time request has no lag" 0.
    (Openloop.lag { Openloop.due = 1.; sent = 1.; answered = 1.2 })

(* Spans of three names, one of them called twice. *)
let test_fold () =
  let sp name dur_us = { Span_fold.name; dur_us } in
  let spans = [ sp "root" 100.; sp "a" 60.; sp "b" 25.; sp "root" 10. ] in
  let rows = Span_fold.fold spans in
  let get name = Option.get (Span_fold.find rows name) in
  Alcotest.(check (list string)) "one row per name, sorted"
    [ "a"; "b"; "root" ]
    (List.map (fun r -> r.Span_fold.name) rows);
  Alcotest.(check int) "root count" 2 (get "root").Span_fold.count;
  Alcotest.check feq "root total" 110. (get "root").Span_fold.total_us;
  Alcotest.(check int) "a count" 1 (get "a").Span_fold.count;
  Alcotest.check feq "b total" 25. (get "b").Span_fold.total_us;
  Alcotest.(check bool) "an absent name has no row" true
    (Span_fold.find rows "c" = None)

let step rate p90_ms failed lag_ms_max =
  { Openloop.rate; p90_ms; failed; lag_ms_max }

let test_max_ok_rate () =
  let pick = Openloop.max_ok_rate ~limit_ms:50. ~lag_limit_ms:10. in
  Alcotest.check feq "highest passing step" 50.
    (pick [ step 20. 3. 0 1.; step 50. 49. 0 2.; step 100. 80. 0 2. ]);
  Alcotest.check feq "a failure disqualifies a step" 20.
    (pick [ step 20. 3. 0 1.; step 50. 4. 1 2.; step 100. 80. 0 2. ]);
  Alcotest.check feq "a late generator disqualifies a step" 20.
    (pick [ step 20. 3. 0 1.; step 50. 4. 0 11.; step 100. 80. 0 2. ]);
  Alcotest.check feq "a higher passing step wins over a failing middle one" 100.
    (pick [ step 20. 3. 0 1.; step 50. 400. 0 2.; step 100. 5. 0 2. ]);
  Alcotest.check feq "no passing step reads 0" 0.
    (pick [ step 20. 900. 0 1.; step 50. 900. 0 1. ])

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ quick "nearest-rank percentile" test_percentile;
                  quick "summary" test_summary ]);
      ("openloop", [ quick "due-time latency with a late generator" test_due_time;
                     quick "max ok rate step selection" test_max_ok_rate ]);
      ("span_fold", [ quick "per-name span fold" test_fold ]) ]
