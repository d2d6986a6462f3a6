(* The benchmark's own statistics: the tail percentile a sample supports,
   due-time latency in the open loop, compare verdicts, and the
   waterfall's arithmetic. *)

let feq = Alcotest.float 1e-9

let tail_percentile () =
  (* ten samples beyond: n (1 - p) >= 10 *)
  Alcotest.(check (float 0.)) "19 samples: too few for any tail, median" 50. (Bstats.tail_pct 19);
  Alcotest.(check (float 0.)) "20 samples: p50" 50. (Bstats.tail_pct 20);
  Alcotest.(check (float 0.)) "40 samples: p75" 75. (Bstats.tail_pct 40);
  Alcotest.(check (float 0.)) "99 samples: still p75" 75. (Bstats.tail_pct 99);
  Alcotest.(check (float 0.)) "100 samples: p90" 90. (Bstats.tail_pct 100);
  Alcotest.(check (float 0.)) "999 samples: p95" 95. (Bstats.tail_pct 999);
  Alcotest.(check (float 0.)) "1000 samples: p99" 99. (Bstats.tail_pct 1000);
  Alcotest.(check (float 0.)) "10000 samples: p99.9" 99.9 (Bstats.tail_pct 10000);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let p, v = Bstats.tail xs in
  Alcotest.check feq "p90 of 1..100 is picked" 90. p;
  Alcotest.check feq "p90 of 1..100 interpolates" 90.1 v

let quartiles_match_python () =
  (* statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Bstats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Bstats.quartiles [ 3.; 1.; 2. ] in
  Alcotest.check feq "q1 of 3" 1. q1;
  Alcotest.check feq "q2 of 3" 2. q2;
  Alcotest.check feq "q3 of 3" 3. q3;
  Alcotest.check feq "median of even count" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ])

(* a fake clock: sleeping jumps to the wake time, a send takes its
   service time *)
let fake_clock () =
  let t = ref 0. in
  ({ Openloop.now = (fun () -> !t); sleep_until = (fun u -> if u > !t then t := u) }, t)

let due_time_latency () =
  let clock, t = fake_clock () in
  let service = [| 0.100; 0.005; 0.005; 0.005 |] in
  (* requests due every 10 ms; the first stalls for 100 ms *)
  let recs =
    Openloop.run ~clock ~conns:1 ~count:4 ~due:(Openloop.schedule ~t0:0. ~rate:100.)
      ~send:(fun _ i ->
        t := !t +. service.(i);
        true)
      ()
  in
  let lat = List.map Openloop.latency_ms recs in
  let svc = List.map Openloop.service_ms recs in
  (* the stall is charged to every request held behind it *)
  Alcotest.(check (list (float 1e-6))) "latency runs from the due time" [ 100.; 95.; 90.; 85. ] lat;
  Alcotest.(check (list (float 1e-6))) "service time alone hides the stall" [ 100.; 5.; 5.; 5. ] svc;
  (* waiting for the busy connection is queueing, not generator lateness *)
  Alcotest.(check (list (float 1e-6))) "no generator lateness" [ 0.; 0.; 0.; 0. ]
    (List.map Openloop.late_ms recs)

let generator_lateness () =
  (* a clock that oversleeps by 2 ms: an idle connection sends late *)
  let t = ref 0. in
  let clock = { Openloop.now = (fun () -> !t); sleep_until = (fun u -> if u > !t then t := u +. 0.002) } in
  let recs =
    Openloop.run ~clock ~conns:1 ~count:2 ~due:(Openloop.schedule ~t0:1. ~rate:10.)
      ~send:(fun _ _ ->
        t := !t +. 0.001;
        true)
      ()
  in
  Alcotest.(check (list (float 1e-6))) "lateness is send minus due" [ 2.; 2. ] (List.map Openloop.late_ms recs);
  Alcotest.(check (list (float 1e-6))) "and it counts in latency" [ 3.; 3. ] (List.map Openloop.latency_ms recs)

let verdict = Alcotest.testable (Fmt.of_to_string Bstats.verdict_to_string) ( = )

let compare_verdicts () =
  let around m = List.map (fun d -> m *. (1. +. d)) [ -0.02; -0.01; 0.; 0.01; 0.02 ] in
  let v ?(better = Bstats.Lower) ~bound o n = (Bstats.compare ~better ~bound o n).Bstats.c_verdict in
  Alcotest.check verdict "unchanged within the bound" Bstats.Same (v ~bound:0.1 (around 100.) (around 101.));
  Alcotest.check verdict "slower by more than the bound" Bstats.Worse
    (v ~bound:0.1 (around 100.) (around 120.));
  Alcotest.check verdict "every new run faster" Bstats.Better (v ~bound:0.1 (around 100.) (around 80.));
  Alcotest.check verdict "higher is better flips the sign" Bstats.Worse
    (v ~better:Bstats.Higher ~bound:0.1 (around 100.) (around 80.));
  Alcotest.check verdict "faster by more than the old spread" Bstats.Better
    (v ~bound:0.1 (around 100.) (around 100. @ around 96. @ around 96.));
  let noisy = [ 60.; 80.; 100.; 120.; 140. ] in
  Alcotest.check verdict "spread wider than the bound" Bstats.Unresolved (v ~bound:0.1 noisy (List.map (fun x -> x *. 1.05) noisy));
  Alcotest.check verdict "no runs" Bstats.Unresolved (v ~bound:0.1 [] (around 1.));
  let c = Bstats.compare ~better:Bstats.Lower ~bound:0.1 [ 10.; 10.; 10. ] [ 11.; 11.; 11. ] in
  Alcotest.check feq "change is relative and signed worse-positive" 0.1 c.Bstats.c_change

let span id name start_us stop_us parent req = { Tracer.id; name; start_us; stop_us; parent; req }

let waterfall_adds_up () =
  (* two requests: request(0..10ms) > a(1..7) > b(2..4), and b(7..9);
     a probe tree outside the requests *)
  let spans =
    List.concat_map
      (fun req ->
        let o = float_of_int req *. 20_000. and i = req * 10 in
        [
          span i "request" o (o +. 10_000.) (-1) req;
          span (i + 1) "a" (o +. 1_000.) (o +. 7_000.) i req;
          span (i + 2) "b" (o +. 2_000.) (o +. 4_000.) (i + 1) req;
          span (i + 3) "b" (o +. 7_000.) (o +. 9_000.) i req;
        ])
      [ 0; 1 ]
    @ [ span 30 "probe" 50_000. 51_000. (-1) 2; span 31 "a" 50_000. 51_000. 30 2 ]
  in
  let w = Tracer.waterfall ~root:"request" spans in
  let sum = List.fold_left (fun acc r -> acc +. r.Tracer.r_self_ms) w.Tracer.w_unattributed_ms w.Tracer.w_rows in
  Alcotest.(check int) "two requests" 2 w.Tracer.w_requests;
  Alcotest.(check (list string)) "rows in first-started order" [ "a"; "b" ]
    (List.map (fun r -> r.Tracer.r_name) w.Tracer.w_rows);
  Alcotest.(check (list int)) "span counts exclude the probe tree" [ 2; 4 ]
    (List.map (fun r -> r.Tracer.r_count) w.Tracer.w_rows);
  Alcotest.(check (list (float 1e-9))) "self times exclude children" [ 8.; 8. ]
    (List.map (fun r -> r.Tracer.r_self_ms) w.Tracer.w_rows);
  Alcotest.check feq "unattributed is the roots' own time" 4. w.Tracer.w_unattributed_ms;
  Alcotest.check feq "wall" 20. w.Tracer.w_wall_ms;
  Alcotest.check feq "rows plus unattributed add to the wall" w.Tracer.w_wall_ms sum

let spans_record_parent_and_request () =
  let tr = Tracer.create () in
  Tracer.with_request tr 7 (fun () ->
      Tracer.with_span tr "request" (fun () -> Tracer.with_span tr "a" ignore));
  Tracer.with_span tr "probe" ignore;
  match Tracer.spans tr with
  | [ r; a; p ] ->
    Alcotest.(check (list string)) "start order" [ "request"; "a"; "probe" ] [ r.Tracer.name; a.Tracer.name; p.Tracer.name ];
    Alcotest.(check int) "child points at its parent" r.Tracer.id a.Tracer.parent;
    Alcotest.(check (list int)) "request ids" [ 7; 7; -1 ] [ r.Tracer.req; a.Tracer.req; p.Tracer.req ];
    Alcotest.(check bool) "a root has no parent" true (r.Tracer.parent < 0 && p.Tracer.parent < 0)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let json_roundtrip () =
  let v =
    Bjson.Obj
      [ ("a", Bjson.Num 1.2034); ("b", Bjson.Arr [ Bjson.Bool true; Bjson.Null; Bjson.Str "x\"y\n" ]); ("c", Bjson.Num 3.) ]
  in
  Alcotest.(check string) "print" {|{"a": 1.2034, "b": [true, null, "x\"y\n"], "c": 3}|} (Bjson.to_string v);
  Alcotest.(check bool) "parse back" true (Bjson.of_string (Bjson.to_string v) = v);
  Alcotest.check feq "every digit kept" 0.1 (Option.get (Bjson.to_num (Bjson.of_string (Bjson.num_to_string 0.1))))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick tail_percentile;
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "due-time latency" `Quick due_time_latency;
          Alcotest.test_case "generator lateness" `Quick generator_lateness;
        ] );
      ( "trace",
        [
          Alcotest.test_case "waterfall adds up" `Quick waterfall_adds_up;
          Alcotest.test_case "spans record parent and request" `Quick spans_record_parent_and_request;
          Alcotest.test_case "json round trip" `Quick json_roundtrip;
        ] );
    ]
