(* The benchmark's own arithmetic and inputs: percentile math, and a
   schedule that is a pure function of the seed. *)

open Perfbench_lib

let close = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check close "median of odd sample" 3. (Pstats.median xs);
  Alcotest.check close "median of even sample" 2.5
    (Pstats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "p0 is the minimum" 1. (Pstats.percentile xs 0.);
  Alcotest.check close "p100 is the maximum" 5. (Pstats.percentile xs 1.);
  (* rank (n-1)p = 0.9 * 4 = 3.6 -> 4 + 0.6 * (5 - 4) *)
  Alcotest.check close "interpolates between ranks" 4.6
    (Pstats.percentile xs 0.9);
  Alcotest.check close "single sample" 7. (Pstats.percentile [| 7. |] 0.99);
  Alcotest.(check (array (float 0.))) "input left unsorted" [| 5.; 1.; 4.; 2.; 3. |] xs;
  let big = Array.init 1001 float_of_int in
  Alcotest.check close "p99 of 0..1000" 990. (Pstats.percentile big 0.99);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Pstats.percentile: empty sample") (fun () ->
      ignore (Pstats.median [||]))

let test_support () =
  (* a percentile needs ten samples beyond it *)
  Alcotest.(check int) "beyond p99 of 1000" 10 (Pstats.beyond ~n:1000 0.99);
  Alcotest.(check bool) "p99 needs 1000 samples" true
    (Pstats.supported ~n:1000 0.99);
  Alcotest.(check bool) "999 samples do not support p99" false
    (Pstats.supported ~n:999 0.99);
  Alcotest.(check bool) "p95 of 200" true (Pstats.supported ~n:200 0.95);
  Alcotest.(check bool) "p95 of 199" false (Pstats.supported ~n:199 0.95);
  Alcotest.(check bool) "p50 of 20" true (Pstats.supported ~n:20 0.5)

let text seed = Schedule.to_text ~seed (Schedule.make ~seconds:2. ~seed ())

let test_schedule_determinism () =
  Alcotest.(check string) "same seed, same schedule" (text 7) (text 7);
  Alcotest.(check bool) "another seed, another schedule" true (text 7 <> text 8);
  let a = Schedule.of_text (text 7) in
  Alcotest.(check string) "text round-trips" (text 7)
    (Schedule.to_text ~seed:7 a.Schedule.entries)

let test_schedule_shape () =
  let s = Schedule.make ~seconds:2. ~seed:3 () in
  let n = Array.length s in
  Alcotest.(check int) "fixed rate" (int_of_float (2. *. Schedule.rate)) n;
  Array.iteri
    (fun i e ->
      Alcotest.check close "due on the fixed grid"
        (float_of_int i /. Schedule.rate) e.Schedule.due)
    s;
  let count f = Array.fold_left (fun a e -> if f e.Schedule.cls then a + 1 else a) 0 s in
  (* the class mix is a constant share, whatever the seed *)
  let shares seed =
    let s = Schedule.make ~seconds:2. ~seed () in
    let c f = Array.fold_left (fun a e -> if f e.Schedule.cls then a + 1 else a) 0 s in
    ( c (function Schedule.Warm _ -> true | _ -> false),
      c (( = ) Schedule.Cold_run),
      c (( = ) Schedule.Cold_margin),
      c (( = ) Schedule.Dedup) )
  in
  Alcotest.(check bool) "class counts independent of the seed" true
    (shares 1 = shares 2);
  Alcotest.(check int) "warm share"
    (int_of_float (Float.round (Schedule.warm_share *. float_of_int n)))
    (count (function Schedule.Warm _ -> true | _ -> false));
  Array.iter
    (fun e ->
      match e.Schedule.cls with
      | Schedule.Dedup ->
          Alcotest.(check int) "dedup pair on the second connection" 1 e.conn;
          Alcotest.(check int) "dedup pair is two requests" 2
            (List.length e.lines)
      | _ -> Alcotest.(check int) "one request" 1 (List.length e.lines))
    s

let test_cold_keys_distinct () =
  let s = Schedule.make ~seconds:2. ~seed:5 () in
  let keys = Hashtbl.create 64 in
  let key line =
    match Serve.Protocol.parse_request (String.trim line) with
    | Ok { command = Serve.Protocol.Compute q; _ } ->
        Store.Key.to_hex (Store.Key.of_material (Serve.Tasks.material q))
    | _ -> Alcotest.fail "schedule line is not a compute request"
  in
  Array.iter
    (fun req ->
      Hashtbl.replace keys (key (Schedule.line ~id:0 req)) "warm")
    (Schedule.warm_requests ~seed:5);
  Array.iter
    (fun e ->
      match e.Schedule.cls with
      | Schedule.Warm _ -> ()
      | _ ->
          let k = key (List.hd e.lines) in
          Alcotest.(check bool) "cold key never seen before" false
            (Hashtbl.mem keys k);
          Hashtbl.replace keys k "cold")
    s

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "tail support" `Quick test_support;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "per-seed determinism" `Quick
            test_schedule_determinism;
          Alcotest.test_case "fixed rate and class mix" `Quick
            test_schedule_shape;
          Alcotest.test_case "cold keys are fresh" `Quick test_cold_keys_distinct;
        ] );
    ]
