(* Tests of the benchmark's own output rules: metric names and units, the
   duplicate-name guard, timings carrying their distribution, quartiles
   matching Python's statistics.quantiles, the result line's shape, the
   JSON round trip, span self times and the compare verdicts. *)

open Perfbench_core

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let raises name f =
  check name (match f () with _ -> false | exception Invalid_argument _ -> true)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let dist = Emit.summarize [ 1.; 2.; 3. ]

let test_names () =
  let e = Emit.create () in
  List.iter
    (fun n -> Emit.add e ~name:n ~unit_:"count" 1.)
    [ "a"; "events_per_s"; "store.put_s"; "layer.trace_io.self_s"; "0-x"; String.make 64 'x' ];
  List.iter
    (fun n -> raises ("rejects name " ^ n) (fun () -> Emit.add e ~name:n ~unit_:"count" 1.))
    [ ""; "has space"; "a/b"; ".leading"; "_leading"; "ü"; "x{y}"; String.make 65 'y' ];
  List.iter
    (fun u -> raises ("rejects unit " ^ u) (fun () -> Emit.add e ~name:("u" ^ string_of_int (String.length u)) ~unit_:u 1.))
    [ ""; "m s"; String.make 17 's' ];
  List.iter (fun u -> Emit.add e ~name:("unit_" ^ String.map (fun c -> if c = '/' || c = '%' then '_' else c) u) ~unit_:u 1.)
    [ "1/s"; "%"; "MiB"; "count" ]

let test_duplicates () =
  let e = Emit.create () in
  Emit.add e ~dist ~name:"cold_j1_seconds" ~unit_:"s" 2.31;
  raises "second value under one name" (fun () ->
      Emit.add e ~dist ~name:"cold_j1_seconds" ~unit_:"s" 5.75);
  check "first value kept" (List.map (fun (m : Emit.metric) -> m.value) (Emit.metrics e) = [ 2.31 ])

let test_timings () =
  let e = Emit.create () in
  raises "seconds need a distribution" (fun () -> Emit.add e ~name:"t" ~unit_:"s" 1.);
  raises "milliseconds need a distribution" (fun () -> Emit.add e ~name:"t" ~unit_:"ms" 1.);
  raises "non-finite" (fun () -> Emit.add e ~name:"t" ~unit_:"count" nan);
  Emit.add e ~dist ~name:"t" ~unit_:"ms" 2.;
  let line = Emit.human_line (List.hd (Emit.metrics e)) in
  List.iter
    (fun word -> check ("human line shows " ^ word) (contains line word))
    [ "ms"; "median 2"; "q1 1"; "q3 3"; "n 3" ]

let test_quartiles () =
  (* reference values from Python: statistics.quantiles(data, n=4) *)
  List.iter
    (fun (data, (q1, q3)) ->
      let s = Emit.summarize data in
      check
        (Printf.sprintf "quartiles of %d samples" (List.length data))
        (Float.abs (s.q1 -. q1) < 1e-12 && Float.abs (s.q3 -. q3) < 1e-12))
    [ ([ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ], (2.75, 8.25));
      ([ 1.; 2. ], (0.75, 2.25)); ([ 3.; 1.; 2. ], (1.0, 3.0));
      ([ 5.; 1.; 4.; 2.; 3. ], (1.5, 4.5)); ([ 7. ], (7., 7.)) ];
  check "median even" (Emit.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "p99 interpolates" (Float.abs (Emit.percentile (List.init 101 float_of_int) 99. -. 99.) < 1e-9)

let test_result_line () =
  let e = Emit.create () in
  Emit.add e ~dist ~name:"latency_p50_ms" ~unit_:"ms" 1.2034;
  Emit.add e ~name:"events_per_s" ~unit_:"1/s" 0.1;
  let j = Json.of_string (Emit.result_line ~correct:true ~attempted:10 ~failed:0 e) in
  (match j with
  | Json.Obj kvs -> check "result keys" (List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ])
  | _ -> check "result is an object" false);
  check "value keeps its digits"
    (Option.bind (Json.member "metrics" j) (Json.member "latency_p50_ms")
     |> Fun.flip Option.bind (Json.member "value")
    = Some (Json.Num 1.2034))

let test_json () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\n\001"); ("l", Json.List [ Json.Null; Json.Bool false ]);
        ("n", Json.Num 0.1); ("big", Json.Num 1e300); ("i", Json.Num 3.); ("neg", Json.Num (-2.5e-7)) ]
  in
  check "json round trip" (Json.of_string (Json.to_string v) = v);
  List.iter
    (fun f -> check "number round trip" (float_of_string (Json.number_to_string f) = f))
    [ 0.1; 1. /. 3.; 6482563.0697615184; 4e-9; 123456789012345678. ];
  check "rejects trailing bytes" (match Json.of_string "{} x" with _ -> false | exception Json.Parse_error _ -> true)

let test_tracer () =
  let clock = let t = ref 0. in fun () -> (t := !t +. 1.; !t) in
  let tr = Tracer.create ~clock ~on:true in
  (* every clock read advances one tick: root [1,11] > child [2,8] >
     grandchild [3,5], so the self times are 4, 4 and 2 *)
  Tracer.span tr ~rid:0 ~layer:Tracer.root "op" (fun root ->
      Tracer.span tr ~parent:root ~rid:0 ~layer:"a" "call" (fun c ->
          Tracer.span tr ~parent:c ~rid:0 ~layer:"b" "inner" (fun _ -> ignore (clock ()));
          ignore (clock ()); ignore (clock ()));
      ignore (clock ()); ignore (clock ()));
  let self l = List.fold_left ( +. ) 0. (List.assoc l (Tracer.self_times tr)) in
  check "root self" (self Tracer.root = 4.);
  check "child self" (self "a" = 4.);
  check "grandchild self" (self "b" = 2.);
  check "root total" (Tracer.root_total tr = 10.);
  check "one id" (List.for_all (fun (s : Tracer.span) -> s.rid = 0) (Tracer.spans tr));
  let off = Tracer.create ~clock ~on:false in
  check "disabled runs the call" (Tracer.span off ~rid:0 ~layer:"a" "x" (fun sid -> sid) = -1);
  check "disabled records nothing" (Tracer.spans off = [])

let test_compare () =
  let b = { Compare.metric = "m"; lower_is_better = true; bound = 0.1 } in
  let verdict o n = let _, _, _, _, v = Compare.judge b o n in v in
  let steady x = [ x; x *. 1.01; x *. 0.99; x *. 1.005; x *. 0.995 ] in
  check "unchanged" (verdict (steady 100.) (steady 102.) = Compare.Unchanged);
  check "regressed" (verdict (steady 100.) (steady 120.) = Compare.Regressed);
  check "improved" (verdict (steady 100.) (steady 80.) = Compare.Improved);
  check "unresolved when spread exceeds bound"
    (verdict [ 60.; 100.; 140.; 80.; 120. ] [ 70.; 110.; 150.; 90.; 130. ] = Compare.Unresolved);
  check "every new run better resolves a wide spread"
    (verdict [ 200.; 300.; 250.; 260. ] [ 100.; 150.; 120.; 110. ] = Compare.Improved);
  let hb = { b with lower_is_better = false } in
  let _, _, worse, _, v = Compare.judge hb (steady 100.) (steady 80.) in
  check "higher-is-better regression" (v = Compare.Regressed && worse > 0.)

let () =
  test_names ();
  test_duplicates ();
  test_timings ();
  test_quartiles ();
  test_result_line ();
  test_json ();
  test_tracer ();
  test_compare ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all tests passed"
