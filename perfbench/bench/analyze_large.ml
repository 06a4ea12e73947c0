(* analyze_large: the single-trace interactive and streaming path. Set-up
   simulates the large workloads to flat (v3) trace files. One
   operation analyzes one trace under one non-FU suite configuration,
   either by mapping the file with digest verification and running the
   single-configuration analyzer, or (a quarter of the operations) by
   streaming the file through the analyzer in bounded memory. No
   simulation, store or FU path runs in the timed phase. *)

open Perfbench_core
open Common
module Trace_io = Ddg_sim.Trace_io

let setup_reps = 3

type input = { name : string; file : string; events : int; bytes : int }

let setup ctx ~tracer ~rid names dir =
  timed (fun () ->
      List.map
        (fun name ->
          let w = workload name in
          Tracer.span tracer ~rid ~layer:Tracer.root ("setup " ^ name) (fun parent ->
              let prog =
                Tracer.span tracer ~parent ~rid ~layer:"minic" "Workload.program" (fun _ ->
                    W.program w size)
              in
              let result, tr =
                Tracer.span tracer ~parent ~rid ~layer:"sim" "Machine.run_to_trace" (fun _ ->
                    Ddg_sim.Machine.run_to_trace prog)
              in
              self_check ctx w result;
              let file = Filename.concat dir (name ^ ".trc") in
              Tracer.span tracer ~parent ~rid ~layer:"trace_io" "Trace_io.write_file_flat"
                (fun _ -> Trace_io.write_file_flat file tr);
              { name; file; events = Ddg_sim.Trace.length tr; bytes = (Unix.stat file).st_size }))
        names)

type op = {
  input : input;
  config : Config.t;
  stream : bool;
  wall : float;
  digest : Digest.t;  (** of the result's canonical Stats_codec encoding *)
  encode_s : float;
}

let run_op ~tracer ~rid (input, config, stream) =
  let stats, wall =
    timed (fun () ->
        Tracer.span tracer ~rid ~layer:Tracer.root "analyze" (fun parent ->
            if stream then
              Tracer.span tracer ~parent ~rid ~layer:"analyzer" "Analyzer.analyze_stream"
                (fun _ -> Analyzer.analyze_stream ~verify:true config input.file)
            else
              let tr =
                Tracer.span tracer ~parent ~rid ~layer:"trace_io" "Trace_io.map_file"
                  (fun _ -> Trace_io.map_file ~verify:true input.file)
              in
              Tracer.span tracer ~parent ~rid ~layer:"analyzer" "Analyzer.analyze"
                (fun _ -> Analyzer.analyze config tr)))
  in
  let encoded, encode_s = timed (fun () -> Stats_codec.to_string stats) in
  (* unmap the trace before the next operation *)
  Gc.full_major ();
  { input; config; stream; wall; digest = Digest.string encoded; encode_s }

(* The seeded operation sequence: uniform over the run's traces and the 15
   non-FU suite configurations; one operation in four streams. *)
let plan ctx inputs =
  let r = rng ctx 3 in
  let inputs = Array.of_list inputs and configs = Array.of_list non_fu_configs in
  fun () ->
    let input = inputs.(Random.State.int r (Array.length inputs)) in
    let config = configs.(Random.State.int r (Array.length configs)) in
    (input, config, Random.State.int r 4 = 0)

let timed_phase ctx ~tracer ~seconds next =
  let deadline = now () +. seconds in
  let rec go i acc =
    if i > 0 && now () >= deadline then List.rev acc
    else
      let op = run_op ~tracer ~rid:i (next ()) in
      go (i + 1) (op :: acc)
  in
  let ops = go 0 [] in
  List.iter (fun _ -> attempt ctx ~ok:true) ops;
  ops

(* Every operation's result equals the single-configuration analysis of
   the mapped trace (computed here when only streamed operations produced
   that key), and one seeded key agrees with the explicit-graph oracle. *)
let verify ctx ops =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let k = (o.input.name, describe o.config) in
      Hashtbl.replace keys k (o :: Option.value ~default:[] (Hashtbl.find_opt keys k)))
    ops;
  let reference (o : op) =
    Digest.string
      (Stats_codec.to_string (Analyzer.analyze o.config (Trace_io.map_file o.input.file)))
  in
  Hashtbl.iter
    (fun (name, cfg) group ->
      let ref_digest =
        match List.find_opt (fun o -> not o.stream) group with
        | Some o -> o.digest
        | None -> reference (List.hd group)
      in
      List.iter
        (fun o ->
          if o.digest <> ref_digest then
            mismatch ctx "%s [%s]: %s result differs from Analyzer.analyze on the mapped trace"
              name cfg (if o.stream then "analyze_stream" else "analyze"))
        group)
    keys;
  let o = List.nth ops (Random.State.int (rng ctx 4) (List.length ops)) in
  let tr = Trace_io.map_file o.input.file in
  let stats = Analyzer.analyze o.config tr in
  check ctx (Digest.string (Stats_codec.to_string stats) = o.digest)
    "%s [%s]: result not reproducible" o.input.name (describe o.config);
  oracle_check ctx ~label:(o.input.name ^ " " ^ describe o.config) o.config tr stats

let prepare ctx ~tracer =
  let names = shuffle (rng ctx 1) large_pool in
  note "inputs %s" (String.concat " " names);
  let dir = fresh_dir ctx "traces" in
  let reps = List.init setup_reps (fun rid -> setup ctx ~tracer ~rid names dir) in
  (List.map snd reps, fst (List.hd (List.rev reps)))

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

let end_to_end ctx =
  let setups, inputs = prepare ctx ~tracer:ctx.tracer in
  ignore (Obs.reset_peak_rss () : bool);
  let ops = timed_phase ctx ~tracer:ctx.tracer ~seconds:ctx.seconds (plan ctx inputs) in
  let peak = peak_rss_mib None in
  verify ctx ops;
  let wall = sum (fun o -> o.wall) ops in
  let events = List.fold_left (fun a o -> a + o.input.events) 0 ops in
  let lat = List.map (fun o -> o.wall *. 1e3) ops in
  add_samples ctx "setup_s" "s" ~value:(Emit.median setups) setups;
  add ctx "events_per_s" "1/s" (rate events wall)
    ~dist:(Emit.summarize (List.map (fun o -> rate o.input.events o.wall) ops));
  add ctx "requests_per_s" "1/s" (rate (List.length ops) wall);
  add_samples ctx "latency_p50_ms" "ms" ~value:(Emit.median lat) lat;
  add_samples ctx "latency_p99_ms" "ms" ~value:(Emit.percentile lat 99.) lat;
  add ctx "peak_rss_mib" "MiB" peak

(* The traced run: set-up and the timed phase's first half untraced, then
   the same operations again with a span around every layer call. *)
let per_layer ctx =
  let setup_tracer = Tracer.create ~clock:now ~on:true in
  let _, inputs = prepare ctx ~tracer:setup_tracer in
  let off = Tracer.create ~clock:now ~on:false in
  let untraced = timed_phase ctx ~tracer:off ~seconds:(ctx.seconds /. 2.) (plan ctx inputs) in
  let ops =
    List.mapi
      (fun rid o -> run_op ~tracer:ctx.tracer ~rid (o.input, o.config, o.stream))
      untraced
  in
  List.iter (fun _ -> attempt ctx ~ok:true) ops;
  verify ctx (untraced @ ops);
  let spans = Tracer.spans ctx.tracer in
  let analyzer_rate pred =
    let events, busy =
      List.fold_left2
        (fun (e, b) rid (o : op) ->
          if pred o then
            let s =
              List.find (fun (s : Tracer.span) -> s.rid = rid && s.layer = "analyzer") spans
            in
            (e + o.input.events, b +. Tracer.duration s)
          else (e, b))
        (0, 0.) (List.init (List.length ops) Fun.id) ops
    in
    rate events busy
  in
  let mapped kind o = (not o.stream) && config_kind o.config = kind in
  add ctx "analyzer.plain_events_per_s" "1/s" (analyzer_rate (mapped `Plain));
  add ctx "analyzer.window_events_per_s" "1/s" (analyzer_rate (mapped `Window));
  add ctx "analyzer.branch_events_per_s" "1/s" (analyzer_rate (mapped `Branch));
  add ctx "analyzer.stream_events_per_s" "1/s" (analyzer_rate (fun o -> o.stream));
  add_busy ctx "trace_io.map_s" (Tracer.durations ctx.tracer ~layer:"trace_io");
  add ctx "trace_io.bytes" "B"
    (float_of_int (List.fold_left (fun a o -> if o.stream then a else a + o.input.bytes) 0 ops));
  let sim = Tracer.durations setup_tracer ~layer:"sim" in
  add_busy ctx "sim.simulate_s" sim;
  add ctx "sim.events_per_s" "1/s"
    (rate (setup_reps * List.fold_left (fun a i -> a + i.events) 0 inputs) (sum Fun.id sim));
  add_busy ctx "minic.compile_s" (Tracer.durations setup_tracer ~layer:"minic");
  add_busy ctx "trace_io.write_s" (Tracer.durations setup_tracer ~layer:"trace_io");
  add_busy ctx "stats_codec.encode_s" (List.map (fun o -> o.encode_s) ops);
  add_layer_shares ctx;
  add_overhead ctx
    ~untraced:(List.map (fun o -> o.wall) untraced)
    ~traced:(List.map (fun o -> o.wall) ops)
