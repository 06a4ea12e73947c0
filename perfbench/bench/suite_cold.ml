(* suite_cold: the paper-regeneration batch, the path
   `paragraph table3 ... --no-cache` takes. One operation is
   Runner.prefetch of the 21 suite configurations of one workload, with one
   worker, into a fresh store: simulate, write the trace, one fused
   analysis pass, encode and store 21 results. The seed orders the large
   workloads; operations run in whole rounds of that order until the time
   is up, so every run measures each workload equally often. *)

open Perfbench_core
open Common
module Runner = Ddg_experiments.Runner
module Store = Ddg_store.Store

(* One set-up takes about 2 ms; the median of this many spans half a
   second, so a short burst of load on the host does not move it. *)
let setup_reps = 151

(* What precedes the first simulation: a fresh store and runner, and the
   Mini-C programs of the run's workloads compiled. The programs compile
   in a fixed order: the time depends on it, and the seed must not. *)
let setup ctx names =
  let names = List.sort compare names in
  let dir = fresh_dir ctx "setup" in
  Gc.full_major ();
  let (), t =
    timed (fun () ->
        let store = Store.open_ ~dir () in
        ignore (Runner.create ~size ~store ~workers:1 () : Runner.t);
        List.iter (fun n -> ignore (W.program (workload n) size : Ddg_asm.Program.t)) names)
  in
  rm_rf dir;
  t

type op = {
  name : string;
  wall : float;
  events : int;  (** trace events × configurations analyzed *)
  counters : Runner.counters;
  bytes_written : int;
  obs : (Obs.snapshot * Obs.snapshot) option;  (** around the prefetch, traced *)
  probe_tr : Ddg_sim.Trace.t option;  (** kept for the traced layer probes *)
  results : (Config.t * Analyzer.stats) list;
      (** read back from the store; kept for the checks and the traced probes
          only, so that the results of earlier operations do not raise the
          peak RSS of later ones *)
}

let run_op ctx ~tracer ~rid ~keep name =
  let w = workload name in
  let dir = fresh_dir ctx "store" in
  let store = Store.open_ ~dir () in
  let runner = Runner.create ~size ~store ~workers:1 () in
  let jobs = List.map (fun c -> (w, c)) suite_configs in
  let traced = Tracer.enabled tracer in
  let before = if traced then Some (Obs.snapshot ()) else None in
  let (), wall =
    timed (fun () ->
        Tracer.span tracer ~rid ~layer:Tracer.root ("suite " ^ name) (fun parent ->
            Tracer.span tracer ~parent ~rid ~layer:"runner" "Runner.prefetch"
              (fun _ -> Runner.prefetch runner jobs)))
  in
  let obs = Option.map (fun b -> (b, Obs.snapshot ())) before in
  let result, tr = Runner.trace runner w in
  self_check ctx w result;
  let results = if keep then List.map (fun c -> (c, Runner.analyze runner w c)) suite_configs else [] in
  let counters = Runner.counters runner in
  let op =
    { name; wall; events = Ddg_sim.Trace.length tr * List.length suite_configs;
      counters; bytes_written = tree_bytes dir; obs;
      probe_tr = (if traced then Some tr else None); results }
  in
  rm_rf dir;
  attempt ctx ~ok:true;
  op

(* Whole rounds of the seeded order until [seconds] have passed. The first
   operation keeps its results for [verify]. *)
let timed_phase ctx ~tracer ~seconds order =
  let deadline = now () +. seconds in
  let n = List.length order in
  let rec go i acc =
    if i > 0 && i mod n = 0 && now () >= deadline then List.rev acc
    else
      let name = List.nth order (i mod n) in
      let op = run_op ctx ~tracer ~rid:i ~keep:(i = 0 || Tracer.enabled tracer) name in
      Gc.compact ();
      go (i + 1) (op :: acc)
  in
  go 0 []

let replay ctx ops =
  List.mapi (fun i (o : op) -> Gc.compact (); run_op ctx ~tracer:ctx.tracer ~rid:i ~keep:true o.name) ops

(* After the timed phase, the first operation's stored results are
   recomputed from a fresh simulation: a seeded non-FU configuration by the
   Ddg.build oracle, and each FU-limited one by the single-configuration
   Analyzer.analyze, which must give a byte-equal Stats_codec encoding. *)
let verify ctx ops =
  match ops with
  | [] -> ()
  | { name; results; _ } :: _ ->
      let oracle_config =
        List.nth non_fu_configs (Random.State.int (rng ctx 2) (List.length non_fu_configs))
      in
      let stored c = List.assq c results in
      let _, tr = W.trace (workload name) size in
      oracle_check ctx ~label:(name ^ " " ^ describe oracle_config) oracle_config tr
        (stored oracle_config);
      List.iter
        (fun c ->
          if is_fu c then
            check ctx
              (Stats_codec.to_string (Analyzer.analyze c tr) = Stats_codec.to_string (stored c))
              "%s [%s]: fused result differs from Analyzer.analyze" name (describe c))
        suite_configs

let end_to_end ctx =
  let order = shuffle (rng ctx 1) large_pool in
  note "inputs %s" (String.concat " " order);
  let setups = List.init setup_reps (fun _ -> setup ctx order) in
  ignore (Obs.reset_peak_rss () : bool);
  let ops = timed_phase ctx ~tracer:ctx.tracer ~seconds:ctx.seconds order in
  let peak = peak_rss_mib None in
  verify ctx ops;
  let wall = List.fold_left (fun a o -> a +. o.wall) 0. ops in
  let events = List.fold_left (fun a o -> a + o.events) 0 ops in
  let jobs = List.length ops * List.length suite_configs in
  let lat = List.map (fun o -> o.wall *. 1e3) ops in
  add_samples ctx "setup_s" "s" ~value:(Emit.median setups) setups;
  add ctx "events_per_s" "1/s" (rate events wall)
    ~dist:(Emit.summarize (List.map (fun o -> rate o.events o.wall) ops));
  add ctx "requests_per_s" "1/s" (rate jobs wall);
  add_samples ctx "latency_p50_ms" "ms" ~value:(Emit.median lat) lat;
  add_samples ctx "latency_p99_ms" "ms" ~value:(Emit.percentile lat 99.) lat;
  add ctx "peak_rss_mib" "MiB" peak

(* The traced run: the first half of the time untraced, then the same
   operations again with spans on and the program's Obs probes enabled.
   The layers inside Runner.prefetch are read from those probes: they
   become child spans of the prefetch span. Nested work the probes cannot
   separate (the trace write and the stats encoding inside store puts,
   the compile inside simulation) is timed by calling the same public
   function on the same input after the operation, and subtracted. *)
let per_layer ctx =
  let order = shuffle (rng ctx 1) large_pool in
  note "inputs %s" (String.concat " " order);
  let off = Tracer.create ~clock:now ~on:false in
  let untraced = timed_phase ctx ~tracer:off ~seconds:(ctx.seconds /. 2.) order in
  Obs.enable ();
  let ops = replay ctx untraced in
  Obs.disable ();
  let compiles = ref [] and writes = ref [] and encodes = ref [] and fu_rate = ref 0. in
  let runner_self = ref [] in
  List.iteri
    (fun rid o ->
      let prefetch =
        List.find
          (fun (s : Tracer.span) -> s.rid = rid && s.layer = "runner")
          (Tracer.spans ctx.tracer)
      in
      let b, a = Option.get o.obs in
      let d name = ns_to_s (hist_delta b a name).hs_sum in
      let tr = Option.get o.probe_tr in
      let compile = snd (timed (fun () -> W.program (workload o.name) size)) in
      let tmp = Filename.concat ctx.work "probe.trc" in
      let write = snd (timed (fun () -> Ddg_sim.Trace_io.write_file_flat tmp tr)) in
      Sys.remove tmp;
      let enc = List.map (fun (_, s) -> snd (timed (fun () -> Stats_codec.to_string s))) o.results in
      compiles := compile :: !compiles;
      writes := write :: !writes;
      encodes := enc @ !encodes;
      let child parent layer name dur =
        Tracer.record ctx.tracer ~parent ~rid ~layer ~name ~t0:0. ~t1:dur ()
      in
      let sim = child prefetch.sid "sim" "ddg_runner_simulate_ns" (d "ddg_runner_simulate_ns") in
      ignore (child sim "minic" "Workload.program (probe)" compile);
      ignore (child prefetch.sid "analyzer" "ddg_runner_analyze_ns" (d "ddg_runner_analyze_ns"));
      let store_busy = d "ddg_store_put_ns" +. d "ddg_store_find_ns" in
      let store = child prefetch.sid "store" "ddg_store_put_ns+ddg_store_find_ns" store_busy in
      ignore (child store "trace_io" "Trace_io.write_file_flat (probe)" write);
      ignore (child store "stats_codec" "Stats_codec.to_string (probe)" (List.fold_left ( +. ) 0. enc));
      runner_self :=
        (Tracer.duration prefetch -. d "ddg_runner_simulate_ns" -. d "ddg_runner_analyze_ns" -. store_busy)
        :: !runner_self;
      if rid = 0 then begin
        let fu = List.filter is_fu suite_configs in
        let _, t = timed (fun () -> Analyzer.analyze_many fu tr) in
        fu_rate := rate (Ddg_sim.Trace.length tr * List.length fu) t
      end)
    ops;
  let sum_hist name =
    List.fold_left
      (fun acc o -> let b, a = Option.get o.obs in Obs.merge acc (hist_delta b a name))
      (Obs.hist_of_samples ~name []) ops
  in
  let count ?labels name =
    List.fold_left (fun acc o -> let b, a = Option.get o.obs in acc + counter_delta b a ?labels name) 0 ops
  in
  let total f = List.fold_left (fun a o -> a + f o) 0 ops in
  let simulate = sum_hist "ddg_runner_simulate_ns" in
  let finds = count "ddg_store_finds_total" in
  let hits = count ~labels:(List.mem ("result", "hit")) "ddg_store_finds_total" in
  let sims = total (fun o -> o.counters.simulations) in
  let analyses = total (fun o -> o.counters.analyses) in
  add_hist_busy ctx "analyzer.fused_s" (sum_hist "ddg_runner_analyze_ns");
  add ctx "analyzer.fu_events_per_s" "1/s" !fu_rate;
  add_hist_busy ctx "sim.simulate_s" simulate;
  add ctx "sim.events_per_s" "1/s"
    (rate (total (fun o -> o.events / List.length suite_configs)) (ns_to_s simulate.hs_sum));
  add_busy ctx "minic.compile_s" !compiles;
  add_busy ctx "trace_io.write_s" !writes;
  add_hist_busy ctx "store.put_s" (sum_hist "ddg_store_put_ns");
  add ctx "store.puts" "count" (float_of_int (count "ddg_store_puts_total"));
  add ctx "store.bytes_written" "B" (float_of_int (total (fun o -> o.bytes_written)));
  add_hist_busy ctx "store.find_s" (sum_hist "ddg_store_find_ns");
  add ctx "store.finds" "count" (float_of_int finds);
  add ctx "store.hit_ratio" "ratio" (if finds > 0 then float_of_int hits /. float_of_int finds else 0.);
  add_busy ctx "stats_codec.encode_s" !encodes;
  (* useful work: one simulation per workload and one analysis per job *)
  let distinct = List.length ops * (1 + List.length suite_configs) in
  add ctx "runner.useful_ratio" "ratio" (float_of_int distinct /. float_of_int (sims + analyses));
  add ctx "runner.simulations" "count" (float_of_int sims);
  add ctx "runner.analyses" "count" (float_of_int analyses);
  add_busy ctx "runner.unaccounted_s" !runner_self;
  add_layer_shares ctx;
  add_overhead ctx
    ~untraced:(List.map (fun o -> o.wall) untraced)
    ~traced:(List.map (fun o -> o.wall) ops);
  verify ctx untraced
