(* What the three workloads share: the run context, seeded input
   selection, the suite's configurations, the correctness oracles, file
   helpers and readers for the program's own Obs histograms. *)

open Perfbench_core
module W = Ddg_workloads.Workload
module Registry = Ddg_workloads.Registry
module Config = Ddg_paragraph.Config
module Analyzer = Ddg_paragraph.Analyzer
module Stats_codec = Ddg_paragraph.Stats_codec
module Obs = Ddg_obs.Obs

let now () = float_of_int (Obs.Clock.monotonic_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- the run context ------------------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  paragraph : string;  (** the CLI binary serve_mixed starts as its daemon *)
  work : string;  (** this run's scratch directory, inside the checkout *)
  emit : Emit.t;
  tracer : Tracer.t;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
}

let attempt ctx ~ok = ctx.attempted <- ctx.attempted + 1; if not ok then ctx.failed <- ctx.failed + 1

(* An output that differs from its reference: fails the run and counts
   as one failed operation. *)
let mismatch ctx fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: MISMATCH " ^ msg);
      ctx.failed <- ctx.failed + 1;
      ctx.mismatches <- msg :: ctx.mismatches)
    fmt

let check ctx ok fmt =
  Printf.ksprintf (fun msg -> if not ok then mismatch ctx "%s" msg) fmt

let note fmt = Printf.printf (fmt ^^ "\n%!")

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* --- inputs ----------------------------------------------------------------- *)

let size = W.Default

(* Every workload runs the three registry workloads with the longest
   Default traces (1.54-1.61 M events, 57-66 MB as flat files): traces
   that do not fit in cache, and so close in size and cost that the seed,
   which orders them and draws the operations over them, does not change
   what a run measures. *)
let large_pool = [ "cc1x"; "espx"; "mtxx" ]

let workload name =
  match Registry.find name with
  | Some w -> w
  | None -> invalid_arg ("perfbench: no workload " ^ name)

(* The 21 switch settings the paper-regeneration suite analyzes per
   workload (bench/main.ml's [all_configs]): the Table 3 points, the
   renaming sweep, the Figure 8 windows, the finite functional units and
   the branch policies. *)
let suite_configs =
  let open Config in
  [ default; dataflow ]
  @ List.map (fun r -> with_renaming r default)
      [ rename_none; rename_registers_only; rename_registers_stack ]
  @ List.map (fun w -> with_window (Some w) default) Ddg_experiments.Fig8.window_sizes
  @ List.map
      (fun k -> with_fu { unlimited_fu with total = Some k } default)
      Ddg_experiments.Ablation.fu_limits
  @ List.map (fun p -> with_branch p default)
      [ Predict_taken; Predict_not_taken; Two_bit 12 ]

let is_fu (c : Config.t) = c.fu <> Config.unlimited_fu
let non_fu_configs = List.filter (fun c -> not (is_fu c)) suite_configs

(* The analyzer path a configuration exercises, for the per-layer rates. *)
let config_kind (c : Config.t) =
  if is_fu c then `Fu
  else if c.window <> None then `Window
  else if c.branch <> Config.Perfect then `Branch
  else `Plain

let describe = Config.describe

(* --- correctness oracles -------------------------------------------------- *)

let self_check ctx (w : W.t) (r : Ddg_sim.Machine.result) =
  check ctx (r.stop = Ddg_sim.Machine.Halted) "%s did not halt" w.name;
  match w.self_check size with
  | Some expected ->
      check ctx (r.output = expected) "%s printed %S, self-check expects %S"
        w.name r.output expected
  | None -> ()

(* The independent explicit-graph oracle (Ddg.build) must agree with the streaming
   analyzer on the critical path and on the operations placed in every
   profile bucket. Non-FU configurations only: the oracle has no
   functional-unit model. *)
let oracle_check ctx ~label config tr (stats : Analyzer.stats) =
  let g = Ddg_paragraph.Ddg.build config tr in
  let opl = Ddg_paragraph.Ddg.ops_per_level g in
  let cp = Ddg_paragraph.Ddg.critical_path g in
  check ctx (cp = stats.critical_path) "oracle %s: critical path %d, analyzer %d"
    label cp stats.critical_path;
  let p = stats.profile in
  let width = Ddg_paragraph.Profile.bucket_width p in
  let buckets = (Array.length opl + width - 1) / width in
  let agree = ref true in
  for b = 0 to buckets - 1 do
    let sum = ref 0 in
    for l = b * width to min (Array.length opl) ((b + 1) * width) - 1 do
      sum := !sum + opl.(l)
    done;
    if !sum <> Ddg_paragraph.Profile.ops_in_bucket p b then agree := false
  done;
  check ctx !agree "oracle %s: ops per level differ from the analyzer profile" label;
  check ctx
    (Array.fold_left ( + ) 0 opl = Ddg_paragraph.Profile.total_ops p)
    "oracle %s: total placed operations differ" label

(* --- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let n = ref 0 in
  fun ctx tag ->
    incr n;
    let d = Filename.concat ctx.work (Printf.sprintf "%s-%d" tag !n) in
    rm_rf d;
    mkdir_p d;
    d

let rec tree_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun a f -> a + tree_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* VmHWM of a process, in MiB. *)
let peak_rss_mib pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Re-arm a process's VmHWM at its current RSS, as Obs.reset_peak_rss
   does for its own process. *)
let rearm_peak_rss pid =
  match Out_channel.with_open_text (Printf.sprintf "/proc/%d/clear_refs" pid) (fun oc -> output_string oc "5") with
  | () -> true
  | exception Sys_error _ -> false

(* --- the program's own Obs registry (in-process or over the metrics verb) -- *)

let hist (snap : Obs.snapshot) ?(labels = fun _ -> true) name =
  List.fold_left
    (fun acc (h : Obs.hist_snapshot) ->
      if h.hs_name = name && labels h.hs_labels then Obs.merge acc h else acc)
    (Obs.hist_of_samples ~name [])
    snap.histograms

let counter (snap : Obs.snapshot) ?(labels = fun _ -> true) name =
  List.fold_left
    (fun acc (c : Obs.counter_snapshot) ->
      if c.cs_name = name && labels c.cs_labels then acc + c.cs_value else acc)
    0 snap.counters

(* What a histogram recorded between two snapshots. Min and max are not
   recoverable from a difference; quantiles use the buckets only. *)
let hist_delta before after ?labels name =
  let a = hist after ?labels name and b = hist before ?labels name in
  { a with
    Obs.hs_count = a.hs_count - b.hs_count;
    hs_sum = a.hs_sum - b.hs_sum;
    hs_buckets = Array.mapi (fun i x -> x - b.hs_buckets.(i)) a.hs_buckets }

let counter_delta before after ?labels name =
  counter after ?labels name - counter before ?labels name

let ns_to_s ns = float_of_int ns /. 1e9

(* A histogram's distribution, in [scale] units per ns (bucket upper
   edges, so a quantile is exact to within a factor of two). *)
let hist_dist ?(scale = 1e-9) (h : Obs.hist_snapshot) =
  if h.hs_count = 0 then Emit.no_samples
  else
    let q p = float_of_int (Obs.quantile h p) *. scale in
    { Emit.median = q 0.5; q1 = q 0.25; q3 = q 0.75; n = h.hs_count }

let verb_is verbs l = match List.assoc_opt "verb" l with Some v -> List.mem v verbs | None -> false

(* --- emitting --------------------------------------------------------------- *)

let add ctx ?dist name unit_ value = Emit.add ctx.emit ?dist ~name ~unit_ value

let add_samples ctx name unit_ ~value samples =
  add ctx ~dist:(Emit.summarize samples) name unit_ value

(* A busy-time total with the distribution of the calls it sums. *)
let add_busy ctx name samples =
  match samples with
  | [] -> add ctx ~dist:Emit.no_samples name "s" 0.
  | s -> add_samples ctx name "s" ~value:(List.fold_left ( +. ) 0. s) s

let add_hist_busy ctx name (h : Obs.hist_snapshot) =
  add ctx ~dist:(hist_dist h) name "s" (ns_to_s h.hs_sum)

let rate events seconds = if seconds > 0. then float_of_int events /. seconds else 0.

(* Self time and share of every layer the tracer saw, plus the
   unaccounted remainder (the root operations' own self time). A layer's
   self time carries the distribution of its spans' self times. *)
let add_layer_shares ctx =
  let total = Tracer.root_total ctx.tracer in
  List.iter
    (fun (layer, selfs) ->
      let self = List.fold_left ( +. ) 0. selfs in
      let share = if total > 0. then self /. total else 0. in
      if layer = Tracer.root then add ctx "layer.unaccounted.share" "ratio" share
      else begin
        add ctx ~dist:(Emit.summarize selfs) ("layer." ^ layer ^ ".self_s") "s" self;
        add ctx ("layer." ^ layer ^ ".share") "ratio" share
      end)
    (Tracer.self_times ctx.tracer)

(* Traced wall ÷ untraced wall per operation, over the same operations:
   what the traced run's own spans and probes cost. *)
let add_overhead ctx ~untraced ~traced =
  add ctx "trace.overhead_ratio" "ratio" (Emit.median traced /. Emit.median untraced)
