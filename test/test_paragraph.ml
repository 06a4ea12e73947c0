(* Unit tests for the Paragraph core, anchored on the paper's worked
   examples:
   - Figure 1 (true data dependencies only): S := A+B+C+D has critical
     path 4 and parallelism profile 4,2,1,1.
   - Figure 2 (register storage dependencies): the same computation with
     r0/r1 reused has critical path 6 and profile 2,1,2,1,1,1.
   - Figure 4 (resource dependencies): with two generic FUs no level holds
     more than two operations.
   - Section 3.2 special cases: pre-existing values, system-call
     firewalls, the instruction window. *)

open Ddg_paragraph
open Ddg_sim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let trace_of ?input src =
  let program = Ddg_asm.Assembler.assemble_string src in
  let result, trace = Machine.run_to_trace ?input program in
  (match result.stop with
  | Machine.Halted -> ()
  | s -> Alcotest.failf "program did not halt: %a" Machine.pp_stop_reason s);
  trace

(* The paper's Figure 1 program: S := A + B + C + D with no register
   reuse. *)
let figure1 = {|
        .data
A:      .word 1
B:      .word 2
C:      .word 3
D:      .word 4
S:      .word 0
        .text
main:   lw  t0, A
        lw  t1, B
        add t4, t0, t1
        lw  t2, C
        lw  t3, D
        add t5, t2, t3
        add t6, t4, t5
        sw  t6, S
        halt
|}

(* Figure 2: the same computation, but C and D reuse registers t0/t1. *)
let figure2 = {|
        .data
A:      .word 1
B:      .word 2
C:      .word 3
D:      .word 4
S:      .word 0
        .text
main:   lw  t0, A
        lw  t1, B
        add t4, t0, t1
        lw  t0, C
        lw  t1, D
        add t5, t0, t1
        add t6, t4, t5
        sw  t6, S
        halt
|}

let profile_list stats n =
  (* first [n] levels of an unbucketed profile *)
  Alcotest.(check int) "width 1" 1 (Profile.bucket_width stats.Analyzer.profile);
  List.map
    (fun (_, _, avg) -> int_of_float avg)
    (List.filteri (fun i _ -> i < n) (Profile.series stats.Analyzer.profile))

let test_figure1 () =
  let stats = Analyzer.analyze Config.default (trace_of figure1) in
  check_int "critical path" 4 stats.critical_path;
  check_int "placed ops" 8 stats.placed_ops;
  Alcotest.(check (list int)) "profile" [ 4; 2; 1; 1 ] (profile_list stats 4);
  check_float "parallelism" 2.0 stats.available_parallelism

let test_figure2_renamed () =
  (* with renaming, register reuse is invisible: same DDG as figure 1 *)
  let stats = Analyzer.analyze Config.default (trace_of figure2) in
  check_int "critical path" 4 stats.critical_path;
  Alcotest.(check (list int)) "profile" [ 4; 2; 1; 1 ] (profile_list stats 4)

let test_figure2_storage_deps () =
  let config = Config.(with_renaming rename_none default) in
  let stats = Analyzer.analyze config (trace_of figure2) in
  check_int "critical path" 6 stats.critical_path;
  check_int "placed ops" 8 stats.placed_ops;
  Alcotest.(check (list int)) "profile" [ 2; 1; 2; 1; 1; 1 ]
    (profile_list stats 6)

let test_figure1_no_renaming_unchanged () =
  (* figure 1 reuses no location, so disabling renaming changes nothing *)
  let config = Config.(with_renaming rename_none default) in
  let stats = Analyzer.analyze config (trace_of figure1) in
  check_int "critical path" 4 stats.critical_path

let test_figure4_resources () =
  let fu = { Config.unlimited_fu with total = Some 2 } in
  let config = Config.(with_fu fu default) in
  let ddg = Ddg.build config (trace_of figure1) in
  check_int "all ops placed" 8 (Array.length (Ddg.nodes ddg));
  Array.iter
    (fun per_level ->
      Alcotest.(check bool) "at most 2 ops per level" true (per_level <= 2))
    (Ddg.ops_per_level ddg);
  Alcotest.(check bool) "critical path at least ceil(8/2)" true
    (Ddg.critical_path ddg >= 4);
  Alcotest.(check bool) "resources can only deepen" true
    (Ddg.critical_path ddg >= 4)

(* A pool with no units could never place an operation, and a negative
   latency would complete an op below the placement floor the pools
   prune to: both are rejected when the analysis is set up. *)
let test_invalid_resources_rejected () =
  let invalid what f =
    match f () with
    | (_ : Analyzer.stats) -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  let trace = trace_of figure1 in
  List.iter
    (fun fu ->
      invalid (Config.describe (Config.with_fu fu Config.default)) (fun () ->
          Analyzer.analyze (Config.with_fu fu Config.default) trace))
    [ { Config.unlimited_fu with total = Some 0 };
      { Config.unlimited_fu with int_units = Some (-1) };
      { Config.unlimited_fu with fp_units = Some 0 } ];
  let negative =
    { Config.default with
      latency = (fun c -> if c = Ddg_isa.Opclass.Int_alu then -1 else 1) }
  in
  invalid "negative latency" (fun () -> Analyzer.analyze negative trace);
  match Ddg.build negative trace with
  | (_ : Ddg.t) -> Alcotest.fail "Ddg.build accepted a negative latency"
  | exception Invalid_argument _ -> ()

(* --- explicit DDG ------------------------------------------------------- *)

let test_ddg_matches_analyzer_fig1 () =
  let trace = trace_of figure1 in
  let stats = Analyzer.analyze Config.default trace in
  let ddg = Ddg.build Config.default trace in
  check_int "critical path" stats.critical_path (Ddg.critical_path ddg);
  Alcotest.(check (array int)) "profile" [| 4; 2; 1; 1 |] (Ddg.ops_per_level ddg)

let test_ddg_edges_fig1 () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  (* 7 true-data edges: t0->t4, t1->t4, t2->t5, t3->t5, t4->t6, t5->t6,
     t6->store *)
  let data_edges =
    List.filter (fun e -> e.Ddg.kind = Ddg.True_data) (Ddg.edges ddg)
  in
  check_int "true data edges" 7 (List.length data_edges);
  check_int "no storage edges" 0
    (List.length (List.filter (fun e -> e.Ddg.kind = Ddg.Storage) (Ddg.edges ddg)))

let test_ddg_storage_edges_fig2 () =
  let config = Config.(with_renaming rename_none default) in
  let ddg = Ddg.build config (trace_of figure2) in
  let storage =
    List.filter (fun e -> e.Ddg.kind = Ddg.Storage) (Ddg.edges ddg)
  in
  (* t0 and t1 are each overwritten once with the old value in use *)
  Alcotest.(check bool) "storage edges present" true (List.length storage >= 2)

let test_ddg_dot () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  let dot = Ddg.to_dot ddg in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 50 && String.sub dot 0 7 = "digraph")

(* --- system calls -------------------------------------------------------- *)

let syscall_program = {|
main:   li t0, 1
        li t1, 2
        add t2, t0, t1     # level 1
        li v0, 1
        move a0, t2
        syscall            # firewall
        li t3, 5           # independent, but held below the firewall
        halt
|}

let test_syscall_conservative () =
  let stats = Analyzer.analyze Config.default (trace_of syscall_program) in
  check_int "one syscall" 1 stats.syscalls;
  (* conservative: li t3 placed after the firewall, deepening the DDG *)
  let optimistic =
    Analyzer.analyze Config.dataflow (trace_of syscall_program)
  in
  Alcotest.(check bool) "conservative path at least as long" true
    (stats.critical_path >= optimistic.critical_path);
  (* optimistic ignores the syscall: one fewer placed op *)
  check_int "optimistic places one fewer op" (stats.placed_ops - 1)
    optimistic.placed_ops

let test_syscall_firewall_blocks () =
  (* an independent li after a syscall may not be placed at level 0 *)
  let trace = trace_of syscall_program in
  let ddg = Ddg.build Config.default trace in
  let nodes = Ddg.nodes ddg in
  let last_li =
    (* the final value-creating node (li t3) *)
    nodes.(Array.length nodes - 1)
  in
  Alcotest.(check bool) "li t3 below firewall" true (last_li.Ddg.level > 0);
  (* under optimistic syscalls it sits at level 0 *)
  let ddg_opt = Ddg.build Config.dataflow trace in
  let nodes_opt = Ddg.nodes ddg_opt in
  let last_opt = nodes_opt.(Array.length nodes_opt - 1) in
  check_int "li t3 at top without firewall" 0 last_opt.Ddg.level

(* --- pre-existing values ------------------------------------------------- *)

let test_preexisting_values () =
  (* a load from the DATA segment must land in the topologically highest
     level: pre-existing values never delay computation *)
  let stats = Analyzer.analyze Config.default (trace_of {|
        .data
X:      .word 42
        .text
main:   lw t0, X
        halt
|}) in
  check_int "one op" 1 stats.placed_ops;
  check_int "critical path" 1 stats.critical_path

let test_preexisting_sp () =
  (* sp is pre-initialised: using it does not delay the first level *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   addi sp, sp, -8
        halt
|}) in
  check_int "critical path" 1 stats.critical_path

(* --- instruction window --------------------------------------------------- *)

let independent_lis n =
  (* n independent load-immediates + halt *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "main:\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  li t%d, %d\n" (i mod 4) i)
  done;
  Buffer.add_string buf "  halt\n";
  Buffer.contents buf

let test_window_limits_width () =
  let trace = trace_of (independent_lis 32) in
  let unbounded = Analyzer.analyze Config.default trace in
  (* all renaming on: 32 independent ops in one level *)
  check_int "unbounded critical path" 1 unbounded.critical_path;
  check_float "unbounded parallelism" 32.0 unbounded.available_parallelism;
  let w4 = Analyzer.analyze Config.(with_window (Some 4) default) trace in
  check_int "window 4 critical path" 8 w4.critical_path;
  check_float "window 4 parallelism" 4.0 w4.available_parallelism;
  let ddg = Ddg.build Config.(with_window (Some 4) default) trace in
  Array.iter
    (fun k -> Alcotest.(check bool) "level width <= 4" true (k <= 4))
    (Ddg.ops_per_level ddg)

let test_window_one_serialises () =
  let trace = trace_of (independent_lis 8) in
  let w1 = Analyzer.analyze Config.(with_window (Some 1) default) trace in
  check_int "window 1: fully serial" 8 w1.critical_path

let test_window_preserves_dataflow_order () =
  (* a dependent chain is unaffected by any window size *)
  let chain = {|
main:   li t0, 1
        add t0, t0, t0
        add t0, t0, t0
        add t0, t0, t0
        halt
|} in
  let trace = trace_of chain in
  let unbounded = Analyzer.analyze Config.default trace in
  let w2 = Analyzer.analyze Config.(with_window (Some 2) default) trace in
  check_int "chain unaffected" unbounded.critical_path w2.critical_path

(* --- latencies ------------------------------------------------------------ *)

let test_latencies_deepen () =
  (* a dependent chain of FP adds spans 6 levels per op (Table 1) *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   fli f1, 1.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        halt
|}) in
  (* fli is transport (1 level, completes at 0); each dependent fadd adds
     6 levels: 6, then 12 *)
  check_int "fp chain depth" 13 stats.critical_path

let test_custom_latency () =
  let config =
    { Config.default with latency = (fun _ -> 1) }
  in
  let stats = Analyzer.analyze config (trace_of {|
main:   fli f1, 1.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        halt
|}) in
  check_int "unit latency chain" 3 stats.critical_path

(* --- value lifetimes and sharing ------------------------------------------- *)

let test_sharing_distribution () =
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7          # used 3 times
        add t1, t0, t0
        add t2, t0, t1
        halt
|}) in
  (* t0 used 3x (twice by first add, once by second), t1 once, t2 never *)
  check_int "three computed values" 3 (Dist.count stats.sharing);
  check_int "total uses" 4 (Dist.total stats.sharing);
  check_int "max sharing" 3 (Dist.max_value stats.sharing)

let test_lifetime_distribution () =
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7          # created at 0
        fli f1, 1.0
        fadd f2, f1, f1   # completes at 11
        add t1, t0, t0    # t0's last use, level 1
        add t2, t1, t1
        halt
|}) in
  Alcotest.(check bool) "t0 lifetime 1 recorded" true
    (Dist.count stats.lifetimes = 5);
  check_int "longest lifetime" 6 (Dist.max_value stats.lifetimes)

(* --- storage profile (section 2.3) ------------------------------------------ *)

let test_storage_profile () =
  (* li t0 (created 0, last use 1); add t1 (created 1, never used).
     Levels: 0 -> 1 live (t0), 1 -> 2 live (t0 until its use at 1, t1). *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7
        add t1, t0, t0
        halt
|}) in
  let p = stats.storage_profile in
  check_int "two values" 2 (Dist.count stats.sharing);
  check_int "liveness mass" 3 (Profile.total_ops p);
  Alcotest.(check (list int)) "live per level" [ 1; 2 ]
    (List.map (fun (_, _, avg) -> int_of_float avg) (Profile.series p))

let test_storage_profile_long_lived () =
  (* a value used far below its creation keeps a location busy throughout *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 1
        fli f1, 2.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        add t1, t0, t0     # t0 still live at level 1
        halt
|}) in
  Alcotest.(check bool) "storage spans deep levels" true
    (Profile.levels stats.storage_profile >= 12)

(* --- multiprocessor data sharing (section 2.3) ------------------------------- *)

let test_partition_sharing () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  (* one processor: everything internal *)
  let one = Ddg.partition_sharing ddg ~processors:1 ~scheme:`Contiguous in
  check_int "all internal" 7 one.internal_edges;
  check_int "no cross" 0 one.cross_edges;
  (* contiguous halves of the trace: loads+adds flow into the tail *)
  let two = Ddg.partition_sharing ddg ~processors:2 ~scheme:`Contiguous in
  check_int "edges conserved" 7 (two.internal_edges + two.cross_edges);
  Alcotest.(check bool) "some sharing across the halves" true
    (two.cross_edges > 0);
  check_int "node conservation" 8
    (Array.fold_left ( + ) 0 two.per_processor_nodes);
  (* round-robin scatters producers and consumers: at least as much
     sharing as contiguous for this chain-shaped graph *)
  let rr = Ddg.partition_sharing ddg ~processors:2 ~scheme:`Round_robin in
  Alcotest.(check bool) "round robin shares more" true
    (rr.cross_edges >= two.cross_edges)

let test_partition_sharing_rejects_zero () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  match Ddg.partition_sharing ddg ~processors:0 ~scheme:`Contiguous with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- two-pass mode (section 3.2, dead-value method 1) ------------------------ *)

let test_two_pass_matches_figure1 () =
  let trace = trace_of figure1 in
  let stats, peak = Two_pass.analyze Config.default trace in
  check_int "critical path" 4 stats.critical_path;
  check_int "placed" 8 stats.placed_ops;
  check_int "empty live well at end" 0 stats.live_locations;
  Alcotest.(check bool) "peak below total locations" true (peak <= 10)

let test_two_pass_annotations () =
  (* in "li t0; add t1, t0, t0; halt": the add's sources are t0's final
     references, and both destinations are final *)
  let trace = trace_of {|
main:   li t0, 7
        add t1, t0, t0
        halt
|} in
  let a = Two_pass.annotate trace in
  Alcotest.(check bool) "li dest not final (t0 read later)" false
    (Two_pass.final_dest a 0);
  Alcotest.(check bool) "add dest final" true (Two_pass.final_dest a 1);
  (* the same location twice: exactly one operand carries the flag *)
  let finals =
    List.length
      (List.filter Fun.id
         [ Two_pass.final_src a 1 0; Two_pass.final_src a 1 1 ])
  in
  check_int "one final flag for t0" 1 finals

(* --- branch-misprediction extension ----------------------------------------- *)

let branchy = {|
main:   li t0, 8
        li t1, 0
loop:   addi t1, t1, 1
        addi t0, t0, -1
        bnez t0, loop
        halt
|}

let test_branch_perfect_default () =
  let stats = Analyzer.analyze Config.default (trace_of branchy) in
  check_int "no mispredicts under perfect" 0 stats.mispredicts

let test_branch_mispredicts_deepen () =
  let trace = trace_of branchy in
  let perfect = Analyzer.analyze Config.default trace in
  let not_taken =
    Analyzer.analyze Config.(with_branch Predict_not_taken default) trace
  in
  Alcotest.(check bool) "mispredicts counted" true (not_taken.mispredicts >= 7);
  Alcotest.(check bool) "mispredicts deepen the DDG" true
    (not_taken.critical_path >= perfect.critical_path);
  let taken =
    Analyzer.analyze Config.(with_branch Predict_taken default) trace
  in
  Alcotest.(check bool) "predict-taken better here" true
    (taken.mispredicts < not_taken.mispredicts)

let test_two_bit_learns () =
  let trace = trace_of branchy in
  let two_bit =
    Analyzer.analyze Config.(with_branch (Two_bit 10) default) trace
  in
  (* loop branch taken 7 times then falls through: 2-bit counters
     mispredict at most the exit *)
  Alcotest.(check bool) "2-bit learns the loop" true (two_bit.mispredicts <= 2)

(* --- config describe -------------------------------------------------------- *)

let test_describe () =
  let s = Config.describe Config.default in
  Alcotest.(check bool) "mentions conservative" true
    (String.length s > 0 &&
     String.sub s 0 12 = "conservative")

let tests =
  [ Alcotest.test_case "figure 1: dataflow DDG" `Quick test_figure1;
    Alcotest.test_case "figure 2 renamed = figure 1" `Quick
      test_figure2_renamed;
    Alcotest.test_case "figure 2: storage deps" `Quick
      test_figure2_storage_deps;
    Alcotest.test_case "figure 1 unaffected by renaming" `Quick
      test_figure1_no_renaming_unchanged;
    Alcotest.test_case "figure 4: resource deps" `Quick test_figure4_resources;
    Alcotest.test_case "ddg matches analyzer" `Quick
      test_ddg_matches_analyzer_fig1;
    Alcotest.test_case "ddg edges (fig 1)" `Quick test_ddg_edges_fig1;
    Alcotest.test_case "ddg storage edges (fig 2)" `Quick
      test_ddg_storage_edges_fig2;
    Alcotest.test_case "ddg dot export" `Quick test_ddg_dot;
    Alcotest.test_case "syscall conservative vs optimistic" `Quick
      test_syscall_conservative;
    Alcotest.test_case "syscall firewall blocks" `Quick
      test_syscall_firewall_blocks;
    Alcotest.test_case "pre-existing data values" `Quick
      test_preexisting_values;
    Alcotest.test_case "pre-existing registers" `Quick test_preexisting_sp;
    Alcotest.test_case "window limits width" `Quick test_window_limits_width;
    Alcotest.test_case "window of one serialises" `Quick
      test_window_one_serialises;
    Alcotest.test_case "window keeps dataflow chains" `Quick
      test_window_preserves_dataflow_order;
    Alcotest.test_case "table 1 latencies deepen" `Quick test_latencies_deepen;
    Alcotest.test_case "custom latency table" `Quick test_custom_latency;
    Alcotest.test_case "sharing distribution" `Quick test_sharing_distribution;
    Alcotest.test_case "lifetime distribution" `Quick
      test_lifetime_distribution;
    Alcotest.test_case "partition sharing" `Quick test_partition_sharing;
    Alcotest.test_case "partition sharing rejects zero" `Quick
      test_partition_sharing_rejects_zero;
    Alcotest.test_case "two-pass matches figure 1" `Quick
      test_two_pass_matches_figure1;
    Alcotest.test_case "two-pass annotations" `Quick
      test_two_pass_annotations;
    Alcotest.test_case "storage profile" `Quick test_storage_profile;
    Alcotest.test_case "storage profile long-lived" `Quick
      test_storage_profile_long_lived;
    Alcotest.test_case "perfect branches by default" `Quick
      test_branch_perfect_default;
    Alcotest.test_case "mispredicts deepen" `Quick
      test_branch_mispredicts_deepen;
    Alcotest.test_case "2-bit predictor learns" `Quick test_two_bit_learns;
    Alcotest.test_case "config describe" `Quick test_describe;
    Alcotest.test_case "unit counts below 1 and negative latencies rejected"
      `Quick test_invalid_resources_rejected ]
