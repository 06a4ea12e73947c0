(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--paragraph PATH] [--out FILE]
     main.exe compare OLD.jsonl NEW.jsonl

   Run from the repository root (perfbench/run.sh builds and starts it).
   A run prints every metric by name and unit (timings with median,
   quartiles and sample count), the machine metadata and the skipped
   measurements, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   of BENCHMARK.json untraced, its per-layer metrics traced. Any output
   that differs from its reference makes the run exit 1. *)

open Perfbench_core
open Common

let workloads =
  [ ("suite_cold", (Suite_cold.end_to_end, Suite_cold.per_layer));
    ("analyze_large", (Analyze_large.end_to_end, Analyze_large.per_layer));
    ("serve_mixed", (Serve_mixed.end_to_end, Serve_mixed.per_layer)) ]

let die code fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit code) fmt

(* --- machine metadata ------------------------------------------------------- *)

let read_trim path = String.trim (In_channel.with_open_bin path In_channel.input_all)

let commit () =
  match read_trim ".git/HEAD" with
  | exception Sys_error _ -> "unknown (not a git checkout)"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_trim (Filename.concat ".git" r) with
      | h -> h
      | exception Sys_error _ -> "unknown (" ^ r ^ ")")
  | h -> h

(* A digest of the program's sources, which identifies the code measured
   where no commit id is available. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  let all = List.concat_map files [ "lib"; "bin" ] @ [ "dune-project" ] in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

let meta () =
  [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version); ("commit", Json.Str (commit ()));
    ("source_digest", Json.Str (source_digest ()));
    ("size", Json.Str (W.size_to_string size)) ]

let skipped () =
  let n = Domain.recommended_domain_count () in
  [ ( "parallel_scaling",
      Printf.sprintf "cores=%d: a worker-count sweep needs more cores than the workers it compares" n );
    ( "cluster_router",
      Printf.sprintf
        "cores=%d: a router and two or more backend daemons need more processes than the cores can run steadily"
        n ) ]

(* --- the declared metric set ------------------------------------------------ *)

let declared benchmark key =
  match Json.member key benchmark with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Option.bind (Json.member "name" m) Json.to_str, Option.bind (Json.member "unit" m) Json.to_str) with
          | Some n, Some u -> (n, u)
          | _ -> die 3 "BENCHMARK.json: %s entry without name or unit" key)
        ms
  | _ -> die 3 "BENCHMARK.json: no %s list" key

(* The run reports exactly the declared metrics, in their declared units.
   A per-layer metric of a layer this workload does not run reads 0 (a
   timing with n = 0). *)
let conform ctx decl ~fill =
  if fill then
    List.iter
      (fun (name, unit_) ->
        if not (Emit.mem ctx.emit name) then
          add ctx ?dist:(if Emit.is_timing unit_ then Some Emit.no_samples else None) name unit_ 0.)
      decl;
  List.iter
    (fun (m : Emit.metric) ->
      match List.assoc_opt m.name decl with
      | Some u when u = m.unit_ -> ()
      | Some u -> die 3 "metric %s in %s, BENCHMARK.json declares %s" m.name m.unit_ u
      | None -> die 3 "metric %s is not declared in BENCHMARK.json" m.name)
    (Emit.metrics ctx.emit);
  List.iter
    (fun (name, _) -> if not (Emit.mem ctx.emit name) then die 3 "declared metric %s not measured" name)
    decl

(* --- running ---------------------------------------------------------------- *)

let append_line file line =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
      output_string oc (line ^ "\n"))

let run ~workload ~seed ~seconds ~traced ~paragraph ~out =
  let end_to_end, per_layer =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        die 2 "unknown workload %s (known: %s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  let benchmark =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | j -> j
    | exception (Sys_error _ | Json.Parse_error _) -> die 3 "cannot read BENCHMARK.json in the current directory"
  in
  if not (Sys.file_exists paragraph) then die 2 "no paragraph binary at %s" paragraph;
  let work = Filename.concat ".bench_build" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  let ctx =
    { seed; seconds; traced; paragraph; work; emit = Emit.create ();
      tracer = Tracer.create ~clock:now ~on:traced; attempted = 0; failed = 0; mismatches = [] }
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" workload seed seconds
    (if traced then 1 else 0);
  Fun.protect ~finally:(fun () -> rm_rf work) (fun () ->
      if traced then per_layer ctx else end_to_end ctx);
  let failed = ctx.failed in
  let attempted = max ctx.attempted failed in
  if traced then begin
    add ctx "error_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
    conform ctx (declared benchmark "per_layer") ~fill:true
  end
  else conform ctx (declared benchmark "end_to_end") ~fill:false;
  let meta = meta () and skipped = skipped () in
  Printf.printf "meta %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ (match v with Json.Str s -> s | v -> Json.to_string v)) meta));
  List.iter (fun (k, why) -> Printf.printf "skipped %s: %s\n" k why) skipped;
  Printf.printf "error_ratio %d/%d\n" failed attempted;
  List.iter (fun m -> print_endline (Emit.human_line m)) (Emit.metrics ctx.emit);
  let correct = ctx.mismatches = [] && failed = 0 in
  Option.iter
    (fun file ->
      append_line file
        (Json.to_string
           (Json.Obj
              [ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
                ("seconds", Json.Num seconds); ("trace", Json.Num (if traced then 1. else 0.));
                ("meta", Json.Obj meta);
                ("skipped", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) skipped));
                ("correct", Json.Bool correct);
                ("attempted", Json.Num (float_of_int attempted));
                ("failed", Json.Num (float_of_int failed));
                ( "metrics",
                  Json.Obj (List.map (fun (m : Emit.metric) -> (m.name, Emit.metric_json m)) (Emit.metrics ctx.emit)) ) ])))
    out;
  print_endline (Emit.result_line ~correct ~attempted ~failed ctx.emit);
  if not correct then exit 1

let usage () =
  die 2
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--paragraph PATH] [--out FILE]\n\
    \       main.exe compare OLD NEW"

let () =
  (* an interrupted run must not leave a daemon behind *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Serve_mixed.stop_children (); exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match Array.to_list Sys.argv |> List.tl with
  | [ "compare"; old_file; new_file ] ->
      if Compare.run ~old_file ~new_file then exit 1
  | "compare" :: _ -> usage ()
  | args ->
      let get = Hashtbl.create 8 in
      let rec parse = function
        | k :: v :: tl when String.starts_with ~prefix:"--" k -> Hashtbl.replace get k v; parse tl
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      let req k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (req k) with Some n -> n | None -> usage () in
      let seconds = int "--seconds" in
      if seconds < 1 then usage ();
      let traced = match req "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      run ~workload:(req "--workload") ~seed:(int "--seed") ~seconds:(float_of_int seconds) ~traced
        ~paragraph:(Option.value ~default:"_build/default/bin/paragraph.exe" (Hashtbl.find_opt get "--paragraph"))
        ~out:(Hashtbl.find_opt get "--out")
