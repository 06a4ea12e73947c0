(* Compare two result files (one JSON object per run, as written by
   [--out]) metric by metric against the bounds in BENCHMARK.json.

   For every workload and end-to-end metric the verdict is:
   - unresolved: the run-to-run spread (inter-quartile distance over the
     median, the wider of the two sides) exceeds the bound, so a change
     of the size the bound allows cannot be told from noise; unless every
     new run reads better than every old run;
   - regressed: the new median is worse than the old by more than the bound;
   - improved: the new median is better by more than the bound;
   - unchanged: otherwise. *)

type bound = { metric : string; lower_is_better : bool; bound : float }

type verdict = Unchanged | Improved | Regressed | Unresolved

let verdict_name = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let fail fmt = Printf.ksprintf failwith fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let bounds_of_benchmark json =
  match Json.member "end_to_end" json with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          let str k =
            match Option.bind (Json.member k m) Json.to_str with
            | Some s -> s
            | None -> fail "BENCHMARK.json: end_to_end entry without %S" k
          in
          let bound =
            match Option.bind (Json.member "bound" m) Json.to_num with
            | Some b -> b
            | None -> fail "BENCHMARK.json: end_to_end entry without \"bound\""
          in
          { metric = str "name"; lower_is_better = str "better" = "lower"; bound })
        ms
  | _ -> fail "BENCHMARK.json: no end_to_end list"

(* The untraced runs of a result file, as (workload, metric -> value). *)
let runs_of_lines lines =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = Json.of_string line in
        let workload = Option.bind (Json.member "workload" j) Json.to_str in
        let traced = Option.bind (Json.member "trace" j) Json.to_num in
        match (workload, traced, Json.member "metrics" j) with
        | Some w, Some 0., Some (Json.Obj ms) ->
            Some
              ( w,
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun x -> (k, x))
                      (Option.bind (Json.member "value" v) Json.to_num))
                  ms )
        | Some _, Some _, Some _ -> None
        | _ -> fail "result line without workload, trace or metrics")
    lines

type row = {
  workload : string;
  b : bound;
  old_s : Emit.summary;
  new_s : Emit.summary;
  worse_by : float;  (** relative change of the median; positive is worse *)
  spread : float;
  verdict : verdict;
}

let judge b old_vals new_vals =
  let old_s = Emit.summarize old_vals and new_s = Emit.summarize new_vals in
  let rel = (new_s.median -. old_s.median) /. Float.abs old_s.median in
  let worse_by = if b.lower_is_better then rel else -.rel in
  let spread = Float.max (Emit.spread old_s) (Emit.spread new_s) in
  let better x y = if b.lower_is_better then x < y else x > y in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> better n o) old_vals) new_vals
  in
  let verdict =
    if spread > b.bound && not all_better then Unresolved
    else if worse_by > b.bound then Regressed
    else if -.worse_by > b.bound then Improved
    else Unchanged
  in
  (old_s, new_s, worse_by, spread, verdict)

let rows bounds old_runs new_runs =
  let workloads =
    List.sort_uniq compare (List.map fst old_runs)
    |> List.filter (fun w -> List.mem_assoc w new_runs)
  in
  List.concat_map
    (fun w ->
      let values runs metric =
        List.filter_map
          (fun (w', ms) -> if w' = w then List.assoc_opt metric ms else None)
          runs
      in
      List.filter_map
        (fun b ->
          match (values old_runs b.metric, values new_runs b.metric) with
          | [], _ | _, [] -> None
          | o, n ->
              let old_s, new_s, worse_by, spread, verdict = judge b o n in
              Some { workload = w; b; old_s; new_s; worse_by; spread; verdict })
        bounds)
    workloads

let render rows =
  let header =
    Printf.sprintf "%-14s %-16s %14s %14s %9s %7s %7s  %s" "workload" "metric"
      "old median" "new median" "worse by" "bound" "spread" "verdict"
  in
  header
  :: List.map
       (fun r ->
         Printf.sprintf "%-14s %-16s %14.6g %14.6g %+8.1f%% %6.1f%% %6.1f%%  %s (%d vs %d runs, %s)"
           r.workload r.b.metric r.old_s.median r.new_s.median
           (100. *. r.worse_by) (100. *. r.b.bound) (100. *. r.spread)
           (verdict_name r.verdict) r.old_s.n r.new_s.n
           (if r.b.lower_is_better then "lower is better" else "higher is better"))
       rows

let run ~old_file ~new_file =
  let bounds = bounds_of_benchmark (Json.of_string (read_file "BENCHMARK.json")) in
  let lines f = String.split_on_char '\n' (read_file f) in
  let rows = rows bounds (runs_of_lines (lines old_file)) (runs_of_lines (lines new_file)) in
  if rows = [] then fail "no workload has untraced runs in both files";
  List.iter print_endline (render rows);
  List.exists (fun r -> r.verdict = Regressed) rows
