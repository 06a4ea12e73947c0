(* The benchmark's metric emitter. Every metric a run reports passes
   through one registry, which enforces the output rules:

   - names match [A-Za-z0-9_.-]+, start with a letter or digit and are at
     most 64 bytes; units are at most 16 bytes of [A-Za-z0-9_/%.-];
   - a name is registered at most once per run: a second [add] under the
     same name raises instead of silently replacing the first value;
   - a timing (unit s or ms) carries the distribution it was computed
     from, so its median, quartiles and sample count are always printed
     with it;
   - values are finite, so the result line is valid JSON. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Quartiles by the same rule as Python's statistics.quantiles(data, n=4)
   (the default "exclusive" method), so spreads computed here match the
   ones computed from the result files by any other tool. *)
let quartiles sorted =
  let ld = Array.length sorted in
  if ld = 0 then invalid_arg "Emit.quartiles: no samples";
  if ld = 1 then (sorted.(0), sorted.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta))
      +. (sorted.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let sorted_array samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Emit.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median samples = median_sorted (sorted_array samples)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile samples p =
  let a = sorted_array samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Emit.percentile: no samples";
  let r = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate r in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let summarize samples =
  let a = sorted_array samples in
  let q1, q3 = quartiles a in
  { median = median_sorted a; q1; q3; n = Array.length a }

(* Relative spread: inter-quartile distance as a share of the median. *)
let spread s = if s.median = 0. then infinity else (s.q3 -. s.q1) /. Float.abs s.median

type metric = {
  name : string;
  unit_ : string;
  value : float;
  dist : summary option;  (** the samples the value was computed from *)
}

type t = { mutable rev : metric list; seen : (string, unit) Hashtbl.t }

let create () = { rev = []; seen = Hashtbl.create 64 }

let name_ok s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n > 0 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s

let is_timing unit_ = unit_ = "s" || unit_ = "ms"

(* The distribution of a timing whose layer did no work in this run. *)
let no_samples = { median = 0.; q1 = 0.; q3 = 0.; n = 0 }

let add t ?dist ~name ~unit_ value =
  if not (name_ok name) then invalid_arg ("Emit.add: bad metric name " ^ name);
  if not (unit_ok unit_) then invalid_arg ("Emit.add: bad unit for " ^ name);
  if Hashtbl.mem t.seen name then
    invalid_arg ("Emit.add: duplicate metric " ^ name);
  if not (Float.is_finite value) then
    invalid_arg ("Emit.add: non-finite value for " ^ name);
  if dist = None && is_timing unit_ then
    invalid_arg ("Emit.add: timing without its distribution: " ^ name);
  Hashtbl.add t.seen name ();
  t.rev <- { name; unit_; value; dist } :: t.rev

let metrics t = List.rev t.rev
let mem t name = Hashtbl.mem t.seen name

let human_line m =
  let base = Printf.sprintf "%-34s %14s %s" m.name (Json.number_to_string m.value) m.unit_ in
  match m.dist with
  | None -> base
  | Some d ->
      Printf.sprintf "%s  (median %s, q1 %s, q3 %s, n %d)" base
        (Json.number_to_string d.median) (Json.number_to_string d.q1)
        (Json.number_to_string d.q3) d.n

let metric_json m =
  let base = [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] in
  match m.dist with
  | None -> Json.Obj base
  | Some d ->
      Json.Obj
        (base
        @ [ ("median", Json.Num d.median); ("q1", Json.Num d.q1);
            ("q3", Json.Num d.q3); ("n", Json.Num (float_of_int d.n)) ])

(* The last line of a run's standard output. [metrics] carries only value
   and unit, the shape the result contract fixes; the distributions go to
   the human lines and to the result file. *)
let result_line ~correct ~attempted ~failed t =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                (metrics t)) ) ])
