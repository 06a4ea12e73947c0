(* One pool = a capacity plus a dense cell per DDG level, covering the
   levels [base, base + Array.length cells); levels past the end have
   never been touched and are free. A level with room holds its use
   count, 0 .. capacity-1. A saturated level holds [capacity + k]: a
   link saying that levels up to [level + k] are saturated too, so the
   first candidate is [level + 1 + k]. A level's count reaching
   [capacity] is therefore already the link to its successor.

   Searches compress the links they walk (a linear scan is quadratic when
   capacity is small and every operation is ready early, e.g. one
   universal FU), and links are relative, so they survive the base
   sliding forward. The base follows the callers' floor: no query ever
   reaches below it, so the levels under it are dropped whenever the
   array has to grow, and memory tracks the span between the floor and
   the deepest level acquired instead of the trace length. *)
type pool = {
  capacity : int;
  mutable base : int;
  mutable cells : int array;
}

(* below every level: the first acquisition slides the base up to its
   floor *)
let unset = min_int / 2

let make_pool capacity =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Resources.create: %d functional units (need at least 1)"
         capacity);
  { capacity; base = unset; cells = [||] }

(* Follow links from [l] to the first level with room. *)
let rec walk cells base len cap l =
  let i = l - base in
  if i >= len then l
  else
    let c = Array.unsafe_get cells i in
    if c < cap then l else walk cells base len cap (l + 1 + c - cap)

(* Point every saturated level on the walk from [l] straight at
   [target]. *)
let rec compress cells base cap target l =
  if l < target then begin
    let i = l - base in
    let next = l + 1 + Array.unsafe_get cells i - cap in
    Array.unsafe_set cells i (cap + (target - l - 1));
    compress cells base cap target next
  end

let first_free p level =
  let base = p.base in
  if level < base then
    invalid_arg "Resources.place: level below the placement floor";
  let cells = p.cells and cap = p.capacity in
  let target = walk cells base (Array.length cells) cap level in
  if target > level + 1 then compress cells base cap target level;
  target

(* Make room for [level]: slide the base up to [floor], dropping the
   levels below it, and double the array while the live span would fill
   more than half of it (so a slide always buys at least half an array
   of fresh levels, and sliding stays amortised O(1) per level). *)
let grow p ~floor level =
  let old = p.cells and old_base = p.base in
  let len = Array.length old in
  let base = if floor > old_base then floor else old_base in
  let span = level - base + 1 in
  let keep = old_base + len - base in
  let size =
    let n = ref (max 64 len) in
    while !n < 2 * span do
      n := 2 * !n
    done;
    !n
  in
  let cells = if size = len then old else Array.make size 0 in
  if keep > 0 then Array.blit old (base - old_base) cells 0 keep;
  if cells == old then Array.fill cells (max 0 keep) (len - max 0 keep) 0;
  p.cells <- cells;
  p.base <- base

let acquire p ~floor level =
  if level - p.base >= Array.length p.cells then grow p ~floor level;
  let i = level - p.base in
  Array.unsafe_set p.cells i (Array.unsafe_get p.cells i + 1)

type t = {
  by_class : pool array array;  (* opclass tag -> the pools it draws on *)
  unlimited : bool;
}

let create (limits : Config.fu_limits) =
  let mk = Option.map make_pool in
  let total = mk limits.total
  and int_units = mk limits.int_units
  and fp_units = mk limits.fp_units
  and mem_units = mk limits.mem_units in
  let class_pool : Ddg_isa.Opclass.t -> pool option = function
    | Int_alu | Int_multiply | Int_divide -> int_units
    | Fp_add_sub | Fp_multiply | Fp_divide -> fp_units
    | Load_store -> mem_units
    | Syscall | Control -> None
  in
  {
    by_class =
      Array.init Ddg_isa.Opclass.count (fun tag ->
          Array.of_list
            (List.filter_map Fun.id
               [ total; class_pool (Ddg_isa.Opclass.of_tag tag) ]));
    unlimited = limits = Config.unlimited_fu;
  }

let unlimited t = t.unlimited

(* iterate until a level has room in every pool *)
let rec common_free pools level =
  let l = ref level in
  for k = 0 to Array.length pools - 1 do
    l := first_free (Array.unsafe_get pools k) !l
  done;
  if !l = level then level else common_free pools !l

let place t ~floor ~tag level =
  if level < floor then
    invalid_arg "Resources.place: level below the placement floor";
  match t.by_class.(tag) with
  | [||] -> level
  | [| p |] ->
      let level = first_free p level in
      acquire p ~floor level;
      level
  | pools ->
      let level = common_free pools level in
      for k = 0 to Array.length pools - 1 do
        acquire (Array.unsafe_get pools k) ~floor level
      done;
      level
