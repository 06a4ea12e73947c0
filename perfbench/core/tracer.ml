(* The traced run's span recorder. The benchmark wraps each call it makes
   into a layer of the program in a span (name, layer, start, end, parent);
   spans of one job or request share its id. Spans stay in memory until
   the run ends. A disabled tracer runs the wrapped call and records
   nothing, so the untraced run pays one branch per call.

   A layer's self time is its spans' durations minus the part covered by
   their direct children. Root spans belong to the pseudo-layer [root]
   (one per benchmark operation); their self time is the part of an
   operation spent outside every layer call: the unaccounted remainder. *)

type span = {
  sid : int;
  rid : int;  (** the job or request this span belongs to *)
  parent : int;  (** [sid] of the enclosing span, -1 for a root *)
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
}

let root = "op"

type t = {
  on : bool;
  clock : unit -> float;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~clock ~on = { on; clock; lock = Mutex.create (); next = 0; spans = [] }
let enabled t = t.on

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh t =
  locked t (fun () ->
      let sid = t.next in
      t.next <- sid + 1;
      sid)

let push t s = locked t (fun () -> t.spans <- s :: t.spans)

(* A span measured elsewhere (a server-side histogram sum, a client-timed
   request): recorded with its interval as given. Returns its [sid]. *)
let record t ?(parent = -1) ~rid ~layer ~name ~t0 ~t1 () =
  if not t.on then -1
  else begin
    let sid = fresh t in
    push t { sid; rid; parent; layer; name; t0; t1 };
    sid
  end

let span t ?(parent = -1) ~rid ~layer name f =
  if not t.on then f (-1)
  else begin
    let sid = fresh t in
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () -> push t { sid; rid; parent; layer; name; t0; t1 = t.clock () })
      (fun () -> f sid)
  end

let spans t = locked t (fun () -> List.rev t.spans)

let duration s = s.t1 -. s.t0

(* Self time of every span, grouped by layer in first-seen order, root
   pseudo-layer included. *)
let self_times t =
  let all = spans t in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    all;
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.sid)
      in
      match Hashtbl.find_opt acc s.layer with
      | Some l -> Hashtbl.replace acc s.layer (self :: l)
      | None ->
          order := s.layer :: !order;
          Hashtbl.add acc s.layer [ self ])
    all;
  List.rev_map (fun l -> (l, List.rev (Hashtbl.find acc l))) !order

(* Total wall time of the root spans: the denominator of every share. *)
let root_total t =
  List.fold_left
    (fun a s -> if s.parent < 0 then a +. duration s else a)
    0. (spans t)

let durations t ~layer =
  List.filter_map (fun s -> if s.layer = layer then Some (duration s) else None) (spans t)
