(* serve_mixed: a separate `paragraph serve` daemon (Default size, fresh
   cache directory, -j nproc, a trace budget below the working set) driven
   by nproc closed-loop connections from this process: callers wait for
   each reply before sending the next request.

   Each connection sends blocks of 40 requests in a seeded order: 37
   Analyze hits over the served workloads × five hot configurations
   (Zipf-ranked, short-window and other large-result configurations
   first, so about three quarters of all requests are large-result hits
   and the median falls inside that class), 2 Advise hits, and 1 Analyze
   of a configuration never requested before (a window size drawn fresh).
   Those misses are 2.5 % of the requests, so the 99th percentile falls
   inside the miss class, at its 60th percentile, and not on the boundary
   between two classes; a miss analyzes a trace that the budget may have
   evicted, so trace reloads from the store run alongside stats writes. *)

open Perfbench_core
open Common
module Protocol = Ddg_protocol.Protocol
module Client = Ddg_server.Client
module Advise_codec = Ddg_advise.Advise_codec

let setup_reps = 3
let block = 40

(* One flat trace (57-66 MB mapped) fits the budget, two do not: a miss on
   another workload than the last one reloads its trace from the store. *)
let trace_budget_mib = 100

let hot_configs =
  let open Config in
  [ with_window (Some 100) default; with_branch (Two_bit 12) default;
    with_renaming rename_none default; default; dataflow ]

let advise_config = Config.default

(* --- the daemon ------------------------------------------------------------- *)

type daemon = { pid : int; endpoint : Ddg_server.Server.endpoint; cache : string }

let workers () = Domain.recommended_domain_count ()

(* Daemons started and not yet reaped, so that an interrupted run still
   stops them (see [stop_children]). *)
let children = ref []

let stop_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let start ctx =
  let cache = fresh_dir ctx "cache" in
  let socket = Filename.concat cache "d.sock" in
  let log = Unix.openfile (Filename.concat ctx.work "daemon.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [| ctx.paragraph; "serve"; "--socket"; socket; "--cache-dir"; cache; "--size"; "default";
       "-j"; string_of_int (workers ()); "--trace-budget"; string_of_int trace_budget_mib |]
  in
  let pid = Unix.create_process ctx.paragraph args null log log in
  Unix.close null;
  Unix.close log;
  children := pid :: !children;
  { pid; endpoint = `Unix socket; cache }

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline -> Unix.sleepf 0.02; wait_exit pid deadline
  | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
  | _ -> children := List.filter (( <> ) pid) !children
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline

let stop d =
  (try Client.with_connection d.endpoint (fun c -> ignore (Client.request c Protocol.Shutdown))
   with _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  wait_exit d.pid (now () +. 20.)

(* Stop the daemon however the run ends. *)
let with_daemon d f = Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

let request c req =
  match Client.request c req with
  | r -> r
  | exception Client.Server_error e ->
      failwith (Printf.sprintf "%s: %s" (Protocol.error_code_name e.code) e.message)

(* Run [f] on [n] domains, each with its own connection. *)
let on_connections d n f =
  List.init n (fun i ->
      Domain.spawn (fun () -> Client.with_connection d.endpoint (fun c -> f i c)))
  |> List.map Domain.join

let split n i l = List.filteri (fun j _ -> j mod n = i) l

let metrics c =
  match request c Protocol.Metrics with
  | Protocol.Metrics_snapshot s -> s
  | _ -> failwith "metrics verb: unexpected reply"

let telemetry c =
  match request c Protocol.Server_stats with
  | Protocol.Telemetry t -> t
  | _ -> failwith "stats verb: unexpected reply"

(* Start a daemon, wait for its first ping, then warm every trace, hot
   result and advisor report the timed phase will ask for. Returns the
   daemon, the set-up time, the trace length of each served workload and
   the daemon's metrics right after the first ping. *)
let setup ctx served =
  let t0 = now () in
  let d = start ctx in
  match
    let s0 =
      Client.with_connection ~retry_for_s:60. d.endpoint (fun c ->
          ignore (request c (Protocol.Ping { delay_ms = 0 }));
          metrics c)
    in
    let n = workers () in
    let events =
      on_connections d n (fun i c ->
          List.map
            (fun name ->
              match request c (Protocol.Simulate { workload = name }) with
              | Protocol.Simulated s -> (name, s.trace_events)
              | _ -> failwith "simulate verb: unexpected reply")
            (split n i served))
      |> List.concat
    in
    let warm =
      List.concat_map
        (fun name ->
          Protocol.Advise { workload = name; config = advise_config }
          :: List.map (fun config -> Protocol.Analyze { workload = name; config }) hot_configs)
        served
    in
    ignore (on_connections d n (fun i c -> List.iter (fun r -> ignore (request c r)) (split n i warm)));
    (now () -. t0, events, s0)
  with
  | t, events, s0 -> (d, t, events, s0)
  | exception e -> stop d; raise e

(* --- the request stream ----------------------------------------------------- *)

type kind = Hit | Advise_hit | Miss

type req = { kind : kind; workload : string; config : Config.t }

let zipf_pick r weights =
  let total = List.fold_left ( +. ) 0. weights in
  let x = Random.State.float r total in
  let rec go i acc = function
    | [] -> i - 1
    | w :: tl -> if x < acc +. w then i else go (i + 1) (acc +. w) tl
  in
  go 0 0. weights

(* Connection [cid]'s stream. Miss windows are disjoint across connections
   and phases, so every miss is a key no request asked for before. *)
let stream ctx ~served ~cid ~misses =
  let r = Random.State.make [| ctx.seed; 5; cid |] in
  let base = 2000 + Random.State.int (rng ctx 6) 2000 in
  let served = Array.of_list served in
  let weights = List.mapi (fun i _ -> 1. /. float_of_int (i + 1)) hot_configs in
  let slots = ref [] in
  fun () ->
    if !slots = [] then
      slots :=
        shuffle r
          (Miss :: Advise_hit :: Advise_hit :: List.init (block - 3) (fun _ -> Hit));
    let kind = List.hd !slots in
    slots := List.tl !slots;
    let workload = served.(Random.State.int r (Array.length served)) in
    let config =
      match kind with
      | Hit -> List.nth hot_configs (zipf_pick r weights)
      | Advise_hit -> advise_config
      | Miss ->
          incr misses;
          Config.with_window (Some (base + (workers () * !misses) + cid)) Config.default
    in
    { kind; workload; config }

let to_protocol q =
  match q.kind with
  | Hit | Miss -> Protocol.Analyze { workload = q.workload; config = q.config }
  | Advise_hit -> Protocol.Advise { workload = q.workload; config = q.config }

type reply = {
  q : req;
  latency : float;
  ok : bool;
  differs : bool;  (** the reply differs from an earlier reply of its key *)
  probe : (float * float * int) option;  (** codec encode s, decode s, frame bytes *)
  frame_decode : float option;  (** the request frame's decode, s *)
}

(* Served results by key: the first reply of each key is kept, every
   later reply of that key must equal it. *)
type seen = {
  stats : (string * string, Config.t * Analyzer.stats) Hashtbl.t;
  advice : (string * string, Ddg_advise.Advise.t) Hashtbl.t;
}

let probe resp =
  match resp with
  | Protocol.Analyzed s ->
      let enc, e = timed (fun () -> Stats_codec.to_string s) in
      let _, d = timed (fun () -> Stats_codec.of_string enc) in
      Some (e, d, String.length (Protocol.frame_to_string (Protocol.Ok_response resp)))
  | _ -> None

(* The daemon decodes each request frame inside its blocking frame read,
   whose span also holds the wait for the client's next request; the same
   decode is timed here on the frame the client sends. *)
let frame_decode q =
  let frame = Protocol.frame_to_string (Request { deadline_ms = 0; attempt = 0; request = to_protocol q }) in
  snd (timed (fun () -> Protocol.frame_of_string frame))

let client_loop ~tracer ~endpoint ~deadline ~next ~cid seen =
  let conn = ref (Client.connect endpoint) in
  let rec go i acc =
    if now () >= deadline then List.rev acc
    else begin
      let q = next () in
      let t0 = now () in
      let outcome = try Ok (Client.request !conn (to_protocol q)) with e -> Error e in
      let t1 = now () in
      ignore
        (Tracer.record tracer ~rid:((cid * 1_000_000) + i) ~layer:Tracer.root
           ~name:(Protocol.verb_name (to_protocol q)) ~t0 ~t1 ());
      let key = (q.workload, describe q.config) in
      let consistent =
        match outcome with
        | Ok (Protocol.Analyzed s) when q.kind <> Advise_hit -> (
            match Hashtbl.find_opt seen.stats key with
            | None -> Hashtbl.add seen.stats key (q.config, s); true
            | Some (_, first) -> compare first s = 0)
        | Ok (Protocol.Advised a) when q.kind = Advise_hit -> (
            match Hashtbl.find_opt seen.advice key with
            | None -> Hashtbl.add seen.advice key a; true
            | Some first -> compare first a = 0)
        | _ -> false
      in
      (match outcome with
      | Ok _ -> ()
      | Error e -> (
          prerr_endline ("perfbench: request failed: " ^ Printexc.to_string e);
          match e with
          | Client.Server_error _ -> ()
          | _ ->
              Client.close !conn;
              conn := Client.connect ~retry_for_s:5. endpoint));
      let traced = Tracer.enabled tracer in
      let probe = match outcome with Ok resp when traced -> probe resp | _ -> None in
      let frame_decode = if traced then Some (frame_decode q) else None in
      let differs = Result.is_ok outcome && not consistent in
      go (i + 1) ({ q; latency = t1 -. t0; ok = consistent; differs; probe; frame_decode } :: acc)
    end
  in
  Fun.protect ~finally:(fun () -> Client.close !conn) (fun () -> go 0 [])

type phase = { replies : reply list; wall : float }

let timed_phase ~tracer ~endpoint ~seconds ~streams ~seen =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let replies =
    List.mapi
      (fun cid next ->
        Domain.spawn (fun () ->
            client_loop ~tracer ~endpoint ~deadline ~next ~cid (List.nth seen cid)))
      streams
    |> List.concat_map Domain.join
  in
  { replies; wall = now () -. t0 }

(* --- correctness ------------------------------------------------------------ *)

(* Every served result, re-encoded, must be byte-equal to the same key
   computed in this process after the timed phase. *)
let verify ctx ~served seens =
  let stats = Hashtbl.create 64 and advice = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.iter (fun k v -> if not (Hashtbl.mem stats k) then Hashtbl.add stats k v) s.stats;
      Hashtbl.iter (fun k v -> if not (Hashtbl.mem advice k) then Hashtbl.add advice k v) s.advice)
    seens;
  let oracle_name = List.nth served (Random.State.int (rng ctx 7) (List.length served)) in
  List.iter
    (fun name ->
      let w = workload name in
      let result, tr = W.trace w size in
      self_check ctx w result;
      let keys =
        Hashtbl.fold (fun (n, _) cs acc -> if n = name then cs :: acc else acc) stats []
      in
      (* the daemon has stopped: every core is free *)
      let mine = Analyzer.analyze_many ~max_domains:(workers ()) (List.map fst keys) tr in
      List.iter2
        (fun (c, served_s) s ->
          check ctx
            (Stats_codec.to_string served_s = Stats_codec.to_string s)
            "%s [%s]: served Analyzed differs from the in-process result" name (describe c))
        keys mine;
      if name = oracle_name then begin
        let c = List.hd hot_configs in
        match List.find_opt (fun (k, _) -> describe k = describe c) keys with
        | Some (_, s) -> oracle_check ctx ~label:(name ^ " " ^ describe c) c tr s
        | None -> ()
      end;
      match Hashtbl.find_opt advice (name, describe advise_config) with
      | None -> ()
      | Some a ->
          let _, mtr = W.trace ~marks:true w size in
          let mine = Ddg_advise.Advise.analyze ~config:advise_config mtr in
          check ctx
            (Advise_codec.to_string a = Advise_codec.to_string mine)
            "%s: served Advised differs from the in-process report" name)
    served

(* --- metrics ---------------------------------------------------------------- *)

let served_events events replies =
  List.fold_left
    (fun a r -> if r.ok && r.q.kind <> Advise_hit then a + List.assoc r.q.workload events else a)
    0 replies

let new_seen () = { stats = Hashtbl.create 64; advice = Hashtbl.create 8 }

let prepare ctx =
  let served = shuffle (rng ctx 1) large_pool in
  note "inputs %s" (String.concat " " served);
  let reps =
    List.init setup_reps (fun i ->
        let d, t, events, s0 = setup ctx served in
        if i < setup_reps - 1 then begin
          stop d;
          rm_rf d.cache
        end;
        (d, t, events, s0))
  in
  let d, _, events, s0 = List.nth reps (setup_reps - 1) in
  (served, List.map (fun (_, t, _, _) -> t) reps, d, events, s0)

let count_phase ctx p =
  List.iter
    (fun r ->
      (* a differing reply is counted once, as a mismatch *)
      attempt ctx ~ok:(r.ok || r.differs);
      if r.differs then
        mismatch ctx "%s [%s]: reply differs from an earlier reply" r.q.workload
          (describe r.q.config))
    p.replies;
  List.iter
    (fun (kind, label) ->
      match List.filter_map (fun r -> if r.q.kind = kind then Some (r.latency *. 1e3) else None) p.replies with
      | [] -> ()
      | l ->
          Printf.printf "class %-6s n=%d median=%.3f ms p90=%.3f ms\n" label (List.length l) (Emit.median l)
            (Emit.percentile l 90.))
    [ (Hit, "hit"); (Advise_hit, "advise"); (Miss, "miss") ]

let end_to_end ctx =
  let served, setups, d, events, _ = prepare ctx in
  let seens = List.init (workers ()) (fun _ -> new_seen ()) in
  let p, peak =
    with_daemon d (fun d ->
        let streams = List.init (workers ()) (fun cid -> stream ctx ~served ~cid ~misses:(ref 0)) in
        (* the timed phase's peak, not the set-up's *)
        if not (rearm_peak_rss d.pid) then note "cannot re-arm the daemon's VmHWM; peak_rss_mib includes set-up";
        let p = timed_phase ~tracer:ctx.tracer ~endpoint:d.endpoint ~seconds:ctx.seconds ~streams ~seen:seens in
        (p, peak_rss_mib (Some d.pid)))
  in
  rm_rf d.cache;
  count_phase ctx p;
  verify ctx ~served seens;
  let lat = List.map (fun r -> r.latency *. 1e3) p.replies in
  let ok = List.length (List.filter (fun r -> r.ok) p.replies) in
  add_samples ctx "setup_s" "s" ~value:(Emit.median setups) setups;
  add ctx "events_per_s" "1/s" (rate (served_events events p.replies) p.wall);
  add ctx "requests_per_s" "1/s" (rate ok p.wall);
  add_samples ctx "latency_p50_ms" "ms" ~value:(Emit.median lat) lat;
  add_samples ctx "latency_p99_ms" "ms" ~value:(Emit.percentile lat 99.) lat;
  add ctx "peak_rss_mib" "MiB" peak

(* The traced run. Set-up as in the untraced run, then the first half of
   the time untraced and the second half with a span around every client
   request and the result codec timed on each reply. The daemon's layers
   are read from its own Obs histograms and counters over the metrics
   verb, diffed across the traced half; they become child spans of one
   zero-length aggregate root, so per-layer self times sum correctly. *)
let per_layer ctx =
  let served, _, d, events, s0 = prepare ctx in
  let n = workers () in
  let seens = List.init n (fun _ -> new_seen ()) in
  let misses = List.init n (fun _ -> ref 0) in
  let streams () = List.init n (fun cid -> stream ctx ~served ~cid ~misses:(List.nth misses cid)) in
  let off = Tracer.create ~clock:now ~on:false in
  let a, b, s1, sb, s2, t2, bytes =
    with_daemon d (fun d ->
        let s1 = Client.with_connection d.endpoint metrics in
        let half = ctx.seconds /. 2. in
        let a = timed_phase ~tracer:off ~endpoint:d.endpoint ~seconds:half ~streams:(streams ()) ~seen:seens in
        let bytes0 = tree_bytes d.cache in
        let sb = Client.with_connection d.endpoint metrics in
        let b = timed_phase ~tracer:ctx.tracer ~endpoint:d.endpoint ~seconds:half ~streams:(streams ()) ~seen:seens in
        let s2, t2 = Client.with_connection d.endpoint (fun c -> (metrics c, telemetry c)) in
        (a, b, s1, sb, s2, t2, tree_bytes d.cache - bytes0))
  in
  rm_rf d.cache;
  count_phase ctx a;
  count_phase ctx b;
  verify ctx ~served seens;
  let dh ?labels name = hist_delta sb s2 ?labels name in
  let dc ?labels name = counter_delta sb s2 ?labels name in
  let ms = 1e-6 in
  let req = dh ~labels:(verb_is [ "analyze"; "advise" ]) "ddg_server_request_ns" in
  let enc = dh "ddg_server_encode_ns" in
  let qw = dh "ddg_pool_queue_wait_ns" and run = dh "ddg_pool_run_ns" in
  let an = dh "ddg_runner_analyze_ns" and adv = dh "ddg_runner_advise_ns" in
  let sim = dh "ddg_runner_simulate_ns" in
  let find = dh "ddg_store_find_ns" and put = dh "ddg_store_put_ns" in
  let sim_setup = hist_delta s0 s1 "ddg_runner_simulate_ns" in
  let probes = List.filter_map (fun r -> r.probe) b.replies in
  let encs = List.map (fun (e, _, _) -> e) probes and decs = List.map (fun (_, d, _) -> d) probes in
  let frame_decs_ms = List.filter_map (fun r -> Option.map (fun t -> t *. 1e3) r.frame_decode) b.replies in
  let lat_ms = List.map (fun r -> r.latency *. 1e3) b.replies in
  let q h p = float_of_int (Obs.quantile h p) *. ms in
  let finds = dc "ddg_store_finds_total" in
  let s_of h = ns_to_s h.Obs.hs_sum in
  add ctx "analyzer.window_events_per_s" "1/s" (rate (dc "ddg_analyze_events_total") (s_of an));
  add_hist_busy ctx "store.find_s" find;
  add ctx "store.finds" "count" (float_of_int finds);
  add ctx "store.hit_ratio" "ratio"
    (if finds > 0 then float_of_int (dc ~labels:(List.mem ("result", "hit")) "ddg_store_finds_total") /. float_of_int finds else 0.);
  add_hist_busy ctx "store.put_s" put;
  add ctx "store.puts" "count" (float_of_int (dc "ddg_store_puts_total"));
  add ctx "store.bytes_written" "B" (float_of_int bytes);
  add_hist_busy ctx "sim.simulate_s" sim_setup;
  (* each served workload is simulated once plain and once loop-marked,
     both with the same event count *)
  let mean_events = List.fold_left (fun a (_, e) -> a + e) 0 events / List.length events in
  add ctx "sim.events_per_s" "1/s" (rate (sim_setup.hs_count * mean_events) (s_of sim_setup));
  add_busy ctx "stats_codec.encode_s" encs;
  add_busy ctx "stats_codec.decode_s" decs;
  add ctx "protocol.response_bytes_mean" "B"
    (match probes with [] -> 0. | l -> float_of_int (List.fold_left (fun a (_, _, n) -> a + n) 0 l) /. float_of_int (List.length l));
  add ctx ~dist:(Emit.summarize frame_decs_ms) "protocol.decode_ms" "ms"
    (List.fold_left ( +. ) 0. frame_decs_ms /. float_of_int (max 1 (List.length frame_decs_ms)));
  add ctx ~dist:(hist_dist ~scale:ms enc) "protocol.encode_ms" "ms" (Obs.hist_mean enc *. ms);
  let server_mean = Obs.hist_mean req *. ms in
  add ctx ~dist:(Emit.summarize (List.map (fun l -> l -. server_mean) lat_ms))
    "client.wire_ms" "ms"
    ((List.fold_left ( +. ) 0. lat_ms /. float_of_int (max 1 (List.length lat_ms))) -. server_mean);
  add ctx ~dist:(hist_dist ~scale:ms qw) "jobs.queue_wait_p50_ms" "ms" (q qw 0.5);
  add ctx ~dist:(hist_dist ~scale:ms qw) "jobs.queue_wait_p99_ms" "ms" (q qw 0.99);
  add ctx ~dist:(hist_dist ~scale:ms run) "jobs.run_p99_ms" "ms" (q run 0.99);
  add ctx ~dist:(hist_dist ~scale:ms req) "server.request_p99_ms" "ms" (q req 0.99);
  add_hist_busy ctx "advise.busy_s" (hist_delta s0 s2 "ddg_runner_advise_ns");
  let advises = counter s2 "ddg_runner_advises_total" in
  let distinct =
    (2 * List.length served)
    + (List.length served * (List.length hot_configs + 1))
    + List.fold_left (fun a m -> a + !m) 0 misses
  in
  add ctx "runner.useful_ratio" "ratio"
    (float_of_int distinct /. float_of_int (t2.simulations + t2.analyses + advises));
  add ctx "runner.simulations" "count" (float_of_int t2.simulations);
  add ctx "runner.analyses" "count" (float_of_int t2.analyses);
  let runner_self = s_of run -. s_of an -. s_of adv -. s_of sim -. s_of find -. s_of put in
  add ctx ~dist:(hist_dist run) "runner.unaccounted_s" "s" runner_self;
  add ctx "server.busy_refusals" "count"
    (float_of_int (dc ~labels:(List.mem ("outcome", "busy")) "ddg_server_requests_outcome_total"));
  add ctx "server.errors" "count"
    (float_of_int
       (dc ~labels:(fun l -> List.mem ("outcome", "error") l || List.mem ("outcome", "deadline") l)
          "ddg_server_requests_outcome_total"));
  add ctx "latency.samples" "count" (float_of_int (List.length b.replies));
  let tr = ctx.tracer in
  let agg = Tracer.record tr ~rid:(-1) ~layer:Tracer.root ~name:"daemon totals" ~t0:0. ~t1:0. () in
  let child parent layer name dur = Tracer.record tr ~parent ~rid:(-1) ~layer ~name ~t0:0. ~t1:dur () in
  let sum l = List.fold_left ( +. ) 0. l in
  let protocol =
    child agg "protocol" "ddg_server_encode_ns+Protocol.frame_of_string (probe)"
      (s_of enc +. (sum frame_decs_ms *. 1e-3))
  in
  ignore (child protocol "stats_codec" "Stats_codec.to_string (probe)" (sum encs));
  ignore (child agg "client" "Stats_codec.of_string (probe)" (sum decs));
  let server = child agg "server" "ddg_server_request_ns" (s_of req) in
  let jobs = child server "jobs" "ddg_pool_queue_wait_ns+ddg_pool_run_ns" (s_of qw +. s_of run) in
  let runner = child jobs "runner" "ddg_pool_run_ns" (s_of run) in
  ignore (child runner "analyzer" "ddg_runner_analyze_ns" (s_of an));
  ignore (child runner "advise" "ddg_runner_advise_ns" (s_of adv));
  ignore (child runner "sim" "ddg_runner_simulate_ns" (s_of sim));
  ignore (child runner "store" "ddg_store_find_ns+ddg_store_put_ns" (s_of find +. s_of put));
  add_layer_shares ctx;
  let per_request p = p.wall /. float_of_int (max 1 (List.length p.replies)) in
  add_overhead ctx ~untraced:[ per_request a ] ~traced:[ per_request b ]
