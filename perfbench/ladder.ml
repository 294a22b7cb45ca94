(* The ladder run ([--trace 1]): the workload's own requests pushed into
   each layer's public entry point, one layer at a time, with spans and
   minor-word counts recorded around those calls by this file only (the
   program's own tracing stays off). Per-layer numbers are the deltas
   between adjacent layers where a layer is defined by what it adds
   ([handler.self_us], [sched.hop_us], [router.hop_us]).

   Layers, bottom up:
     kernel   Detector.first_meeting_sources over a Compiled deriver
     engine   Engine.run_with_source              model  Model payloads
     handler  Handler.run                         sched  Sched.submit
     codec    Wire / Wire_bin / Proto.request_of_wire
     server   Server.handle_line / handle_payload (in process)
     transport  serve_channels over pipes; rvu serve over loopback TCP
     router   rvu router in front of one rvu serve
   plus the serving processes' own counters, read in-band around an
   open-loop and a closed-loop phase of the workload. *)

open Rvu_core
module W = Workloads
module Wire = Rvu_obs.Wire
module Wb = Rvu_service.Wire_bin
module Proto = Rvu_service.Proto
module Server = Rvu_service.Server
module Sched = Rvu_service.Sched
module Detector = Rvu_sim.Detector
module Compiled = Rvu_trajectory.Compiled
module Stream_cache = Rvu_trajectory.Stream_cache

let now = Client.now
let reps = 5

(* Median seconds and least minor words of [reps] passes of [body], each on
   a fresh [setup] that is torn down afterwards and not measured. Each
   pass is a span named after the layer. *)
let passes_with ?(reps = reps) name ~setup ~teardown body =
  let times = Array.make reps 0.0 and words = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    let x = setup () in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    body x;
    let t1 = now () in
    words.(r) <- Gc.minor_words () -. w0;
    times.(r) <- t1 -. t0;
    teardown x;
    Util.span name t0 t1
  done;
  (* Words are a floor: the warm hit path allocates a few words more on
     some passes than on others, so the minimum is the repeatable figure. *)
  (Util.median times, Array.fold_left Float.min Float.infinity words)

let passes ?reps name f = passes_with ?reps name ~setup:ignore ~teardown:ignore f

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* Spin until [flag] is set: the waits below bracket one request at a
   time and must not add a futex wake-up of their own. *)
let await flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Compute layers *)

let simulations reqs =
  Array.of_list
    (List.filter_map
       (function
         | Proto.Simulate s when Symmetry.is_identity s.Proto.transform -> Some s
         | _ -> None)
       (Array.to_list reqs))

let arena = Compiled.arena ()

(* The engine's compiled path without its bookkeeping: derive the
   displaced robot's table from the shared reference table chunk by
   chunk and scan. Returns the intervals examined. *)
let kernel (s : Proto.simulate) =
  let displacement = Rvu_geom.Vec2.of_polar ~radius:s.d ~angle:s.bearing in
  let clocked = Frame.clocked s.attrs ~displacement in
  let reference = Rvu_model.Unknown_attributes.reference_source ~algorithm4:s.algorithm4 in
  match Detector.table_of_source reference with
  | Some (tbl, tail) ->
      let d = Compiled.deriver ~arena clocked tbl ~tail in
      let _, st =
        Detector.first_meeting_sources ~horizon:s.horizon ~r:s.r reference
          (Detector.source_of_chunks (fun n -> Compiled.next_chunk d ~max_segments:n))
      in
      st.Detector.intervals
  | None -> invalid_arg "kernel: reference source has no table"

let engine (s : Proto.simulate) =
  let displacement = Rvu_geom.Vec2.of_polar ~radius:s.d ~angle:s.bearing in
  let inst = Rvu_sim.Engine.instance ~attributes:s.attrs ~displacement ~r:s.r in
  let program =
    if s.algorithm4 then Rvu_search.Algorithm4.program () else Universal.program ()
  in
  Rvu_sim.Engine.run_with_source ~horizon:s.horizon
    ~reference:(Rvu_model.Unknown_attributes.reference_source ~algorithm4:s.algorithm4)
    ~program inst

(* What [Handler.run] calls below itself: the model for simulations, the
   batch executor for batches; other kinds are the handler's own work. *)
let below = function
  | Proto.Simulate s -> ignore (Sys.opaque_identity (Rvu_model.Unknown_attributes.response s))
  | Proto.Model_run { instance; _ } -> ignore (Sys.opaque_identity (instance.Rvu_model.Model.payload ()))
  | Proto.Batch b ->
      let ds = Rvu_workload.Sweep.linspace ~lo:b.Proto.d_lo ~hi:b.Proto.d_hi ~n:b.Proto.points in
      let instances =
        Array.of_list
          (List.map
             (fun d ->
               Rvu_sim.Engine.instance ~attributes:b.Proto.attrs
                 ~displacement:(Rvu_geom.Vec2.of_polar ~radius:d ~angle:b.Proto.bearing)
                 ~r:b.Proto.r)
             ds)
      in
      ignore (Sys.opaque_identity (Rvu_exec.Batch.run ~horizon:b.Proto.horizon ~jobs:1 instances))
  | _ -> ()

let is_model = function Proto.Simulate _ | Proto.Model_run _ -> true | _ -> false

let compute_layers (w : W.t) reqs =
  let passes name f = passes ~reps:3 name f in
  let sims = simulations reqs in
  let intervals = ref 0 in
  let k_s, k_w =
    passes "kernel" (fun () ->
        intervals := 0;
        Array.iter (fun s -> intervals := !intervals + kernel s) sims)
  in
  let e_s, e_w = passes "engine" (fun () -> Array.iter (fun s -> ignore (engine s)) sims) in
  let models = Array.of_list (List.filter is_model (Array.to_list reqs)) in
  let m_s, _ = passes "model" (fun () -> Array.iter below models) in
  let _, h_w =
    passes "handler" (fun () ->
        Array.iter (fun r -> ignore (Sys.opaque_identity (Rvu_service.Handler.run r))) reqs)
  in
  (* Self time and the pool hop as paired per-request differences: each
     request runs below the handler, in the handler, and through the
     scheduler back to back, so drift between passes cancels. The
     scheduler has no cache, so every submission is a pool hop. *)
  let sched =
    Sched.create ~jobs:w.config.jobs ~queue_depth:w.config.queue_depth ~cache_entries:0 ()
  in
  let timed f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  let self = Array.make 3 0.0 and hop = Array.make 3 0.0 in
  for pass = 0 to 2 do
    let t_pass = now () in
    Array.iteri
      (fun i request ->
        let tb = timed (fun () -> below request) in
        let th = timed (fun () -> ignore (Sys.opaque_identity (Rvu_service.Handler.run request))) in
        let ts =
          timed (fun () ->
              let flag = Atomic.make false in
              Sched.submit sched
                { Proto.id = Wire.Int (i + 1); timeout_ms = None; trace = None; request }
                ~k:(fun _ -> Atomic.set flag true);
              await flag)
        in
        self.(pass) <- self.(pass) +. (th -. tb);
        hop.(pass) <- hop.(pass) +. (ts -. th))
      reqs;
    Util.span "handler+sched" t_pass (now ())
  done;
  Sched.stop sched;
  (* Realizing and compiling, from scratch, the reference prefix this
     workload's requests walked. *)
  let depth =
    match Stream_cache.find_opt ~key:Rvu_exec.Batch.universal_key with
    | Some c -> Stream_cache.realized c
    | None -> 0
  in
  let realize_s, _ =
    passes "stream_cache.realize" (fun () ->
        let c = Stream_cache.create (Universal.program ()) in
        Seq.iter ignore (Seq.take depth (Stream_cache.stream c));
        ignore (Sys.opaque_identity (Stream_cache.compiled_source c)))
  in
  let n = Array.length reqs and ns = Array.length sims in
  let fi = float_of_int !intervals in
  Printf.printf "  ladder: %d requests, %d simulations, %d intervals, reference depth %d\n%!" n ns
    !intervals depth;
  let m name value unit = { Util.name; value; unit } in
  [
    m "kernel.ns_per_interval" (if fi > 0.0 then k_s *. 1e9 /. fi else 0.0) "ns";
    m "kernel.words_per_interval" (if fi > 0.0 then k_w /. fi else 0.0) "words";
    m "kernel.intervals" fi "count";
    m "stream_cache.realize_s" realize_s "s";
    m "engine.us_per_request" (per ns (e_s *. 1e6)) "us";
    m "engine.words_per_request" (per ns e_w) "words";
    m "model.us_per_request" (per (Array.length models) (m_s *. 1e6)) "us";
    m "handler.self_us" (per n (Util.median self *. 1e6)) "us";
    m "handler.words_per_request" (per n h_w) "words";
    m "sched.hop_us" (per n (Util.median hop *. 1e6)) "us";
  ]

(* ------------------------------------------------------------------ *)
(* Codec and in-process server *)

let fresh_server (w : W.t) (stream : W.stream) render =
  let server = Server.create ~config:w.config () in
  (* The cache regime the workload runs in: its repeating keys answered
     once, unique keys never seen. *)
  Array.iteri
    (fun i k -> ignore (Server.handle_sync server (W.payload Wb.Json (render k) ~id:(i + 1))))
    stream.W.fill;
  Array.iteri
    (fun i k ->
      ignore (Server.handle_payload_sync server (W.payload Wb.Binary (render k) ~id:(i + 1))))
    stream.W.fill;
  (* Cache fills finish on the worker after the response is delivered. *)
  Server.wait_idle server;
  server

(* One request at a time through an in-process server entry point;
   returns the responses of the last pass. *)
let server_layer w stream render name entry msgs =
  let responses = Array.make (Array.length msgs) "" in
  let secs, words =
    (* More passes than the other layers: the warm hit path allocates a
       few words more on some passes, and the floor is what repeats. *)
    passes_with ~reps:15 name
      ~setup:(fun () -> fresh_server w stream render)
      ~teardown:Server.stop
      (fun server ->
        Array.iteri
          (fun i m ->
            let flag = Atomic.make false in
            entry server m ~respond:(fun r ->
                responses.(i) <- r;
                Atomic.set flag true);
            await flag)
          msgs)
  in
  (secs, words, responses)

let codec_layers (w : W.t) stream render keys =
  let n = Array.length keys in
  let lines = Array.mapi (fun i k -> W.payload Wb.Json (render k) ~id:(i + 1)) keys in
  let frames = Array.mapi (fun i k -> W.payload Wb.Binary (render k) ~id:(i + 1)) keys in
  let line_s, line_w, json_responses =
    server_layer w stream render "server.line" Server.handle_line lines
  in
  let payload_s, payload_w, _ =
    server_layer w stream render "server.payload" Server.handle_payload frames
  in
  let parse l = match Wire.parse l with Ok v -> v | Error e -> failwith (Wire.error_to_string e) in
  let requests = Array.map parse lines in
  let responses = Array.map parse json_responses in
  let encoded = Array.map Wb.encode responses in
  let each name f a =
    fst (passes name (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) a))
  in
  let us s = per n (s *. 1e6) in
  let m name value unit = { Util.name; value; unit } in
  [
    m "codec.json_decode_us" (us (each "codec.json_decode" Wire.parse lines)) "us";
    m "codec.json_encode_us" (us (each "codec.json_encode" Wire.print responses)) "us";
    m "codec.bin_decode_us" (us (each "codec.bin_decode" Wb.decode encoded)) "us";
    m "codec.bin_encode_us" (us (each "codec.bin_encode" Wb.encode responses)) "us";
    m "proto.decode_us" (us (each "proto.decode" Proto.request_of_wire requests)) "us";
    m "server.payload_us" (us payload_s) "us";
    m "server.payload_words" (per n payload_w) "words";
    m "server.line_us" (us line_s) "us";
    m "server.line_words" (per n line_w) "words";
  ]

(* ------------------------------------------------------------------ *)
(* Transports: round trips, one request at a time *)

let rtt_median rtts = Util.median rtts *. 1e6

(* [Server.serve_channels] on a pair of pipes, served from its own domain. *)
let pipe_rtt (w : W.t) stream render keys =
  let server = fresh_server w stream render in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let d =
    Domain.spawn (fun () ->
        Server.serve_channels ~wire:w.wire server ic oc;
        close_out oc)
  in
  let to_server = Unix.out_channel_of_descr req_w in
  let from_server = Unix.in_channel_of_descr resp_r in
  let t_start = now () in
  let rtts =
    Array.mapi
      (fun i k ->
        let t0 = now () in
        output_string to_server (W.message w.wire (render k) ~id:(i + 1));
        flush to_server;
        (match w.wire with
        | Wb.Json -> ignore (input_line from_server)
        | Wb.Binary -> (
            match Wb.input_frame from_server with
            | Wb.Frame _ -> ()
            | _ -> failwith "pipe transport: no response frame"));
        now () -. t0)
      keys
  in
  Util.span "transport.pipe" t_start (now ());
  close_out to_server;
  Domain.join d;
  close_in from_server;
  Server.stop server;
  rtt_median rtts

(* Round trips on [c] for [keys], with a span around them. *)
let tcp_rtts name c keys render ~id0 =
  let wire = c.Client.wire in
  let t_start = now () in
  let rtts =
    Array.mapi
      (fun i k ->
        let id = id0 + i + 1 in
        let t0 = now () in
        ignore (Client.call c ~id (W.message wire (render k) ~id));
        now () -. t0)
      keys
  in
  Util.span name t_start (now ());
  rtts

(* [rvu serve] over loopback TCP, then [rvu router] in front of that same
   server. The two steps send different sample positions, so unique
   streams stay unique at both. *)
let spawned_layers ~rvu (w : W.t) (stream : W.stream) render ~keys_tcp ~keys_router =
  let port = Procs.free_port () in
  let pid = Procs.rvu_serve ~rvu ~port ~wire:w.wire w.config in
  Procs.wait_listening ~pid port;
  let prime c id0 =
    Array.iteri
      (fun i k ->
        let id = id0 + i + 1 in
        ignore (Client.call c ~id (W.message c.Client.wire (render k) ~id)))
      stream.W.fill
  in
  let c = Client.connect ~wire:w.wire port in
  prime c 3_000_000_000;
  let tcp = tcp_rtts "transport.tcp" c keys_tcp render ~id0:3_100_000_000 in
  Client.close c;
  let rport = Procs.free_port () in
  let rpid =
    Procs.spawn
      [|
        rvu; "router"; "--tcp"; string_of_int rport; "--connect"; Printf.sprintf "127.0.0.1:%d" port;
        "--wire"; Wb.mode_string w.wire; "--probe-interval-ms"; "250"; "--restart-backoff-ms"; "500";
        "--route-timeout-ms"; "30000";
      |]
  in
  Procs.wait_listening ~pid:rpid rport;
  let rc = Client.connect ~hello:(w.wire = Wb.Binary) ~wire:w.wire rport in
  E2e.wait_router_ready rc;
  prime rc 3_200_000_000;
  let before = Util.counters (Client.control rc "stats") in
  let routed = tcp_rtts "router" rc keys_router render ~id0:3_300_000_000 in
  let after = Util.counters (Client.control rc "stats") in
  Client.close rc;
  Procs.kill rpid;
  Procs.kill pid;
  (rtt_median tcp, rtt_median routed, Util.delta before after)

(* ------------------------------------------------------------------ *)

let ladder_base = 10_000_000

(* The layers take their sample from a fixed seed, so counts such as
   [kernel.intervals] and [server.payload_words] repeat exactly from run
   to run; the in-band phases above use the run's own seed. *)
let ladder_seed = 0

let run (w : W.t) ~rvu ~seed ~seconds =
  Util.tracing := true;
  let stream = w.stream ~seed in
  let render = E2e.make_render stream in
  let oracle = Oracle.create ~wire:w.wire ~config:w.config ~render in
  (* 1. The serving processes' own counters, in-band around open-loop
     phases at the light and heavy rates (whose ungated latencies are
     reported here) and four closed-loop phases; the second and
     fourth record a client-side span per request, so their capacity
     against the other two is the tracing overhead. *)
  Oracle.learn oracle (Array.to_list (E2e.warmup_keys stream) @ Array.to_list stream.W.fill);
  let s, _ = E2e.start w ~rvu ~stream ~render ~oracle in
  E2e.fill s;
  let s0 = E2e.snapshot s in
  let light = E2e.open_phase s ~rate:w.light_rps ~seconds:(seconds *. 0.15) in
  let heavy = E2e.open_phase s ~rate:w.heavy_rps ~seconds:(seconds *. 0.15) in
  let s1 = E2e.snapshot s in
  let caps =
    Array.init 4 (fun k ->
        let traced = k mod 2 = 1 in
        Util.tracing := traced;
        let on_response = if traced then Some (fun t0 t1 -> Util.span "request" t0 t1) else None in
        let r = E2e.closed_phase ?on_response s ~seconds:(seconds *. 0.05) in
        Util.tracing := true;
        r)
  in
  let s2 = E2e.snapshot s in
  E2e.stop s;
  let tally = E2e.verify s in
  (* Capacities count settled answers, so they are read after [verify]. *)
  let caps = Array.map (fun r -> (E2e.capacity r, r.E2e.cph.Client.sent)) caps in
  let sent = light.E2e.ph.Client.n + heavy.E2e.ph.Client.n + Array.fold_left (fun acc (_, n) -> acc + n) 0 caps in
  let p = match w.topology with W.Routed _ -> "aggregate." | W.Single -> "" in
  let d1 = Util.delta s0.E2e.stats s1.E2e.stats and d = Util.delta s0.E2e.stats s2.E2e.stats in
  let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let hits = d (p ^ "cache.hits") and misses = d (p ^ "cache.misses") in
  let frame_hits = Float.max 0.0 (float_of_int sent -. hits -. misses) in
  let untraced = (fst caps.(0) +. fst caps.(2)) /. 2.0 and traced = (fst caps.(1) +. fst caps.(3)) /. 2.0 in
  Printf.printf "%s seed=%d ladder: heavy p99 lag %.3f ms, capacity untraced %.0f traced %.0f /s\n%!"
    w.name seed
    (E2e.lag_p99_ms heavy) untraced traced;
  (* 2. Spawned transports, then 3. in-process layers. *)
  let stream = w.stream ~seed:ladder_seed in
  let render = E2e.make_render stream in
  let positions base = Array.init w.sample (fun i -> stream.W.key_of (base + i)) in
  let keys = positions ladder_base in
  let tcp_us, router_rtt_us, rd =
    spawned_layers ~rvu w stream render ~keys_tcp:(positions (2 * ladder_base))
      ~keys_router:(positions (3 * ladder_base))
  in
  let router_d = match w.topology with W.Routed _ -> d | W.Single -> rd in
  let pipe_us = pipe_rtt w stream render keys in
  let codec = codec_layers w stream render keys in
  let compute = compute_layers w (Array.map stream.W.request keys) in
  let m name value unit = { Util.name; value; unit } in
  let metrics =
    compute
    @ [
        m "stream_cache.hit_ratio"
          (ratio (d (p ^ "process.stream_cache_hits")) (d (p ^ "process.stream_cache_misses")))
          "share";
        m "cache.result_hit_ratio" (ratio hits misses) "share";
        m "cache.frame_hit_ratio" (frame_hits /. float_of_int sent) "share";
        m "cache.evictions" (d (p ^ "cache.evictions")) "count";
        m "sched.queue_wait_p99_ms"
          (1000.0 *. Util.histogram_quantile s0.E2e.queue_wait s1.E2e.queue_wait 0.99)
          "ms";
        m "sched.shed" (d1 (p ^ "process.sched_shed")) "count";
        m "sched.timeouts" (d1 (p ^ "process.sched_timeouts")) "count";
      ]
    @ codec
    @ [
        m "transport.pipe_rtt_us" pipe_us "us";
        m "transport.tcp_rtt_us" tcp_us "us";
        m "router.hop_us" (router_rtt_us -. tcp_us) "us";
        m "router.retried" (router_d "router.requests.retried") "count";
        m "router.shed" (router_d "router.requests.shed") "count";
        m "router.stale" (router_d "router.requests.stale") "count";
        m "gc.minor_words_per_request" (d (p ^ "runtime.minor_words") /. float_of_int sent) "words";
        m "gc.major_collections" (d (p ^ "runtime.major_collections")) "count";
        m "loadgen.lag_p99_ms" (E2e.lag_p99_ms heavy) "ms";
        m "e2e.latency_p50_ms.heavy" (1000.0 *. Util.median (E2e.latencies heavy)) "ms";
        m "e2e.latency_p99_ms.light" (1000.0 *. fst (E2e.windowed_p99 light)) "ms";
        m "e2e.latency_p99_ms.heavy" (1000.0 *. fst (E2e.windowed_p99 heavy)) "ms";
        m "trace.overhead_pct" (100.0 *. (untraced -. traced) /. untraced) "%";
      ]
  in
  (try Sys.mkdir "perfbench/results" 0o755 with Sys_error _ -> ());
  Util.write_spans (Printf.sprintf "perfbench/results/%s-seed%d.trace.json" w.name seed);
  {
    Util.metrics;
    attempted = s.E2e.attempted;
    failed = Oracle.failed tally;
    correct = tally.Oracle.mismatches = 0 && tally.Oracle.errors = 0;
  }
