(* rvubench: the serving benchmark's load generator and layer ladder.

     rvubench --rvu PATH --workload NAME --seed N --seconds S --trace 0|1
     rvubench --rvu PATH --smoke

   [--trace 0] measures the end-to-end metrics against spawned processes
   with all tracing off; [--trace 1] is the ladder run, which reports the
   per-layer metrics (see ladder.ml). The last stdout line is the result
   object; everything before it is the human-readable report. *)

module W = Workloads
module Wire = Rvu_obs.Wire

let setups = 3

(* Share of [--seconds] each timed phase gets. *)
let light_share = 0.4
let heavy_share = 0.3
let capacity_share = 0.3

(* A phase whose generator ran later than this at p99 measured the
   generator, not the server: it is invalid and yields no numbers. *)
let lag_bound_ms = 50.0

let fail_invalid msg =
  Printf.eprintf "perfbench: %s\n%!" msg;
  exit 4

(* Stream identity: the key sequence of the first [n] positions. *)
let stream_hash (w : W.t) ~seed n =
  let st = w.stream ~seed in
  let b = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Rvu_service.Proto.canonical_key (st.W.request (st.W.key_of i)))
  done;
  Util.hex_digest (Buffer.contents b)

(* The kind mix of the first [n] positions, as shares. *)
let shape (w : W.t) ~seed n =
  let st = w.stream ~seed in
  let counts = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let r = st.W.request (st.W.key_of i) in
    let k =
      match r with
      | Rvu_service.Proto.Model_run { model; _ } -> "simulate/" ^ model
      | r -> Rvu_service.Proto.kind_string r
    in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  Hashtbl.fold (fun k c acc -> (k, float_of_int c /. float_of_int n) :: acc) counts []
  |> List.sort compare

let fingerprint (w : W.t) ~seed ~stream_hash =
  let c = w.config in
  Wire.Obj
    [
      ("workload", Wire.String w.name);
      ("seed", Wire.Int seed);
      ("nproc", Wire.Int (Domain.recommended_domain_count ()));
      ("ocaml", Wire.String Sys.ocaml_version);
      ("host", Wire.String (Util.host_hash ()));
      ("git_commit", Wire.String (Util.git_commit ()));
      ("source_hash", Wire.String (Util.source_hash ()));
      ( "servers",
        Wire.Obj
          [
            ( "topology",
              Wire.String
                (match w.topology with
                | W.Single -> "serve"
                | W.Routed n -> Printf.sprintf "router+%d shards" n) );
            ("wire", Wire.String (Rvu_service.Wire_bin.mode_string w.wire));
            ("jobs", Wire.Int c.jobs);
            ("queue_depth", Wire.Int c.queue_depth);
            ("cache_entries", Wire.Int c.cache_entries);
          ] );
      ("connections", Wire.Int w.conns);
      ("window", Wire.Int w.window);
      ("light_rps", Wire.Float w.light_rps);
      ("heavy_rps", Wire.Float w.heavy_rps);
      ("stream_hash", Wire.String stream_hash);
      ("shape", Wire.Obj (List.map (fun (k, x) -> (k, Wire.Float x)) (shape w ~seed 4096)));
    ]

let check_stream (w : W.t) ~seed =
  let h = stream_hash w ~seed 4096 in
  if stream_hash w ~seed 4096 <> h then fail_invalid "the same seed gave two different streams";
  let st = w.stream ~seed in
  let timed = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace timed (Rvu_service.Proto.canonical_key (st.W.request (st.W.key_of i))) ()
  done;
  Array.iter
    (fun r ->
      if Hashtbl.mem timed (Rvu_service.Proto.canonical_key r) then
        fail_invalid "a warm-up request shares its key with the timed stream")
    st.W.warmup;
  h

let ms x = x *. 1000.0


(* Prints the phase with its p99 and returns its p50 in ms. The p99 is
   reported, not gated: on a 2-vCPU VM its spread across seeds (IQR up to
   1.4x the median) is wider than any bound the benchmark may set. So is
   the heavy-rate p50 of routed-mix, which settles at ~0.5 ms in some runs
   and ~0.85 ms in others (IQR 0.65x the median over ten seeds): the
   heavy p50 is printed, and gated only through ok_share. *)
let report_phase name (r : E2e.open_result) =
  let lat = E2e.latencies r in
  let p99, per = E2e.windowed_p99 r in
  Printf.printf
    "  %-9s n=%-7d ok=%-7d overloaded=%d  p50=%.3f ms p99=%.3f ms (windows %s; whole phase %.3f)  lag p99=%.3f ms\n%!"
    name r.E2e.ph.Client.n r.E2e.by_code.(Oracle.ok) r.E2e.by_code.(Oracle.overloaded)
    (ms (Util.median lat)) (ms p99)
    (String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%.3f" (ms x)) per)))
    (ms (Util.quantile lat 0.99))
    (E2e.lag_p99_ms r);
  ms (Util.median lat)

(* Client-side counts against the server's own in-band deltas, for the
   requests sent between two snapshots ([sent] in all, [by_code] as the
   oracle judged their answers). *)
let reconcile (w : W.t) (before : E2e.snapshot) (after : E2e.snapshot) ~sent by_code =
  let d = Util.delta before.E2e.stats after.E2e.stats in
  let ok = by_code.(Oracle.ok) + by_code.(Oracle.mismatch) in
  let overloaded = by_code.(Oracle.overloaded) in
  let problems = ref [] in
  let expect what got want =
    if Float.abs (got -. float_of_int want) > 0.5 then
      problems := Printf.sprintf "%s: server %.0f, client %d" what got want :: !problems
  in
  (match w.topology with
  | W.Single ->
      (* Between the two snapshots the server also answered the first
         snapshot's [stats] (counted after it was taken) and its
         [metrics]. *)
      expect "ok" (d "requests.ok" -. 2.0) ok;
      expect "overloaded" (d "requests.overloaded") overloaded;
      expect "shed" (d "process.sched_shed") overloaded;
      (* A JSON request is a result-cache hit or a miss; a miss is
         admitted or shed. (Binary frame-cache hits skip the lookup.) *)
      if w.wire = Rvu_service.Wire_bin.Json then
        expect "cache lookups" (d "cache.hits" +. d "cache.misses") sent;
      expect "admitted+shed" (d "process.sched_admitted" +. d "process.sched_shed")
        (int_of_float (d "cache.misses"))
  | W.Routed _ ->
      expect "routed" (d "router.requests.routed") sent;
      expect "shed" (d "router.requests.shed" +. d "aggregate.requests.overloaded") overloaded);
  List.rev !problems

let end_to_end (w : W.t) ~rvu ~seed ~seconds =
  let h = check_stream w ~seed in
  print_endline ("fingerprint " ^ Wire.print (fingerprint w ~seed ~stream_hash:h));
  let stream = w.stream ~seed in
  let render = E2e.make_render stream in
  let oracle = Oracle.create ~wire:w.wire ~config:w.config ~render in
  (* Keys known before any traffic are learned up front, so their answers
     are checked as they arrive instead of being kept. *)
  Oracle.learn oracle (Array.to_list (E2e.warmup_keys stream) @ Array.to_list stream.W.fill);
  let setup_times = ref [] in
  let rec setup k =
    let s, dt = E2e.start w ~rvu ~stream ~render ~oracle in
    setup_times := dt :: !setup_times;
    if k < setups then begin
      E2e.stop s;
      if Oracle.failed (E2e.verify s) > 0 then fail_invalid "warm-up requests failed";
      setup (k + 1)
    end
    else s
  in
  let s = setup 1 in
  E2e.fill s;
  let snap0 = E2e.snapshot s in
  let light = E2e.open_phase s ~rate:w.light_rps ~seconds:(seconds *. light_share) in
  let heavy = E2e.open_phase s ~rate:w.heavy_rps ~seconds:(seconds *. heavy_share) in
  let snap1 = E2e.snapshot s in
  let cap = E2e.closed_phase s ~seconds:(seconds *. capacity_share) in
  let snap2 = E2e.snapshot s in
  let rss = Procs.rss_mb s.E2e.group in
  E2e.stop s;
  let tally = E2e.verify s in
  Printf.printf "%s seed=%d: setup %s s\n" w.name seed
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times));
  let l_p50 = report_phase "light" light in
  ignore (report_phase "heavy" heavy);
  let capacity = E2e.capacity cap in
  Printf.printf "  capacity  n=%-7d ok=%-7d overloaded=%d  %.1f req/s (median of %d windows)\n"
    cap.E2e.cph.Client.sent cap.E2e.cby_code.(Oracle.ok) cap.E2e.cby_code.(Oracle.overloaded)
    capacity E2e.capacity_windows;
  let problems =
    reconcile w snap0 snap1 ~sent:(light.E2e.ph.Client.n + heavy.E2e.ph.Client.n)
      (Array.map2 ( + ) light.E2e.by_code heavy.E2e.by_code)
    @ reconcile w snap1 snap2 ~sent:cap.E2e.cph.Client.sent cap.E2e.cby_code
  in
  List.iter (Printf.printf "  counter mismatch: %s\n") problems;
  List.iter
    (fun (name, ph) ->
      let lag = E2e.lag_p99_ms ph in
      if lag > lag_bound_ms then
        fail_invalid
          (Printf.sprintf "%s phase invalid: generator lag p99 %.1f ms > %.0f ms" name lag lag_bound_ms))
    [ ("light", light); ("heavy", heavy) ];
  let timed = light.E2e.ph.Client.n + heavy.E2e.ph.Client.n + cap.E2e.cph.Client.sent in
  let ok_timed =
    light.E2e.by_code.(Oracle.ok) + heavy.E2e.by_code.(Oracle.ok) + cap.E2e.cby_code.(Oracle.ok)
  in
  let failed_timed = timed - ok_timed in
  let failed_share = float_of_int failed_timed /. float_of_int timed in
  Printf.printf
    "  oracle: %d ok, %d overloaded, %d timeouts, %d errors, %d missing, %d mismatches\n"
    tally.Oracle.ok tally.Oracle.overloaded tally.Oracle.timeouts tally.Oracle.errors
    tally.Oracle.missing tally.Oracle.mismatches;
  Printf.printf "  failed_share=%g (%d of %d timed requests)  samples: light=%d heavy=%d\n%!"
    failed_share failed_timed timed light.E2e.ph.Client.n heavy.E2e.ph.Client.n;
  let m name value unit = { Util.name; value; unit } in
  {
    Util.metrics =
      [
        m "setup_s" (Util.median (Array.of_list !setup_times)) "s";
        m "latency_p50_ms.light" l_p50 "ms";
        m "capacity_rps" capacity "1/s";
        m "ok_share" (1.0 -. failed_share) "share";
        m "rss_mb" rss "MiB";
      ];
    attempted = timed;
    failed = failed_timed;
    correct = tally.Oracle.mismatches = 0 && tally.Oracle.errors = 0 && problems = [];
  }

(* ------------------------------------------------------------------ *)
(* Smoke mode: every workload briefly, both kinds of run; every metric
   BENCHMARK.json names must come out present and finite, and the kind
   mix must not depend on the seed. *)

let declared section =
  let doc =
    match Wire.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> fail_invalid ("BENCHMARK.json: " ^ Wire.error_to_string e)
  in
  match Wire.member section doc with
  | Some (Wire.List ms) ->
      List.filter_map (fun m -> match Wire.member "name" m with Some (Wire.String n) -> Some n | _ -> None) ms
  | _ -> fail_invalid ("BENCHMARK.json has no " ^ section)

let smoke ~rvu =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (w : W.t) ->
      let a = shape w ~seed:1 4096 and b = shape w ~seed:2 4096 in
      List.iter
        (fun (k, x) ->
          let y = Option.value ~default:0.0 (List.assoc_opt k b) in
          if Float.abs (x -. y) > 0.03 then problem "%s: share of %s is %.3f on seed 1, %.3f on seed 2" w.name k x y)
        a;
      List.iter
        (fun (trace, section) ->
          let r = if trace = 0 then end_to_end w ~rvu ~seed:1 ~seconds:3.0 else Ladder.run w ~rvu ~seed:1 ~seconds:3.0 in
          if not r.Util.correct then problem "%s trace %d: not correct" w.name trace;
          List.iter
            (fun name ->
              match List.find_opt (fun (m : Util.metric) -> m.name = name) r.Util.metrics with
              | None -> problem "%s trace %d: metric %s missing" w.name trace name
              | Some m when not (Float.is_finite m.value) -> problem "%s trace %d: metric %s is %g" w.name trace name m.value
              | Some _ -> ())
            (declared section);
          Printf.printf "smoke: %s trace %d: %d metrics\n%!" w.name trace (List.length r.Util.metrics))
        [ (0, "end_to_end"); (1, "per_layer") ])
    W.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (Printf.printf "smoke: FAIL %s\n") ps;
      exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: rvubench --rvu PATH (--workload NAME --seed N --seconds S --trace 0|1 | --smoke)";
  exit 2

let () =
  Procs.install_cleanup ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let rvu = match opt "rvu" with Some p -> p | None -> usage () in
  if not (Sys.file_exists rvu) then (Printf.eprintf "perfbench: no rvu binary at %s\n" rvu; exit 2);
  (match Procs.strays ~rvu with
  | [] -> ()
  | pids ->
      Printf.eprintf "perfbench: rvu serve/router still running (pids %s); refusing to run\n%!"
        (String.concat " " (List.map string_of_int pids));
      exit 2);
  let int_opt k = Option.bind (opt k) int_of_string_opt in
  if opt "smoke" <> None then smoke ~rvu
  else
  match (opt "workload", int_opt "seed", Option.bind (opt "seconds") float_of_string_opt, int_opt "trace") with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0.0 -> (
      let w = match W.find name with Some w -> w | None -> usage () in
      let r =
        if trace = 0 then end_to_end w ~rvu ~seed ~seconds
        else Ladder.run w ~rvu ~seed ~seconds
      in
      Printf.printf "client peak RSS %.1f MiB\n" (Procs.vm_hwm_mb (Unix.getpid ()));
      List.iter
        (fun (m : Util.metric) ->
          if not (Float.is_finite m.value) then
            fail_invalid (Printf.sprintf "metric %s is %g; no result" m.name m.value))
        r.metrics;
      print_endline
        (Util.result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics);
      if not r.correct then exit 1)
  | _ -> usage ()
