(* Tests for Rvu_cluster: the rendezvous ring (determinism, balance,
   minimal disruption on eviction), the byte-span framing that keeps
   routed responses bit-identical to a direct server's, the exact merge
   arithmetic behind fan-out aggregation (ISSUE 7's reconciliation
   property: each aggregate equals the sum of its per-shard values), and
   a live router over in-process TCP workers. *)

open Rvu_core
module Wire = Rvu_service.Wire
module Proto = Rvu_service.Proto
module Server = Rvu_service.Server
module Ring = Rvu_cluster.Ring
module Frame = Rvu_cluster.Frame
module Merge = Rvu_cluster.Merge
module Router = Rvu_cluster.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ring *)

(* A synthetic routing key: what Frame.routing_parts yields for a
   canonical simulate line with the id span blanked. *)
let key_parts i =
  [ Printf.sprintf "{\"kind\":\"simulate\",\"d\":%d." i; "5}" ]

let test_ring_deterministic () =
  let parts = key_parts 7 in
  check_bool "score is a pure function" true
    (Ring.score ~shard:3 ~parts = Ring.score ~shard:3 ~parts);
  check_bool "separator fold: [ab;c] <> [a;bc]" true
    (Ring.score ~shard:0 ~parts:[ "ab"; "c" ]
    <> Ring.score ~shard:0 ~parts:[ "a"; "bc" ]);
  let live = [| true; true; true; true |] in
  check_bool "pick is deterministic" true
    (Ring.pick ~live ~parts = Ring.pick ~live ~parts);
  check_bool "no live shard routes nowhere" true
    (Ring.pick ~live:[| false; false; false |] ~parts = None)

let test_ring_balance () =
  let shards = 4 and n = 4000 in
  let counts = Array.make shards 0 in
  let live = Array.make shards true in
  for i = 0 to n - 1 do
    match Ring.pick ~live ~parts:(key_parts i) with
    | Some s -> counts.(s) <- counts.(s) + 1
    | None -> Alcotest.fail "no shard picked"
  done;
  (* Uniform would be 0.25 each; a skew past [0.15, 0.35] on 4000 keys
     would mean the mix is broken, not unlucky. *)
  Array.iteri
    (fun s c ->
      let frac = float_of_int c /. float_of_int n in
      check_bool
        (Printf.sprintf "shard %d holds a fair share (got %.3f)" s frac)
        true
        (frac > 0.15 && frac < 0.35))
    counts

let test_ring_minimal_disruption () =
  let shards = 4 and n = 1000 in
  let all = Array.make shards true in
  let dead = 2 in
  let without = Array.init shards (fun i -> i <> dead) in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let parts = key_parts i in
    let before = Option.get (Ring.pick ~live:all ~parts) in
    let after = Option.get (Ring.pick ~live:without ~parts) in
    (* The preference order is a property of the key alone; liveness only
       selects the first live entry. That statement IS minimal
       disruption: killing a shard moves exactly its own keys, each to
       its second choice, and re-admission brings exactly them back. *)
    let order = Ring.order ~shards ~parts in
    check_int "pick = first live in order" order.(0) before;
    if before = dead then begin
      incr moved;
      check_int "an orphaned key falls to its second choice" order.(1) after
    end
    else check_int "an unaffected key keeps its shard" before after
  done;
  check_bool "the dead shard owned some keys" true (!moved > 0)

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_routing_parts () =
  let a = {|{"id":1,"kind":"simulate","d":1.5,"timeout_ms":50}|} in
  let b = {|{"id":202,"kind":"simulate","d":1.5,"timeout_ms":9.75}|} in
  let c = {|{"id":1,"kind":"simulate","d":1.51,"timeout_ms":50}|} in
  check_bool "id and timeout_ms are masked out of the key" true
    (Frame.routing_parts a = Frame.routing_parts b);
  check_bool "the payload still keys" true
    (Frame.routing_parts a <> Frame.routing_parts c);
  check_bool "a string id is masked too" true
    (Frame.routing_parts {|{"id":"x","kind":"health"}|}
    = Frame.routing_parts {|{"id":"yy","kind":"health"}|})

let test_frame_forward_parts () =
  let line = {|{"kind":"health","id":"abc"}|} in
  let pre, post = Frame.forward_parts line in
  let forwarded = pre ^ "42" ^ post in
  (match Wire.parse forwarded with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      (* Duplicate "id" members are legal JSON; Wire.member takes the
         first, so the worker sees the router's id while the client's
         own spelling rides along untouched. *)
      check_bool "the prepended router id wins" true
        (Wire.member "id" w = Some (Wire.Int 42)));
  check_string "everything after '{' is the client's bytes"
    {|{"id":42,"kind":"health","id":"abc"}|}
    forwarded;
  let pre, post = Frame.forward_parts "{}" in
  check_string "an empty object closes cleanly" {|{"id":7}|}
    (pre ^ "7" ^ post)

let test_frame_response_splice () =
  let line = {|{"id":17,"ctx":"req-17","ok":{"t":129.42477041723}}|} in
  match Frame.response_spans line with
  | None -> Alcotest.fail "fast-path spans not found"
  | Some (rid, id_span, ctx_span) ->
      check_int "router id decoded" 17 rid;
      check_bool "ctx span found" true (ctx_span <> None);
      check_string "only the id and ctx bytes change"
        {|{"id":"cli","ctx":"req-cli","ok":{"t":129.42477041723}}|}
        (Frame.splice_response line ~id_span ~ctx_span ~id:{|"cli"|}
           ~ctx:(Some {|"req-cli"|}))

let test_frame_response_without_ctx () =
  (* Our workers always print ctx, but the splicer must not depend on
     it: a missing span gets the router's ctx inserted after the id. *)
  let line = {|{"id":3,"ok":{"n":1}}|} in
  match Frame.response_spans line with
  | None -> Alcotest.fail "fast-path spans not found"
  | Some (rid, id_span, ctx_span) ->
      check_int "router id decoded" 3 rid;
      check_bool "no ctx span" true (ctx_span = None);
      check_string "ctx inserted"
        {|{"id":9,"ctx":"req-9","ok":{"n":1}}|}
        (Frame.splice_response line ~id_span ~ctx_span ~id:"9"
           ~ctx:(Some {|"req-9"|}))

let test_frame_salvaged_null_id_falls_back () =
  (* A worker that salvaged a null id is not the fast-path shape; the
     router falls back to a full parse for those. *)
  check_bool "null id is not the fast path" true
    (Frame.response_spans {|{"id":null,"error":{"code":"parse_error"}}|}
    = None);
  check_bool "a non-object is not the fast path" true
    (Frame.response_spans "[1,2]" = None)

(* ------------------------------------------------------------------ *)
(* Merge: the reconciliation property on synthetic three-shard payloads *)

let shard_stats ~accepted ~shed ~hits ~uptime =
  Wire.Obj
    [
      ( "requests",
        Wire.Obj [ ("accepted", Wire.Int accepted); ("shed", Wire.Int shed) ]
      );
      ( "cache",
        Wire.Obj
          [
            ("hits", Wire.Int hits);
            ("fill", Wire.Float (float_of_int hits /. 8.0));
          ] );
      ("uptime", Wire.String uptime);
    ]

let int_at path w =
  let leaf =
    List.fold_left (fun w k -> Option.bind w (Wire.member k)) (Some w) path
  in
  match leaf with
  | Some (Wire.Int n) -> n
  | _ -> Alcotest.fail ("no int at " ^ String.concat "." path)

let test_merge_sum_json_reconciles () =
  let shards =
    [
      shard_stats ~accepted:10 ~shed:1 ~hits:4 ~uptime:"3s";
      shard_stats ~accepted:25 ~shed:0 ~hits:8 ~uptime:"5s";
      shard_stats ~accepted:7 ~shed:2 ~hits:0 ~uptime:"4s";
    ]
  in
  let agg = Merge.sum_json shards in
  (* Every counter in the aggregate equals the sum of its per-shard
     values — computed independently here, not read back from Merge. *)
  check_int "accepted reconciles" (10 + 25 + 7)
    (int_at [ "requests"; "accepted" ] agg);
  check_int "shed reconciles" (1 + 0 + 2) (int_at [ "requests"; "shed" ] agg);
  check_int "hits reconciles" (4 + 8 + 0) (int_at [ "cache"; "hits" ] agg);
  check_bool "floats add" true
    (Option.bind (Wire.member "cache" agg) (Wire.member "fill")
    = Some (Wire.Float ((4.0 +. 8.0 +. 0.0) /. 8.0)));
  check_bool "non-numeric leaves keep the first shard's value" true
    (Wire.member "uptime" agg = Some (Wire.String "3s"))

let test_merge_sum_json_shapes () =
  (* Int survives only when every summand is an Int. *)
  let agg =
    Merge.sum_json [ Wire.Obj [ ("n", Wire.Int 1) ];
                     Wire.Obj [ ("n", Wire.Float 2.5) ] ]
  in
  check_bool "int + float = float" true
    (Wire.member "n" agg = Some (Wire.Float 3.5));
  (* Keys union in first-appearance order; a field one shard lacks still
     aggregates over the shards that have it. *)
  let agg =
    Merge.sum_json
      [
        Wire.Obj [ ("a", Wire.Int 1) ];
        Wire.Obj [ ("b", Wire.Int 10); ("a", Wire.Int 2) ];
      ]
  in
  check_string "key union, first-appearance order"
    {|{"a":3,"b":10}|} (Wire.print agg)

(* Synthetic Metrics.json documents, same shape Rvu_obs.Metrics.json
   emits (cumulative bucket counts; +Inf is implied by count). *)
let metrics_doc samples = Wire.Obj [ ("metrics", Wire.List samples) ]

let counter_sample ?(labels = []) name v =
  Wire.Obj
    [
      ("name", Wire.String name);
      ("kind", Wire.String "counter");
      ("labels", Wire.Obj (List.map (fun (k, v) -> (k, Wire.String v)) labels));
      ("value", Wire.Int v);
    ]

let hist_sample name ~buckets ~count ~sum =
  Wire.Obj
    [
      ("name", Wire.String name);
      ("kind", Wire.String "histogram");
      ("labels", Wire.Obj []);
      ( "buckets",
        Wire.List
          (List.map
             (fun (le, cum) ->
               Wire.Obj
                 [ ("le", Wire.Float le); ("cumulative", Wire.Int cum) ])
             buckets) );
      ("count", Wire.Int count);
      ("sum", Wire.Float sum);
    ]

let find_sample name merged =
  match Wire.member "metrics" merged with
  | Some (Wire.List samples) ->
      List.find
        (fun s -> Wire.member "name" s = Some (Wire.String name))
        samples
  | _ -> Alcotest.fail "merged document has no metrics list"

let bucket_alist s =
  match Wire.member "buckets" s with
  | Some (Wire.List bs) ->
      List.map
        (fun b ->
          match (Wire.member "le" b, Wire.member "cumulative" b) with
          | Some (Wire.Float le), Some (Wire.Int c) -> (le, c)
          | _ -> Alcotest.fail "malformed bucket")
        bs
  | _ -> Alcotest.fail "no buckets"

let test_merge_metrics_reconciles () =
  (* Three shards; the third reports a bucket grid the others lack, so
     the merge must re-cumulate into the union grid. *)
  let s1 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 10;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.1, 2); (0.5, 5) ]
          ~count:6 ~sum:1.5;
      ]
  in
  let s2 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 20;
        counter_sample "rvu_req_total" ~labels:[ ("kind", "search") ] 4;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.1, 1); (0.5, 4) ]
          ~count:4 ~sum:0.25;
      ]
  in
  let s3 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 30;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.25, 3); (0.5, 3) ]
          ~count:3 ~sum:0.25;
      ]
  in
  let merged = Merge.metrics [ s1; s2; s3 ] in
  (* Counters: keyed on (name, labels); same-label values sum, the
     label set only one shard reports survives alone. *)
  let counters =
    match Wire.member "metrics" merged with
    | Some (Wire.List samples) ->
        List.filter_map
          (fun s ->
            if Wire.member "name" s = Some (Wire.String "rvu_req_total") then
              Some
                ( Wire.print (Option.get (Wire.member "labels" s)),
                  Wire.member "value" s )
            else None)
          samples
    | _ -> Alcotest.fail "no metrics list"
  in
  check_int "one series per label set" 2 (List.length counters);
  check_bool "simulate counter reconciles (10+20+30)" true
    (List.assoc {|{"kind":"simulate"}|} counters = Some (Wire.Int 60));
  check_bool "search counter passes through" true
    (List.assoc {|{"kind":"search"}|} counters = Some (Wire.Int 4));
  (* Histogram: union grid {0.1, 0.25, 0.5}; the merged cumulative count
     at each bound must equal the sum of the shard step functions
     evaluated at that bound — that is what "bucket-merged histograms
     reconcile exactly" means. *)
  let h = find_sample "rvu_t_seconds" merged in
  let shard_cum_at le =
    (* evaluate each shard's cumulative step function at le *)
    let eval buckets =
      List.fold_left (fun acc (b, c) -> if b <= le then max acc c else acc)
        0 buckets
    in
    eval [ (0.1, 2); (0.5, 5) ]
    + eval [ (0.1, 1); (0.5, 4) ]
    + eval [ (0.25, 3); (0.5, 3) ]
  in
  let merged_buckets = bucket_alist h in
  check_int "union grid size" 3 (List.length merged_buckets);
  List.iter
    (fun (le, cum) ->
      check_int
        (Printf.sprintf "cumulative at le=%g reconciles" le)
        (shard_cum_at le) cum)
    merged_buckets;
  check_bool "grid ascending" true
    (List.sort compare merged_buckets = merged_buckets);
  check_int "count reconciles" (6 + 4 + 3)
    (match Wire.member "count" h with
    | Some (Wire.Int n) -> n
    | _ -> -1);
  check_bool "sum reconciles" true
    (Wire.member "sum" h = Some (Wire.Float (1.5 +. 0.25 +. 0.25)))

let test_merge_prometheus_render () =
  let merged =
    Merge.metrics
      [
        metrics_doc
          [
            counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 10;
            hist_sample "rvu_t_seconds"
              ~buckets:[ (0.1, 2); (0.5, 5) ]
              ~count:6 ~sum:1.5;
          ];
        metrics_doc
          [
            counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 5;
            hist_sample "rvu_t_seconds"
              ~buckets:[ (0.1, 1); (0.5, 2) ]
              ~count:3 ~sum:0.5;
          ];
      ]
  in
  let text = Merge.prometheus merged in
  let has line =
    List.mem line (String.split_on_char '\n' text)
  in
  check_bool "counter line" true
    (has {|rvu_req_total{kind="simulate"} 15|});
  check_bool "bucket line, merged count" true
    (has {|rvu_t_seconds_bucket{le="0.1"} 3|});
  check_bool "+Inf bucket equals count" true
    (has {|rvu_t_seconds_bucket{le="+Inf"} 9|});
  check_bool "sum line" true (has "rvu_t_seconds_sum 2.0");
  check_bool "count line" true (has "rvu_t_seconds_count 9");
  (* one TYPE header per name, exactly *)
  let type_lines =
    List.filter
      (String.starts_with ~prefix:"# TYPE rvu_t_seconds ")
      (String.split_on_char '\n' text)
  in
  check_int "one TYPE header per name" 1 (List.length type_lines)

(* ------------------------------------------------------------------ *)
(* Router over in-process TCP workers *)

let simulate_line ~id d =
  let request =
    Proto.Simulate
      {
        attrs = Attributes.make ~tau:0.98 ();
        d;
        bearing = 0.7;
        r = 0.005;
        horizon = 1e13;
        algorithm4 = false;
        transform = Rvu_core.Symmetry.identity;
      }
  in
  Wire.print (Proto.wire_of_request ~id:(Wire.Int id) request)

let worker_config =
  { Server.default_config with jobs = 1; queue_depth = 32; cache_entries = 64 }

(* One in-process worker: a real Server behind a real TCP socket, exactly
   what the router talks to in production. serve_tcp returns after its
   single connection (the router's) closes. *)
let spawn_worker port =
  let server = Server.create ~config:worker_config () in
  let domain =
    Domain.spawn (fun () ->
        Server.serve_tcp server ~host:"127.0.0.1" ~port ~connections:1 ())
  in
  (server, domain)

let endpoint port = { Router.host = "127.0.0.1"; port; spawn = None }

let stop_workers workers =
  List.iter
    (fun (server, domain) ->
      Domain.join domain;
      Server.stop server)
    workers

let test_router_bit_identity_and_fanout () =
  let ports = [ 7541; 7542 ] in
  let workers = List.map spawn_worker ports in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      connect_timeout_ms = 5000.;
    }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  check_bool "both shards admitted" true
    (Array.for_all (String.equal "ready") (Router.shard_statuses router));
  (* Bit-identity: the routed response must be byte-equal to what a
     direct server answers for the same line — cold, and again warm (the
     second pass is served from the owning shard's cache). *)
  let lines =
    List.init 6 (fun i -> simulate_line ~id:(i + 1) (1.0 +. (0.25 *. float_of_int i)))
  in
  for _pass = 1 to 2 do
    List.iter
      (fun line ->
        check_string "routed = direct, byte for byte"
          (Server.handle_sync reference line)
          (Router.handle_sync router line))
      lines
  done;
  (* Fan-out: stats aggregates over both shards with the breakdown kept. *)
  (match Wire.parse (Router.handle_sync router {|{"id":90,"kind":"stats"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      let ok = Option.get (Wire.member "ok" w) in
      check_bool "aggregate present" true (Wire.member "aggregate" ok <> None);
      check_bool "router section present" true (Wire.member "router" ok <> None);
      (match Wire.member "shards" ok with
      | Some (Wire.List shards) ->
          check_int "one breakdown entry per shard" 2 (List.length shards);
          List.iter
            (fun sh ->
              check_bool "shard carries its stats payload" true
                (Wire.member "stats" sh <> None))
            shards
      | _ -> Alcotest.fail "no shards breakdown");
      (* The aggregate request counter must cover every evaluation
         request routed above, summed over both shards. *)
      check_bool "aggregate ok-count covers the routed requests" true
        (int_at [ "aggregate"; "requests"; "ok" ] ok >= 6));
  (* Health fan-out keeps the single-server top-level shape. *)
  match Wire.parse (Router.handle_sync router {|{"id":91,"kind":"health"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      let ok = Option.get (Wire.member "ok" w) in
      check_bool "cluster ready" true
        (Wire.member "status" ok = Some (Wire.String "ready"));
      check_bool "queue depth sums the shards" true
        (int_at [ "queue"; "depth" ] ok = 2 * worker_config.queue_depth)

let test_router_routes_around_dead_endpoint () =
  let live_port = 7543 and dead_port = 7549 in
  let workers = [ spawn_worker live_port ] in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      restart_backoff_ms = 100.;
      connect_timeout_ms = 600.;
    }
  in
  let router =
    Router.create ~config
      ~endpoints:[ endpoint live_port; endpoint dead_port ]
      ()
  in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  let statuses = Router.shard_statuses router in
  check_string "live endpoint admitted" "ready" statuses.(0);
  check_string "dead endpoint held down" "down" statuses.(1);
  (* Every key the dead shard would own falls to the survivor: all
     requests still answer, still bit-identical to a direct server. *)
  List.iter
    (fun line ->
      check_string "answered by the survivor, byte for byte"
        (Server.handle_sync reference line)
        (Router.handle_sync router line))
    (List.init 5 (fun i -> simulate_line ~id:(i + 1) (2.0 +. (0.3 *. float_of_int i))));
  (* The fan-out breakdown reports the dead shard as down, without a
     payload, and the aggregate still reconciles over the live one. *)
  match Wire.parse (Router.handle_sync router {|{"id":92,"kind":"stats"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w -> (
      let ok = Option.get (Wire.member "ok" w) in
      match Wire.member "shards" ok with
      | Some (Wire.List [ s0; s1 ]) ->
          check_bool "live shard reports stats" true
            (Wire.member "stats" s0 <> None);
          check_bool "dead shard reports down" true
            (Wire.member "status" s1 = Some (Wire.String "down"));
          check_bool "dead shard has no payload" true
            (Wire.member "stats" s1 = None)
      | _ -> Alcotest.fail "expected a two-shard breakdown")

(* Routed binary traffic: a router whose shard connections are upgraded
   to frames must answer a binary client byte-identically to a direct
   binary server — cold (decoded, routed, spliced) and warm (spliced
   from the owning shard's frame cache). *)
let test_router_binary_bit_identity () =
  let module Wb = Rvu_service.Wire_bin in
  let ports = [ 7561; 7562 ] in
  let workers = List.map spawn_worker ports in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      connect_timeout_ms = 5000.;
      wire = Wb.Binary;
    }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  check_bool "both shards admitted over frames" true
    (Array.for_all (String.equal "ready") (Router.shard_statuses router));
  let payloads =
    List.init 6 (fun i ->
        Wb.encode
          (Result.get_ok
             (Wire.parse
                (simulate_line ~id:(i + 1) (1.0 +. (0.25 *. float_of_int i))))))
  in
  for _pass = 1 to 2 do
    List.iter
      (fun payload ->
        check_string "routed binary = direct binary, byte for byte"
          (Server.handle_payload_sync reference payload)
          (Router.handle_payload_sync router payload))
      payloads
  done

(* ------------------------------------------------------------------ *)
(* Router client connections: the shared transport *)

module Wb = Rvu_service.Wire_bin
module Metrics = Rvu_obs.Metrics
module Log = Rvu_obs.Log

(* A router with a small record limit (128 - 64 bytes of envelope
   headroom = 64) over one endpoint nobody listens on: every shard stays
   down, so the router answers locally (health fans out to no shard). *)
let with_lone_router f =
  let config =
    {
      Router.default_config with
      max_request_bytes = 128;
      connect_timeout_ms = 100.;
      restart_backoff_ms = 60_000.;
    }
  in
  let router = Router.create ~config ~endpoints:[ endpoint 7579 ] () in
  Fun.protect ~finally:(fun () -> Router.stop router) @@ fun () -> f router

(* One Router.serve_channels session over OS pipes, as test_service's
   [with_conn] does for a server: [f] gets the client ends. *)
let with_router_conn router f =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let sic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr resp_w in
  let domain =
    Domain.spawn (fun () ->
        Router.serve_channels router sic soc;
        close_in_noerr sic;
        close_out_noerr soc)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Domain.join domain;
      close_in_noerr ic)
  @@ fun () -> f oc ic

let error_message w =
  match Option.bind (Wire.member "error" w) (Wire.member "message") with
  | Some (Wire.String m) -> m
  | _ -> ""

(* The router reads client lines with the server's bounded reader: a
   line far over its limit is answered with the oversized error, byte
   count and all, and the next request on the connection is served. *)
let test_router_hostile_line_bounded () =
  with_lone_router @@ fun router ->
  with_router_conn router @@ fun oc ic ->
  let big = 3 * 1024 * 1024 in
  output_string oc (String.make big 'x');
  output_string oc "\n{\"id\":2,\"kind\":\"health\"}\n";
  flush oc;
  let r1 = Result.get_ok (Wire.parse (input_line ic)) in
  let r2 = Result.get_ok (Wire.parse (input_line ic)) in
  check_string "oversized line answered with the full byte count"
    (Printf.sprintf "request line of %d bytes exceeds the 64 byte limit" big)
    (error_message r1);
  check_bool "the next request is served" true
    (Wire.member "id" r2 = Some (Wire.Int 2) && Wire.member "ok" r2 <> None)

let ring_has needle =
  List.exists
    (fun line ->
      let nh = String.length line and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub line i nn = needle || at (i + 1)) in
      at 0)
    (Log.ring_contents ())

(* The router's hello is counted, logged and timed like a server's, and
   its oversized-frame reply is the server's: same message, same log
   record, then the connection closes. *)
let test_router_hello_and_oversized_frame () =
  with_lone_router @@ fun router ->
  let latency = Metrics.histogram "rvu_router_request_seconds" in
  let before = Metrics.histogram_count latency in
  Log.configure ~level:Log.Info (Log.Ring 64);
  Fun.protect ~finally:Log.close @@ fun () ->
  with_router_conn router @@ fun oc ic ->
  output_string oc "{\"id\":0,\"kind\":\"hello\",\"wire\":\"binary\"}\n";
  flush oc;
  let hello = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "hello acknowledged" true
    (Wire.member "ok" hello = Some (Wire.Obj [ ("wire", Wire.String "binary") ]));
  check_int "hello timed into the request histogram" (before + 1)
    (Metrics.histogram_count latency);
  check_bool "hello logged as a response" true
    (ring_has {|"msg":"response"|} && ring_has {|"kind":"hello"|});
  output_string oc "\x00\x01\x00\x00" (* announces 65536 bytes *);
  flush oc;
  (match Wb.input_frame ic with
  | Wb.Frame p ->
      check_string "the server's oversized message, with the router's limit"
        "request frame of 65536 bytes exceeds the 64 byte limit"
        (error_message (Result.get_ok (Wb.decode p)))
  | _ -> Alcotest.fail "no response frame for the oversized length");
  check_bool "oversized frame logged" true (ring_has "request rejected: oversized");
  match Wb.input_frame ic with
  | Wb.Eof -> ()
  | _ -> Alcotest.fail "connection not closed after the oversized frame"

(* Through the router, N requests in one write — routed ones answered
   on shard reader domains, local rejections on the connection's own
   domain — then local rejections alone: every response arrives with no
   further input. *)
let test_router_no_response_waits_for_input () =
  let ports = [ 7571; 7572 ] in
  let workers = List.map spawn_worker ports in
  let config =
    { Router.default_config with probe_interval_ms = 100.; connect_timeout_ms = 5000. }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers)
  @@ fun () ->
  with_router_conn router @@ fun oc ic ->
  let fd = Unix.descr_of_in_channel ic in
  let n = 40 in
  let batch line =
    output_string oc (String.concat "" (List.init n (fun i -> line (i + 1) ^ "\n")));
    flush oc;
    ignore
      (Gen.read_within ~seconds:20.0 fd ~complete:(fun s ->
           Gen.count_lines s = n))
  in
  batch (fun id ->
      if id mod 2 = 0 then "[1]"
      else Printf.sprintf {|{"id":%d,"kind":"feasibility","v":%d}|} id (id + 1));
  batch (fun _ -> "[1]")

(* serve_tcp joins finished session domains as it accepts new ones:
   after 20 sequential connections, the 21st finds at most a few
   unjoined, not 20. *)
let test_router_reaps_sessions () =
  with_lone_router @@ fun router ->
  let port = 7573 in
  let served =
    Domain.spawn (fun () ->
        Router.serve_tcp router ~host:"127.0.0.1" ~port ~connections:21 ())
  in
  let sessions = Metrics.gauge "rvu_router_sessions" in
  let rec connect tries =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> sock
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        Unix.close sock;
        Unix.sleepf 0.05;
        connect (tries - 1)
  in
  let session () =
    let sock = connect 100 in
    let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
    output_string oc "{\"id\":1,\"kind\":\"health\"}\n";
    flush oc;
    ignore (input_line ic : string);
    sock
  in
  for _ = 1 to 20 do
    Unix.close (session ())
  done;
  let last = session () in
  let unjoined = Metrics.gauge_value sessions in
  Unix.close last;
  Domain.join served;
  check_bool
    (Printf.sprintf "%.0f session domains unjoined after 21 connections" unjoined)
    true (unjoined <= 5.0);
  check_bool "all joined on return" true (Metrics.gauge_value sessions = 0.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rvu_cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "balanced" `Quick test_ring_balance;
          Alcotest.test_case "minimal disruption" `Quick
            test_ring_minimal_disruption;
        ] );
      ( "frame",
        [
          Alcotest.test_case "routing key masks the envelope" `Quick
            test_frame_routing_parts;
          Alcotest.test_case "forwarding prepends the router id" `Quick
            test_frame_forward_parts;
          Alcotest.test_case "response splice" `Quick
            test_frame_response_splice;
          Alcotest.test_case "response splice without ctx" `Quick
            test_frame_response_without_ctx;
          Alcotest.test_case "salvaged null id falls back" `Quick
            test_frame_salvaged_null_id_falls_back;
        ] );
      ( "merge",
        [
          Alcotest.test_case "summed counters reconcile" `Quick
            test_merge_sum_json_reconciles;
          Alcotest.test_case "numeric shapes and key union" `Quick
            test_merge_sum_json_shapes;
          Alcotest.test_case "bucket-merged histograms reconcile" `Quick
            test_merge_metrics_reconciles;
          Alcotest.test_case "prometheus render" `Quick
            test_merge_prometheus_render;
        ] );
      ( "router",
        [
          Alcotest.test_case "bit identity and fan-out" `Quick
            test_router_bit_identity_and_fanout;
          Alcotest.test_case "routes around a dead endpoint" `Quick
            test_router_routes_around_dead_endpoint;
          Alcotest.test_case "routed binary is byte-identical" `Quick
            test_router_binary_bit_identity;
          Alcotest.test_case "hostile line bounded, connection kept" `Quick
            test_router_hostile_line_bounded;
          Alcotest.test_case "hello and oversized frame as a server's" `Quick
            test_router_hello_and_oversized_frame;
          Alcotest.test_case "no response waits for more input" `Quick
            test_router_no_response_waits_for_input;
          Alcotest.test_case "serve_tcp reaps finished sessions" `Quick
            test_router_reaps_sessions;
        ] );
    ]
