(* End-to-end sessions against spawned [rvu serve] / [rvu router]
   processes over loopback TCP. *)

module Wire = Rvu_obs.Wire
module Wb = Rvu_service.Wire_bin
module W = Workloads

let now = Client.now

(* Response counts indexed by oracle code ([Oracle.ok] .. [Oracle.mismatch]). *)
let counts () = Array.make Oracle.codes 0

type session = {
  w : W.t;
  stream : W.stream;
  render : int -> W.rendered;
      (** key id -> rendered request; negative ids are warm-up requests *)
  oracle : Oracle.t;
  group : Procs.group;
  conns : Client.conn array;
  mutable pos : int;  (** next unused stream position *)
  mutable pending : (int * string * (int -> unit)) list;
      (** ok answers to keys the oracle had not learned yet: key id,
          response, and where the final code goes *)
  tally : int array;  (** every response of the session, by code *)
  mutable attempted : int;
}

let make_render (stream : W.stream) =
  let memo = Hashtbl.create 1024 in
  fun k ->
    match Hashtbl.find_opt memo k with
    | Some r -> r
    | None ->
        let req = if k < 0 then stream.warmup.(-1 - k) else stream.request k in
        let r = W.render_key req in
        (* Unique streams render each key once; keep the memo bounded. *)
        if Hashtbl.length memo < 4096 then Hashtbl.add memo k r;
        r

(* The router admits a shard only after its first health probe; clients
   are served once every shard is in the ring. *)
let wait_router_ready c =
  let deadline = now () +. 30.0 in
  let rec loop () =
    let st = Client.control c "stats" in
    let ready =
      match Option.bind (Wire.member "router" st) (Wire.member "shards") with
      | Some (Wire.List shards) ->
          List.for_all (fun s -> Wire.member "status" s = Some (Wire.String "ready")) shards
      | _ -> false
    in
    if not ready then begin
      if now () > deadline then failwith "router shards not ready after 30 s";
      Unix.sleepf 0.005;
      loop ()
    end
  in
  loop ()

(* Judge a response now if the oracle knows its key, else keep it until
   [verify]; [record] receives the final code either way. *)
let judge s k msg record =
  match Oracle.judge s.oracle k msg with
  | Some c ->
      s.tally.(c) <- s.tally.(c) + 1;
      record c
  | None -> s.pending <- (k, msg, record) :: s.pending

(* Send [keys] with at most [window] in flight per connection. *)
let send_keys s ~id_base keys =
  let n = Array.length keys in
  if n > 0 then begin
    let ph =
      Client.closed_loop ~limit:n s.conns ~base:id_base ~window:s.w.window ~seconds:Float.infinity
        ~message:(fun i -> W.message s.w.wire (s.render keys.(i)) ~id:(id_base + i + 1))
        ~on_response:(fun i _ _ msg -> judge s keys.(i) msg ignore)
    in
    s.attempted <- s.attempted + ph.Client.sent
  end

let warmup_base = 1_500_000_000
let fill_base = 1_600_000_000
let warmup_keys stream = Array.init (Array.length stream.W.warmup) (fun j -> -1 - j)

(* Spawn, wait until ready, run the warm-up slice. Returns the seconds it
   took, measured from just before the first spawn. *)
let start (w : W.t) ~rvu ~stream ~render ~oracle =
  let t0 = now () in
  let group = Procs.start ~rvu w in
  let conns = Array.init w.conns (fun _ -> Client.connect ~wire:w.wire group.Procs.port) in
  (match w.topology with W.Single -> () | W.Routed _ -> wait_router_ready conns.(0));
  let s =
    {
      w;
      stream;
      render;
      oracle;
      group;
      conns;
      pos = 0;
      pending = [];
      tally = counts ();
      attempted = 0;
    }
  in
  send_keys s ~id_base:warmup_base (warmup_keys stream);
  (s, now () -. t0)

let fill s = send_keys s ~id_base:fill_base s.stream.W.fill

let stop s =
  Array.iter Client.close s.conns;
  Procs.stop s.group

let message s i = W.message s.w.wire (s.render (s.stream.W.key_of i)) ~id:(i + 1)

type open_result = {
  ph : Client.open_phase;
  code : int array;  (** per request; -1 while unanswered *)
  by_code : int array;
}

let open_phase s ~rate ~seconds =
  let base = s.pos in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let code = Array.make n (-1) and by_code = counts () in
  let ph =
    Client.open_loop s.conns ~base ~n ~rate
      ~message:(fun i -> message s (base + i))
      ~on_response:(fun i _ msg ->
        judge s (s.stream.W.key_of (base + i)) msg (fun c ->
            code.(i) <- c;
            by_code.(c) <- by_code.(c) + 1))
  in
  s.pos <- base + n;
  s.attempted <- s.attempted + n;
  { ph; code; by_code }

(* Latency of each answered-ok request from its due time. Failed and
   missing requests are counted by [ok_share] instead: charging them a
   give-up time would let a handful of sheds decide the p99. *)
let latencies ?(lo = Float.neg_infinity) ?(hi = Float.infinity) (r : open_result) =
  let ph = r.ph in
  let l = ref [] in
  for i = ph.Client.n - 1 downto 0 do
    let due = ph.Client.due.(i) in
    if r.code.(i) = Oracle.ok && due >= lo && due < hi then
      l := (ph.Client.done_at.(i) -. due) :: !l
  done;
  Array.of_list !l

(* The phase cut into equal spans of its schedule, each with at least
   1000 requests (so its p99 has ten samples beyond it), at most 30; the
   p99 of each span, and their median. One stall (a GC pause, a
   descheduled vCPU) then moves one window instead of the whole figure. *)
let windowed_p99 (r : open_result) =
  let ph = r.ph in
  let windows = max 1 (min 30 (ph.Client.n / 1000)) in
  let span = (ph.Client.t_end -. ph.Client.t0) /. float_of_int windows in
  let per =
    Array.init windows (fun k ->
        let lo = ph.Client.t0 +. (span *. float_of_int k) in
        Util.quantile (latencies ~lo ~hi:(lo +. span) r) 0.99)
  in
  (Util.median per, per)

let lag_p99_ms (r : open_result) = 1000.0 *. Util.quantile r.ph.Client.lag 0.99

(* The closed loop keeps ok counts per window of its sending time (for
   [capacity]) instead of per-request records. *)
let capacity_windows = 9

type closed_result = { cph : Client.closed_phase; win_ok : int array; cby_code : int array }

let closed_phase ?on_response s ~seconds =
  let base = s.pos in
  let win_ok = Array.make capacity_windows 0 and by_code = counts () in
  let span = seconds /. float_of_int capacity_windows in
  let t0 = now () in
  let ph =
    Client.closed_loop s.conns ~base ~window:s.w.window ~seconds
      ~message:(fun i -> message s (base + i))
      ~on_response:(fun i sent arrived msg ->
        Option.iter (fun f -> f sent arrived) on_response;
        let k = int_of_float ((arrived -. t0) /. span) in
        judge s (s.stream.W.key_of (base + i)) msg (fun c ->
            by_code.(c) <- by_code.(c) + 1;
            if c = Oracle.ok && k < capacity_windows then win_ok.(k) <- win_ok.(k) + 1))
  in
  s.pos <- base + ph.Client.sent;
  s.attempted <- s.attempted + ph.Client.sent;
  { cph = ph; win_ok; cby_code = by_code }

(* Ok responses per second while the closed loop was sending: the median
   over its windows, so a stall in one window does not move the figure. *)
let capacity r =
  let span = (r.cph.Client.stopped -. r.cph.Client.started) /. float_of_int capacity_windows in
  Util.median (Array.map (fun c -> float_of_int c /. span) r.win_ok)

(* In-band counters: [stats] and [metrics] on the workload's own first
   connection, between phases (nothing else is in flight then). *)
type snapshot = { stats : (string, float) Hashtbl.t; queue_wait : (float * float) list }

let snapshot s =
  let st = Client.control s.conns.(0) "stats" in
  let m = Client.control s.conns.(0) "metrics" in
  { stats = Util.counters st; queue_wait = Util.histogram m "rvu_sched_queue_wait_seconds" }

(* Learn the pending keys (after the serving processes are gone, so the
   reference server competes with nothing measured), settle them and
   return the session's tally. *)
let verify s =
  let pending = s.pending in
  s.pending <- [];
  Oracle.learn s.oracle (List.map (fun (k, _, _) -> k) pending);
  List.iter (fun (k, msg, record) -> judge s k msg record) pending;
  Oracle.tally s.tally ~attempted:s.attempted
