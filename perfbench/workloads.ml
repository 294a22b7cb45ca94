(* The three serving workloads: their server configs, fixed request rates
   and seeded request streams.

   A stream is indexed, not materialised: [key_of i] names the distinct
   request (a key id) sent at stream position [i], and [request k] builds
   key [k]. Everything is a pure function of the seed, so the same seed
   always yields the same stream (checked by hashing it twice). *)

open Rvu_core
module Wire = Rvu_obs.Wire
module Wb = Rvu_service.Wire_bin
module Proto = Rvu_service.Proto
module Server = Rvu_service.Server
module Rng = Rvu_workload.Rng

type topology = Single | Routed of int  (** number of shards *)

type stream = {
  key_of : int -> int;  (** stream position -> key id *)
  request : int -> Proto.request;  (** key id -> request (pure) *)
  warmup : Proto.request array;
      (** the set-up slice: same shape as the stream, no key shared with it *)
  fill : int array;
      (** key ids of the stream's repeating requests, sent once untimed
          before the first phase so timed phases see the warm cache the
          workload is about; empty for all-unique streams *)
}

type t = {
  name : string;
  wire : Wb.mode;  (** client-side codec *)
  topology : topology;
  config : Server.config;  (** every serving process's config *)
  conns : int;  (** client connections *)
  window : int;  (** requests in flight per connection in the closed loop *)
  light_rps : float;
  heavy_rps : float;
      (** open-loop rates in req/s, fixed from the closed-loop capacity
          measured once on a 2-vCPU x86-64 VM (see [all]) *)
  stream : seed:int -> stream;
  sample : int;  (** requests per ladder pass *)
}

(* A per-(seed, index, salt) uniform draw: every stream position gets its
   own generator, so streams are random-access and seed-pure. *)
let uniform ~seed i salt =
  Rng.float
    (Rng.create
       ~seed:
         (Int64.add
            (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
            (Int64.of_int ((i * 8) + salt))))

(* ------------------------------------------------------------------ *)
(* serve-hot: a Zipf draw over a fixed population of 64 cacheable requests *)

let simulate ~attrs ~d ~bearing ~r ~horizon =
  Proto.Simulate
    {
      attrs;
      d;
      bearing;
      r;
      horizon;
      algorithm4 = false;
      transform = Symmetry.identity;
    }

(* Member [j] of variant block [block] (0, 1 or 2): eight kinds (every
   request kind and all three models) times eight parameter steps. Blocks
   share no key, so block 1 is the warm-up slice of block 0. *)
let member ~block j =
  let s = float_of_int ((block * 8) + (j / 8)) in
  match j mod 8 with
  | 0 ->
      simulate
        ~attrs:(Attributes.make ~tau:(0.5 +. (0.01 *. s)) ())
        ~d:(1.5 +. (0.1 *. s))
        ~bearing:0.3 ~r:0.5 ~horizon:1e7
  | 1 ->
      Proto.Model_run
        {
          model = Rvu_model.Cycle_speed.name;
          instance =
            Rvu_model.Cycle_speed.(
              instance { default with gap = default.length *. (0.01 +. (0.04 *. s)) });
        }
  | 2 ->
      Proto.Model_run
        {
          model = Rvu_model.Visible_bits.name;
          instance =
            Rvu_model.Visible_bits.(instance { default with d = 1.0 +. (0.25 *. s) });
        }
  | 3 -> Proto.Search { d = 2.0 +. (0.2 *. s); bearing = 0.9; r = 0.5; horizon = 1e7 }
  | 4 -> Proto.Feasibility (Attributes.make ~v:(1.5 +. (0.25 *. s)) ())
  | 5 ->
      Proto.Bound
        { attrs = Attributes.make ~tau:(0.6 +. (0.015 *. s)) (); d = 4.0 +. s; r = 0.2 }
  | 6 -> Proto.Schedule (4 + (block * 8) + (j / 8))
  | _ ->
      Proto.Batch
        {
          attrs = Attributes.make ~tau:0.5 ();
          d_lo = 1.0 +. (0.1 *. s);
          d_hi = 2.0 +. (0.1 *. s);
          points = 3;
          bearing = 0.9;
          r = 0.4;
          horizon = 1e7;
        }

let population = 64
let zipf_s = 1.1

let zipf_cdf =
  let w = Array.init population (fun k -> 1.0 /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let zipf_rank u =
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if u <= zipf_cdf.(mid) then find lo mid else find (mid + 1) hi
  in
  find 0 (population - 1)

let hot_stream ~seed =
  {
    key_of = (fun i -> zipf_rank (uniform ~seed i 0));
    request = member ~block:0;
    warmup = Array.init population (member ~block:1);
    fill = Array.init population Fun.id;
  }

(* ------------------------------------------------------------------ *)
(* serve-cold: every request unique, 7/8 simulate and 1/8 batch, drawn
   from the tau in [0.9, 0.99], d = 8, r = 0.01 family whose cost stays
   within about 0.4-1.9 ms per simulation. *)

let cold_request ~seed i =
  let u k = uniform ~seed i k in
  let attrs = Attributes.make ~tau:(0.9 +. (0.09 *. u 1)) () in
  let bearing = 2.0 *. Float.pi *. u 2 in
  if u 0 < 0.125 then
    Proto.Batch
      {
        attrs;
        d_lo = 8.0;
        d_hi = 8.0 +. (0.01 *. u 3);
        points = 2;
        bearing;
        r = 0.01;
        horizon = 1e13;
      }
  else simulate ~attrs ~d:8.0 ~bearing ~r:0.01 ~horizon:1e13

let cold_stream ~seed =
  {
    key_of = Fun.id;
    request = cold_request ~seed;
    (* Negative positions are never part of the timed stream, and their
       draws are independent, so the warm-up slice shares no key with it
       (checked when the run starts). *)
    warmup = Array.init 24 (fun i -> cold_request ~seed (-1 - i));
    fill = [||];
  }

(* ------------------------------------------------------------------ *)
(* routed-mix: the load generator's 12-template default mix, captured
   from [Loadgen] itself so it stays the program's own definition. The
   mix repeats exactly after lcm(12, 997) requests. *)

let mix_period = 12 * 997

let routed_stream ~seed =
  let lines = ref [] in
  let lg = Rvu_service.Loadgen.create ~seed ~requests:mix_period () in
  Rvu_service.Loadgen.drive ~send:(fun l -> lines := l :: !lines) lg;
  let reqs =
    Array.of_list
      (List.rev_map
         (fun l ->
           match Result.map Proto.request_of_wire (Wire.parse l) with
           | Ok (Ok env) -> env.Proto.request
           | _ -> failwith ("routed-mix: mix line does not decode: " ^ l))
         !lines)
  in
  (* Dedupe by canonical key: key ids are positions of first occurrence. *)
  let seen = Hashtbl.create 1024 in
  let key_of_pos =
    Array.mapi
      (fun i r ->
        let k = Proto.canonical_key r in
        match Hashtbl.find_opt seen k with
        | Some first -> first
        | None ->
            Hashtbl.add seen k i;
            i)
      reqs
  in
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun k -> Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    key_of_pos;
  let fill =
    Hashtbl.fold (fun k n acc -> if n > 1 then k :: acc else acc) counts []
    |> List.sort compare |> Array.of_list
  in
  {
    key_of = (fun i -> key_of_pos.(i mod mix_period));
    request = (fun k -> reqs.(k));
    (* Block 2 of the serve-hot population: every kind and model, with
       parameters the default mix never uses. *)
    warmup = Array.init population (member ~block:2);
    fill;
  }

(* ------------------------------------------------------------------ *)

let config ~jobs ~queue_depth ~cache_entries =
  {
    Server.jobs;
    queue_depth;
    cache_entries;
    timeout_ms = None;
    max_request_bytes = 1_048_576;
    slow_ms = None;
  }

(* Rates against the capacity measured once on a 2-vCPU x86-64 VM:
   routed-mix ~9-12k req/s, so about 25% and 45%; serve-cold ~900-1100
   req/s, so about 20% and 30%. Heavier rates queued enough that the p50
   followed the CPU the VM happened to get: across ten seeds the spread
   was 0.58x the median for serve-cold at 450 req/s and 0.22x for
   routed-mix at 7k req/s. serve-hot's closed loop reaches ~300k req/s,
   but an open loop at 25%/65% of that (80k/200k) keeps the one-thread
   load generator and the server's connection domain on both vCPUs, and
   its p99 then measured the CPU scheduler (0.3-1.3 ms and 5-8 ms across
   three seeds); 10k/30k leave headroom and repeat within a few percent. *)
let all =
  [
    {
      name = "serve-hot";
      wire = Wb.Binary;
      topology = Single;
      config = config ~jobs:1 ~queue_depth:64 ~cache_entries:256;
      conns = 1;
      window = 16;
      light_rps = 10000.0;
      heavy_rps = 30000.0;
      stream = hot_stream;
      sample = 128;
    };
    {
      name = "serve-cold";
      wire = Wb.Json;
      topology = Single;
      config = config ~jobs:2 ~queue_depth:64 ~cache_entries:256;
      conns = 1;
      window = 8;
      light_rps = 210.0;
      heavy_rps = 300.0;
      stream = cold_stream;
      sample = 32;
    };
    {
      name = "routed-mix";
      wire = Wb.Json;
      topology = Routed 2;
      config = config ~jobs:1 ~queue_depth:64 ~cache_entries:256;
      conns = 2;
      window = 8;
      light_rps = 2700.0;
      heavy_rps = 5000.0;
      stream = routed_stream;
      sample = 128;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Rendering: request bytes with a given envelope id, memoised per key *)

type rendered = { json_rest : string; bin_pre : string; bin_suf : string }

let render_key req =
  let key = Proto.canonical_key req in
  let bin = Wb.encode (Proto.wire_of_request ~id:(Wire.Int 0) req) in
  let pre, suf =
    match Wb.scan_request bin with
    | Some { Wb.id_value = Some (a, b); _ } ->
        (String.sub bin 0 a, String.sub bin b (String.length bin - b))
    | _ -> failwith "render: no id in encoded request"
  in
  { json_rest = String.sub key 1 (String.length key - 1); bin_pre = pre; bin_suf = suf }

(* One message as it goes on the wire: a JSON line with its newline, or a
   length-prefixed binary frame. *)
let message wire r ~id =
  match wire with
  | Wb.Json -> String.concat "" [ "{\"id\":"; string_of_int id; ","; r.json_rest; "\n" ]
  | Wb.Binary -> Wb.frame (String.concat "" [ r.bin_pre; Wb.encode (Wire.Int id); r.bin_suf ])

(* The message without framing, as the in-process server entry points take
   it (line without newline, or frame payload). *)
let payload wire r ~id =
  match wire with
  | Wb.Json -> String.concat "" [ "{\"id\":"; string_of_int id; ","; r.json_rest ]
  | Wb.Binary -> String.concat "" [ r.bin_pre; Wb.encode (Wire.Int id); r.bin_suf ]

let control_message wire ~id kind =
  let w = Wire.Obj [ ("id", Wire.Int id); ("kind", Wire.String kind) ] in
  match wire with
  | Wb.Json -> Wire.print w ^ "\n"
  | Wb.Binary -> Wb.frame (Wb.encode w)
