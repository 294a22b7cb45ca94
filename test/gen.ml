(* Shared QCheck generators for the whole test tree.

   One place for the attribute-tuple, instance, scenario, program and
   wire-document generators that used to be copied per suite — the
   distributions are the ones the original suites tuned (kept identical
   so property statistics don't shift), and the verify oracles draw from
   the same families. Linked into every test executable by the dune
   [tests] stanza. *)

open Rvu_geom

(* ------------------------------------------------------------------ *)
(* Attribute tuples (v, tau, phi, chi) *)

let attributes_of (((v, tau), phi), mirror) =
  Rvu_core.Attributes.make ~v ~tau ~phi
    ~chi:
      (if mirror then Rvu_core.Attributes.Opposite
       else Rvu_core.Attributes.Same)
    ()

let print_attributes a = Format.asprintf "%a" Rvu_core.Attributes.pp a

(* Wide ranges — the algebraic identities of test_core hold everywhere. *)
let attrs_arb =
  QCheck.map ~rev:(fun (a : Rvu_core.Attributes.t) ->
      ( ( (a.Rvu_core.Attributes.v, a.Rvu_core.Attributes.tau),
          a.Rvu_core.Attributes.phi ),
        a.Rvu_core.Attributes.chi = Rvu_core.Attributes.Opposite ))
    attributes_of
    QCheck.(
      pair
        (pair (pair (float_range 0.2 5.0) (float_range 0.2 5.0))
           (float_range 0.0 6.28))
        bool)

(* Mild ranges — the simulation soundness properties compare against
   brute-force sampling whose grid is tuned for these speeds. *)
let attrs_mild_arb =
  QCheck.map attributes_of
    QCheck.(
      pair
        (pair (pair (float_range 0.3 3.0) (float_range 0.3 3.0))
           (float_range 0.0 6.28))
        bool)

let attributes_gen =
  QCheck.Gen.(
    let* v = float_range 0.6 2.2 in
    let* tau = float_range 0.5 2.0 in
    let* phi = float_range 0.0 6.2 in
    let* mirror = bool in
    return (attributes_of (((v, tau), phi), mirror)))

(* ------------------------------------------------------------------ *)
(* Engine instances *)

let instance_gen =
  QCheck.Gen.(
    let* attributes = attributes_gen in
    let* d = float_range 0.8 3.0 in
    let* bearing = float_range 0.0 6.2 in
    let* r = float_range 0.15 0.6 in
    return
      (Rvu_sim.Engine.instance ~attributes
         ~displacement:(Vec2.of_polar ~radius:d ~angle:bearing)
         ~r))

let print_instance (inst : Rvu_sim.Engine.instance) =
  Format.asprintf "{attrs=%a; disp=%a; r=%g}" Rvu_core.Attributes.pp
    inst.Rvu_sim.Engine.attributes Vec2.pp inst.Rvu_sim.Engine.displacement
    inst.Rvu_sim.Engine.r

let instance_arbitrary =
  QCheck.make
    ~print:(fun instances ->
      String.concat "; " (Array.to_list (Array.map print_instance instances)))
    QCheck.Gen.(array_size (int_range 1 6) instance_gen)

(* Field-wise engine-result equality — the bit-identity contract of the
   batch layer and the verify oracle's three-path comparison. *)
let result_equal (a : Rvu_sim.Engine.result) (b : Rvu_sim.Engine.result) =
  a.Rvu_sim.Engine.outcome = b.Rvu_sim.Engine.outcome
  && a.Rvu_sim.Engine.stats = b.Rvu_sim.Engine.stats
  && a.Rvu_sim.Engine.bound = b.Rvu_sim.Engine.bound

(* ------------------------------------------------------------------ *)
(* Scenarios (workload families) *)

let print_scenario (s : Rvu_workload.Scenario.t) =
  Format.asprintf "{attrs=%a; d=%g; bearing=%g; r=%g}" Rvu_core.Attributes.pp
    s.Rvu_workload.Scenario.attributes s.Rvu_workload.Scenario.d
    s.Rvu_workload.Scenario.bearing s.Rvu_workload.Scenario.r

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 0x3FFFFFFF in
    let* family = oneofl Rvu_workload.Scenario.families in
    return
      (Rvu_workload.Scenario.random_of_family family
         (Rvu_workload.Rng.create ~seed:(Int64.of_int seed))))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

(* ------------------------------------------------------------------ *)
(* Programs: continuous multi-segment trajectories *)

let chained_program_arb =
  (* A continuous program: each piece starts where the previous ended. *)
  let open QCheck in
  let piece =
    oneof
      [
        map (fun d -> `Wait d) (float_range 0.5 3.0);
        map
          (fun (x, y) -> `Go (Vec2.make x y))
          (pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0));
        map
          (fun ((cx, cy), sweep) -> `Turn (Vec2.make cx cy, sweep))
          (pair
             (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
             (oneof [ float_range 0.5 5.0; float_range (-5.0) (-0.5) ]));
      ]
  in
  let module Segment = Rvu_trajectory.Segment in
  map
    (fun pieces ->
      let segs, _ =
        List.fold_left
          (fun (acc, pos) piece ->
            match piece with
            | `Wait dur -> (Segment.wait ~at:pos ~dur :: acc, pos)
            | `Go dst ->
                if Vec2.dist pos dst < 1e-6 then (acc, pos)
                else (Segment.line ~src:pos ~dst :: acc, dst)
            | `Turn (offset, sweep) ->
                let center = Vec2.add pos offset in
                let radius = Vec2.dist pos center in
                if radius < 1e-6 then (acc, pos)
                else begin
                  let from = Vec2.angle_of (Vec2.sub pos center) in
                  let seg = Segment.arc ~center ~radius ~from ~sweep in
                  (seg :: acc, Segment.end_pos seg)
                end)
          ([], Vec2.zero) pieces
      in
      List.rev segs)
    (list_of_size (QCheck.Gen.int_range 2 6) piece)

(* ------------------------------------------------------------------ *)
(* Wire documents *)

let finite_float_gen =
  QCheck.Gen.map
    (fun f -> if Float.is_finite f then f else Float.of_int (Hashtbl.hash f))
    QCheck.Gen.float

(* The finite floats a codec is most likely to mangle: signed zeros (the
   structural [=] conflates them — only the bits tell), the subnormal
   extremes, the normal extremes, and a repeating fraction whose decimal
   printing needs all 17 digits. *)
let edge_floats =
  [
    0.0;
    -0.0;
    Int64.float_of_bits 1L (* smallest positive subnormal *);
    Int64.float_of_bits 0x8000000000000001L (* smallest negative subnormal *);
    Float.min_float (* smallest positive normal *);
    -.Float.min_float;
    Float.max_float;
    -.Float.max_float;
    Float.epsilon;
    1.0 /. 3.0;
    -1.2345678901234567e308;
  ]

let edge_float_gen =
  QCheck.Gen.(frequency [ (1, oneofl edge_floats); (1, finite_float_gen) ])

let wire_gen_with float_gen =
  let module Wire = Rvu_service.Wire in
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Wire.Null;
                 map (fun b -> Wire.Bool b) bool;
                 map (fun i -> Wire.Int i) int;
                 map (fun f -> Wire.Float f) float_gen;
                 map (fun s -> Wire.String s) (string_size (int_bound 12));
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> Wire.List l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Wire.Obj l)
                     (list_size (int_bound 4)
                        (pair (string_size (int_bound 8)) (self (n / 2)))) );
               ]))

let wire_gen = wire_gen_with finite_float_gen

(* Same structural distribution with floats biased to the edge set — the
   binary codec battery draws from this one. *)
let wire_edge_gen = wire_gen_with edge_float_gen

(* ------------------------------------------------------------------ *)
(* Protocol requests *)

(* Every deterministic-compute request shape, with mild parameters so the
   differential JSON/binary server oracle finishes quickly. Stats,
   metrics, health and hello answer with time-varying or connection-local
   payloads — the codec shape tests cover those separately. *)
let proto_compute_request_gen =
  let module Proto = Rvu_service.Proto in
  QCheck.Gen.(
    let simulate =
      let* attrs = attributes_gen in
      let* d = float_range 0.8 3.0 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      let* algorithm4 = bool in
      return
        (Proto.Simulate
           {
             attrs;
             d;
             bearing;
             r;
             horizon = 1e8;
             algorithm4;
             transform = Rvu_core.Symmetry.identity;
           })
    in
    let search =
      let* d = float_range 0.8 3.0 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      return (Proto.Search { d; bearing; r; horizon = 1e8 })
    in
    let feasibility = map (fun a -> Proto.Feasibility a) attributes_gen in
    let bound =
      let* attrs = attributes_gen in
      let* d = float_range 0.8 3.0 in
      let* r = float_range 0.15 0.6 in
      return (Proto.Bound { attrs; d; r })
    in
    let schedule = map (fun n -> Proto.Schedule n) (int_range 1 6) in
    let batch =
      let* attrs = attributes_gen in
      let* d_lo = float_range 0.8 1.5 in
      let* width = float_range 0.1 1.0 in
      let* points = int_range 1 3 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      return
        (Proto.Batch
           { attrs; d_lo; d_hi = d_lo +. width; points; bearing; r; horizon = 1e8 })
    in
    oneof [ simulate; search; feasibility; bound; schedule; batch ])

(* ------------------------------------------------------------------ *)
(* Reading responses under a watchdog *)

(* Read from [fd] until [complete] holds of everything read so far,
   failing if that takes longer than [seconds]. The request side stays
   open meanwhile, so a response held back for more input shows up as a
   timeout here rather than as a hang. *)
let read_within ~seconds fd ~complete =
  let deadline = Unix.gettimeofday () +. seconds in
  let got = Buffer.create 4096 and chunk = Bytes.create 65536 in
  while not (complete (Buffer.contents got)) do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then
      Alcotest.failf "responses still missing after %.0f s (%d bytes read)"
        seconds (Buffer.length got);
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "connection closed early";
        Buffer.add_subbytes got chunk 0 n
  done;
  Buffer.contents got

let count_lines s = List.length (String.split_on_char '\n' s) - 1

let rec count_frames ?(pos = 0) s =
  if String.length s - pos < 4 then 0
  else
    let n = Int32.to_int (String.get_int32_be s pos) in
    if String.length s - pos - 4 < n then 0
    else 1 + count_frames ~pos:(pos + 4 + n) s

