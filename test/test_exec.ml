(* Tests for Rvu_exec: the domain pool and the batch runner.

   The contract under test is exactness: whatever the job count, the pool
   behaves like Array.map (order, exceptions) and the batch layer produces
   results bit-identical to sequential Engine.run — the QCheck property at
   the bottom enforces the latter across random instances. *)

open Rvu_geom
open Rvu_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order () =
  let xs = Array.init 1000 (fun i -> i) in
  let ys = Pool.parallel_map ~jobs:4 (fun x -> x * x) xs in
  check_bool "order preserved" true (ys = Array.map (fun x -> x * x) xs)

let test_pool_matches_sequential () =
  let xs = Array.init 137 (fun i -> float_of_int i /. 7.0) in
  let f x = (sin x *. 1000.0) +. x in
  check_bool "jobs=3 = Array.map" true
    (Pool.parallel_map ~jobs:3 f xs = Array.map f xs)

let test_pool_empty_and_singleton () =
  check_bool "empty" true (Pool.parallel_map ~jobs:4 succ [||] = [||]);
  check_bool "singleton" true (Pool.parallel_map ~jobs:4 succ [| 41 |] = [| 42 |])

let test_pool_jobs1_no_spawn () =
  (* jobs <= 1 must run on the calling domain (the documented fallback for
     nesting inside an already-parallel region). *)
  let self = Domain.self () in
  let domains =
    Pool.parallel_map ~jobs:1 (fun _ -> Domain.self ()) (Array.init 32 Fun.id)
  in
  check_bool "all on caller" true (Array.for_all (fun d -> d = self) domains)

exception Task_failed of int

let test_pool_exception_lowest_index () =
  (* Several tasks fail; the re-raised exception must deterministically be
     the lowest-index one, whatever the domain interleaving. *)
  for _ = 1 to 5 do
    match
      Pool.parallel_map ~jobs:4
        (fun i -> if i mod 7 = 3 then raise (Task_failed i) else i)
        (Array.init 200 Fun.id)
    with
    | _ -> Alcotest.fail "must raise"
    | exception Task_failed i -> check_int "lowest failing index" 3 i
  done

let test_pool_map_list () =
  let xs = List.init 50 (fun i -> i) in
  check_bool "list wrapper" true
    (Pool.parallel_map_list ~jobs:3 succ xs = List.map succ xs)

(* ------------------------------------------------------------------ *)
(* Batch vs sequential Engine.run: bit-identical *)

(* Shared generators and the bit-identity comparator; see test/gen.ml. *)
let result_equal = Gen.result_equal
let instance_arbitrary = Gen.instance_arbitrary

let test_batch_matches_engine () =
  let instances =
    Array.of_list
      (List.map
         (fun (tau, d, r) ->
           Rvu_sim.Engine.instance
             ~attributes:(Rvu_core.Attributes.make ~tau ())
             ~displacement:(Vec2.make d (0.4 *. d))
             ~r)
         [ (0.5, 1.5, 0.4); (0.75, 3.0, 0.3); (0.9, 1.0, 0.25) ])
  in
  let horizon = 1e6 in
  let batch = Batch.run ~horizon ~jobs:3 instances in
  let seq = Array.map (Rvu_sim.Engine.run ~horizon) instances in
  check_bool "bit-identical" true
    (Array.for_all2 result_equal batch seq)

let prop_batch_bit_identical =
  QCheck.Test.make ~count:12
    ~name:"Batch.run parallel = sequential Engine.run (bit-identical)"
    instance_arbitrary
    (fun instances ->
      (* A horizon keeps the infeasible draws (identical robots never
         appear, but mirror twins with v = tau = 1 cannot be drawn either;
         still, slow cases exist) bounded. *)
      let horizon = 2e4 in
      let batch = Batch.run ~horizon ~jobs:3 instances in
      let seq = Array.map (Rvu_sim.Engine.run ~horizon) instances in
      Array.for_all2 result_equal batch seq)

(* Derivation tracks the scan: a round-1 meeting (loadgen template 0)
   scans a few dozen intervals, so neither its derived chunks nor the
   shared reference prefix they pull through may reach far past it (a
   fixed 16384-row first pull would realize 16384 reference segments). *)
let test_batch_derives_on_demand () =
  let cache =
    Rvu_trajectory.Stream_cache.create (Rvu_core.Universal.program ())
  in
  let inst =
    Rvu_sim.Engine.instance
      ~attributes:(Rvu_core.Attributes.make ~tau:0.5 ())
      ~displacement:(Vec2.make 1.5 0.0) ~r:0.5
  in
  let res = Batch.run ~cache [| inst |] in
  check_bool "round-1 meeting" true
    (match res.(0).Rvu_sim.Engine.outcome with
    | Rvu_sim.Detector.Hit t -> t < Rvu_core.Phases.round_end 1
    | _ -> false);
  let realized = Rvu_trajectory.Stream_cache.realized cache in
  check_bool
    (Printf.sprintf "realized %d <= 1024 reference segments" realized)
    true (realized <= 1024)

(* ------------------------------------------------------------------ *)
(* Stream_cache under concurrency *)

let test_cache_concurrent_readers () =
  let take n s = List.of_seq (Seq.take n s) in
  let cache =
    Rvu_trajectory.Stream_cache.create ~max_segments:64
      (Rvu_core.Universal.program ())
  in
  let expected =
    take 200
      (Rvu_trajectory.Realize.realize Rvu_trajectory.Realize.identity
         (Rvu_core.Universal.program ()))
  in
  (* Four domains race through the cache (and past its 64-segment cap into
     the uncached overflow); each must see the exact reference stream. *)
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            take 200 (Rvu_trajectory.Stream_cache.stream cache)))
  in
  let streams = List.map Domain.join readers in
  List.iter
    (fun got -> check_bool "reader saw the reference stream" true (got = expected))
    streams;
  check_bool "cache stopped at its cap" true
    (Rvu_trajectory.Stream_cache.realized cache <= 64)

(* ------------------------------------------------------------------ *)
(* Persistent pool *)

let test_persistent_runs_tasks () =
  let pool = Pool.Persistent.start ~jobs:3 in
  check_int "jobs accessor" 3 (Pool.Persistent.jobs pool);
  let n = 200 in
  let done_count = Atomic.make 0 in
  let sum = Atomic.make 0 in
  for i = 1 to n do
    Pool.Persistent.submit pool (fun () ->
        ignore (Atomic.fetch_and_add sum i);
        ignore (Atomic.fetch_and_add done_count 1))
  done;
  Pool.Persistent.stop pool;
  check_int "every task ran before stop returned" n (Atomic.get done_count);
  check_int "tasks saw their arguments" (n * (n + 1) / 2) (Atomic.get sum)

let test_persistent_task_exception_contained () =
  let pool = Pool.Persistent.start ~jobs:2 in
  let ran = Atomic.make 0 in
  Pool.Persistent.submit pool (fun () -> failwith "boom");
  Pool.Persistent.submit pool (fun () -> ignore (Atomic.fetch_and_add ran 1));
  Pool.Persistent.stop pool;
  check_int "a raising task does not kill its worker" 1 (Atomic.get ran)

let test_persistent_submit_after_stop () =
  let pool = Pool.Persistent.start ~jobs:1 in
  Pool.Persistent.stop pool;
  check_bool "submit after stop raises" true
    (match Pool.Persistent.submit pool (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "matches Array.map" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "jobs=1 stays on caller" `Quick
            test_pool_jobs1_no_spawn;
          Alcotest.test_case "deterministic exception" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "list wrapper" `Quick test_pool_map_list;
        ] );
      ( "persistent pool",
        [
          Alcotest.test_case "runs tasks, stop drains" `Quick
            test_persistent_runs_tasks;
          Alcotest.test_case "task exception contained" `Quick
            test_persistent_task_exception_contained;
          Alcotest.test_case "submit after stop raises" `Quick
            test_persistent_submit_after_stop;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches Engine.run" `Quick
            test_batch_matches_engine;
          QCheck_alcotest.to_alcotest prop_batch_bit_identical;
          Alcotest.test_case "derives on demand" `Quick
            test_batch_derives_on_demand;
        ] );
      ( "stream cache",
        [
          Alcotest.test_case "concurrent readers" `Quick
            test_cache_concurrent_readers;
        ] );
    ]
