(* The parallel execution substrate (lib/par) and its determinism
   contract: sharded runs must be bit-identical to sequential ones. *)

module Pool = Stratrec_par.Pool
module Shard = Stratrec_par.Shard
module Obs = Stratrec_obs
module Model = Stratrec_model
module Rng = Stratrec_util.Rng
module A = Stratrec.Aggregator

(* --- Shard.plan --- *)

let check_plan ~shards ~length =
  let plan = Shard.plan ~shards ~length in
  let slices = Array.length plan in
  Alcotest.(check int) "slice count" (min shards length) slices;
  let covered = ref 0 in
  Array.iteri
    (fun s (start, stop) ->
      Alcotest.(check bool) "non-empty" true (stop > start);
      if s = 0 then Alcotest.(check int) "starts at 0" 0 start
      else Alcotest.(check int) "contiguous" (snd plan.(s - 1)) start;
      covered := !covered + (stop - start))
    plan;
  Alcotest.(check int) "covers everything" length !covered;
  if slices > 0 then begin
    let sizes = Array.map (fun (a, b) -> b - a) plan in
    let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
    Alcotest.(check bool) "balanced" true (mx - mn <= 1)
  end

let test_plan_shapes () =
  for shards = 1 to 6 do
    for length = 0 to 13 do
      check_plan ~shards ~length
    done
  done;
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Stratrec_par.Shard.plan: shards must be >= 1") (fun () ->
      ignore (Shard.plan ~shards:0 ~length:3))

(* --- Pool --- *)

let test_pool_runs_all_shards () =
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let out = Array.make 37 (-1) in
  Pool.run pool ~shards:37 (fun s -> out.(s) <- s * s);
  Array.iteri (fun s v -> Alcotest.(check int) "shard ran" (s * s) v) out;
  (* Pools are reusable across runs. *)
  let again = Array.make 5 0 in
  Pool.run pool ~shards:5 (fun s -> again.(s) <- s + 1);
  Alcotest.(check (array int)) "second batch" [| 1; 2; 3; 4; 5 |] again

let test_pool_size_one_is_inline () =
  let pool = Pool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let order = ref [] in
  Pool.run pool ~shards:4 (fun s -> order := s :: !order);
  Alcotest.(check (list int)) "inline, in index order" [ 3; 2; 1; 0 ] !order

let test_pool_propagates_failure () =
  let pool = Pool.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ran = Array.make 8 false in
  (match Pool.run pool ~shards:8 (fun s -> if s = 5 then failwith "boom" else ran.(s) <- true)
   with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure message -> Alcotest.(check string) "exception text" "boom" message);
  (* The failure poisons nothing: other shards completed and the pool
     accepts new work. *)
  Array.iteri (fun s ok -> if s <> 5 then Alcotest.(check bool) "shard ran" true ok) ran;
  let sum = Atomic.make 0 in
  Pool.run pool ~shards:6 (fun s -> ignore (Atomic.fetch_and_add sum s));
  Alcotest.(check int) "usable after failure" 15 (Atomic.get sum)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Stratrec_par.Pool.run: pool is shut down") (fun () ->
      Pool.run pool ~shards:2 (fun _ -> ()))

let test_shared_pool_is_memoized () =
  let a = Pool.shared ~domains:3 in
  let b = Pool.shared ~domains:3 in
  Alcotest.(check bool) "same pool" true (a == b);
  Alcotest.(check int) "requested size" 3 (Pool.size a)

let test_shared_pool_after_failed_call () =
  (* The runtime caps live domains below 200, so this creation fails. It
     must join the workers it did spawn and release the shared lock. *)
  (match Pool.shared ~domains:200 with
  | _ -> Alcotest.fail "expected the runtime to refuse 200 domains"
  | exception Failure _ -> ());
  Pool.shutdown (Pool.create ~domains:2);
  let pool = Pool.shared ~domains:5 in
  let hits = Array.make 10 0 in
  Pool.run pool ~shards:10 (fun s -> hits.(s) <- hits.(s) + 1);
  Alcotest.(check (array int)) "every shard ran once" (Array.make 10 1) hits

(* --- Pool utilization --- *)

let total_tasks stats = Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 stats

let test_pool_stats_accounting () =
  let pool = Pool.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check bool) "profiling starts off" false (Pool.profiling pool);
  Pool.run pool ~shards:7 (fun _ -> ());
  let stats = Pool.stats pool in
  Alcotest.(check int) "one entry per domain" 3 (Array.length stats);
  (* Tasks count even without profiling; clocked tallies stay zero. *)
  Alcotest.(check (list int)) "round-robin task split" [ 3; 2; 2 ]
    (Array.to_list (Array.map (fun s -> s.Pool.tasks) stats));
  Array.iter
    (fun s ->
      Alcotest.(check (float 0.)) "busy stays 0 unprofiled" 0. s.Pool.busy_seconds;
      Alcotest.(check (float 0.)) "wait stays 0 unprofiled" 0. s.Pool.queue_wait_seconds)
    stats;
  Pool.set_profiling pool true;
  Alcotest.(check bool) "profiling on" true (Pool.profiling pool);
  Pool.run pool ~shards:5 (fun _ -> ignore (Sys.opaque_identity (Array.make 512 0.)));
  let stats = Pool.stats pool in
  Alcotest.(check int) "tasks accumulate across runs" 12 (total_tasks stats);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "busy non-negative" true (s.Pool.busy_seconds >= 0.);
      Alcotest.(check bool) "wait non-negative" true (s.Pool.queue_wait_seconds >= 0.))
    stats;
  Pool.reset_stats pool;
  Array.iter
    (fun s ->
      Alcotest.(check int) "reset zeroes tasks" 0 s.Pool.tasks;
      Alcotest.(check (float 0.)) "reset zeroes busy" 0. s.Pool.busy_seconds;
      Alcotest.(check (float 0.)) "reset zeroes wait" 0. s.Pool.queue_wait_seconds)
    (Pool.stats pool)

let test_pool_export_gauges () =
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Pool.set_profiling pool true;
  Pool.run pool ~shards:6 (fun _ -> ());
  let metrics = Obs.Registry.create () in
  Pool.export pool ~metrics;
  let snap = Obs.Registry.snapshot metrics in
  let gauge name = Obs.Snapshot.gauge_value snap name in
  Alcotest.(check (float 0.)) "pool_domains" 2. (gauge "par.pool_domains");
  Alcotest.(check (float 0.)) "tasks_run" 6. (gauge "par.tasks_run");
  Alcotest.(check (float 0.)) "domain0 tasks" 3. (gauge "par.domain0.tasks_run");
  Alcotest.(check (float 0.)) "domain1 tasks" 3. (gauge "par.domain1.tasks_run");
  Alcotest.(check bool) "busy seconds exported" true (gauge "par.busy_seconds" >= 0.);
  Alcotest.(check bool) "queue wait exported" true (gauge "par.queue_wait_seconds" >= 0.);
  Alcotest.(check bool) "imbalance in range" true
    (let r = gauge "par.shard_imbalance_ratio" in
     r = 0. || (r >= 1. && r <= 2.));
  (* The determinism contract of export: gauges only, nothing else. *)
  Alcotest.(check bool) "export writes only gauges" true
    (List.for_all
       (fun { Obs.Snapshot.value; _ } ->
         match value with Obs.Snapshot.Gauge _ -> true | _ -> false)
       snap)

(* --- Shard.init / map --- *)

let test_shard_init_matches_sequential () =
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let f i = (i * 17) mod 13 in
  Alcotest.(check (array int)) "init" (Array.init 41 f) (Shard.init pool 41 ~f);
  Alcotest.(check (array int)) "empty" [||] (Shard.init pool 0 ~f);
  let arr = Array.init 29 string_of_int in
  Alcotest.(check (array string))
    "map"
    (Array.map (fun s -> s ^ "!") arr)
    (Shard.map pool ~f:(fun s -> s ^ "!") arr)

(* --- sequential/parallel bit-identity --- *)

let aggregator_config =
  { A.default_config with A.inversion_rule = `Paper_equality; reestimate_parameters = false }

(* Everything deterministic a run produces: the rendered report, the
   counter/gauge part of the metrics snapshot plus histogram observation
   counts (timing values are clock readings and may differ), the span
   tree with ids and attributes, and the decision records sans
   timestamps. *)
let observable ~domains ~seed ~m ~w =
  let rng = Rng.create seed in
  let strategies = Model.Workload.strategies rng ~n:40 ~kind:Model.Workload.Uniform in
  let requests = Model.Workload.requests rng ~m ~k:3 in
  let metrics = Obs.Registry.create () in
  let trace = Obs.Trace.create () in
  let report =
    A.run ~config:aggregator_config ~metrics ~trace ~domains
      ~availability:(Model.Availability.certain w) ~strategies ~requests ()
  in
  let snapshot =
    List.filter_map
      (fun ({ Obs.Snapshot.value; _ } as entry) ->
        let series = Obs.Snapshot.series_name entry in
        match value with
        | Obs.Snapshot.Counter n -> Some (series, `Counter n)
        | Obs.Snapshot.Gauge g -> Some (series, `Gauge g)
        | Obs.Snapshot.Histogram h -> Some (series, `Observations h.Obs.Snapshot.count))
      (Obs.Registry.snapshot metrics)
  in
  let tree =
    List.map
      (fun n ->
        ( n.Obs.Trace.id,
          n.Obs.Trace.parent,
          n.Obs.Trace.name,
          n.Obs.Trace.depth,
          n.Obs.Trace.attrs ))
      (Obs.Trace.nodes trace)
  in
  let decisions =
    List.map
      (fun d ->
        (d.Obs.Trace.request_id, Format.asprintf "%a" Obs.Trace.pp_decision d))
      (Obs.Trace.decisions trace)
  in
  (Format.asprintf "%a" A.pp_report report, snapshot, tree, decisions)

(* Pool profiling only adds clock reads: switching it on for the shared
   pool an aggregator run rides on must leave the whole observable
   surface bit-identical to the sequential run. *)
let test_profiling_preserves_determinism () =
  let shared = Pool.shared ~domains:4 in
  let baseline = observable ~domains:1 ~seed:11 ~m:18 ~w:0.6 in
  Pool.reset_stats shared;
  Pool.set_profiling shared true;
  let profiled =
    Fun.protect ~finally:(fun () -> Pool.set_profiling shared false) @@ fun () ->
    observable ~domains:4 ~seed:11 ~m:18 ~w:0.6
  in
  Alcotest.(check bool) "profiled parallel run bit-identical" true (baseline = profiled);
  Alcotest.(check bool) "the profiled run was tallied" true
    (total_tasks (Pool.stats shared) > 0)

let prop_domains_bit_identical =
  QCheck.Test.make ~count:40 ~name:"run ~domains:4 = run ~domains:1"
    QCheck.(pair small_int (pair (int_range 0 24) (float_range 0.2 1.)))
    (fun (seed, (m, w)) ->
      observable ~domains:1 ~seed ~m ~w = observable ~domains:4 ~seed ~m ~w)

let prop_domains_2_3_bit_identical =
  QCheck.Test.make ~count:20 ~name:"domain count never changes the observable run"
    QCheck.(pair small_int (int_range 2 3))
    (fun (seed, domains) ->
      observable ~domains:1 ~seed ~m:15 ~w:0.5 = observable ~domains ~seed ~m:15 ~w:0.5)

let prop_plan_partitions =
  QCheck.Test.make ~count:300 ~name:"Shard.plan partitions [0, length)"
    QCheck.(pair (int_range 1 12) (int_range 0 200))
    (fun (shards, length) ->
      let plan = Shard.plan ~shards ~length in
      let expanded =
        Array.to_list plan |> List.concat_map (fun (a, b) -> List.init (b - a) (( + ) a))
      in
      expanded = List.init length Fun.id
      && Array.length plan = min shards length
      && Array.for_all
           (fun (a, b) -> b - a >= length / shards && b - a <= (length / shards) + 1)
           plan)

let () =
  Alcotest.run "par"
    [
      ( "shard",
        [
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "init matches sequential" `Quick
            test_shard_init_matches_sequential;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all shards" `Quick test_pool_runs_all_shards;
          Alcotest.test_case "size 1 is inline" `Quick test_pool_size_one_is_inline;
          Alcotest.test_case "propagates failure" `Quick test_pool_propagates_failure;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "shared pool memoized" `Quick test_shared_pool_is_memoized;
          Alcotest.test_case "shared pool after a failed call" `Quick
            test_shared_pool_after_failed_call;
          Alcotest.test_case "utilization stats" `Quick test_pool_stats_accounting;
          Alcotest.test_case "export gauges" `Quick test_pool_export_gauges;
          Alcotest.test_case "profiling preserves determinism" `Quick
            test_profiling_preserves_determinism;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [
            prop_domains_bit_identical;
            prop_domains_2_3_bit_identical;
            prop_plan_partitions;
          ] );
    ]
