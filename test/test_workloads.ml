(* Smoke and sanity tests for the benchmark workloads: every workload must
   run to completion on every allocator it targets, and the generators
   must have the statistical properties the paper's experiments rely on. *)

let mb = 1 lsl 20

let small_threadtest =
  { Workloads.Threadtest.iterations = 3; objects_per_iter = 200; object_size = 64 }

let test_threadtest_all_allocators () =
  List.iter
    (fun name ->
      let a = Baselines.Allocators.make name ~size:(32 * mb) in
      let t = Workloads.Threadtest.run a ~threads:2 small_threadtest in
      Alcotest.(check bool) (name ^ " ran") true (t > 0.0))
    Baselines.Allocators.benchmark_names

let test_shbench () =
  List.iter
    (fun name ->
      let a = Baselines.Allocators.make name ~size:(32 * mb) in
      let p = { Workloads.Shbench.default with iterations = 2000 } in
      let t = Workloads.Shbench.run a ~threads:2 p in
      Alcotest.(check bool) (name ^ " ran") true (t > 0.0))
    [ "ralloc"; "pmdk" ]

let test_larson () =
  List.iter
    (fun name ->
      let a = Baselines.Allocators.make name ~size:(64 * mb) in
      let p = { Workloads.Larson.default with duration = 0.05 } in
      let thr = Workloads.Larson.run a ~threads:2 p in
      Alcotest.(check bool) (name ^ " positive throughput") true (thr > 0.0))
    [ "ralloc"; "makalu"; "jemalloc" ]

let test_prodcon () =
  List.iter
    (fun name ->
      let a = Baselines.Allocators.make name ~size:(64 * mb) in
      let p = { Workloads.Prodcon.objects_total = 4000; object_size = 64 } in
      let t = Workloads.Prodcon.run a ~threads:4 p in
      Alcotest.(check bool) (name ^ " ran") true (t > 0.0))
    [ "ralloc"; "lrmalloc" ]

let test_vacation () =
  List.iter
    (fun name ->
      let a = Baselines.Allocators.make name ~size:(64 * mb) in
      let p =
        { Workloads.Vacation.relations = 512; transactions = 400; queries = 3 }
      in
      let t = Workloads.Vacation.run a ~threads:2 p in
      Alcotest.(check bool) (name ^ " ran") true (t > 0.0))
    Baselines.Allocators.persistent_names

let test_memcached () =
  let a = Baselines.Allocators.make "ralloc" ~size:(64 * mb) in
  let p =
    {
      Workloads.Memcached.records = 1000;
      operations = 4000;
      value_size = 64;
      workload = Workloads.Ycsb.workload_a;
    }
  in
  let kops = Workloads.Memcached.run a ~threads:2 p in
  Alcotest.(check bool) "positive throughput" true (kops > 0.0)

let test_recovery_bench_linear () =
  (* Fig 6's defining property: recovery work grows linearly with the
     reachable blocks.  Asserted on the trace's block count, not on wall
     time, which a loaded machine can invert. *)
  let r1 = Workloads.Recovery_bench.run Workloads.Recovery_bench.Stack ~blocks:5_000 in
  let r2 = Workloads.Recovery_bench.run Workloads.Recovery_bench.Stack ~blocks:50_000 in
  Alcotest.(check bool) "more blocks found" true (r2.reachable > r1.reachable);
  Alcotest.(check bool) "reachable close to target" true
    (abs (r1.reachable - 5_000) < 16);
  Alcotest.(check bool)
    (Printf.sprintf "10x blocks, 10x traced (%d vs %d)" r2.reachable r1.reachable)
    true
    (abs (r2.reachable - (10 * r1.reachable)) < 160)

let test_recovery_bench_tree () =
  let r = Workloads.Recovery_bench.run Workloads.Recovery_bench.Tree ~blocks:10_000 in
  Alcotest.(check bool) "tree blocks found" true
    (r.reachable >= 9_000 && r.reachable <= 11_000)

let test_zipf_properties () =
  let n = 1000 in
  let z = Workloads.Ycsb.make_zipf n in
  let rng = Workloads.Harness.Rng.make 99 in
  let counts = Array.make n 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let k = Workloads.Ycsb.next z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* a zipfian distribution is very skewed: the most popular key should
     get far more than the uniform share, and a large fraction of keys
     almost nothing *)
  let max_count = Array.fold_left max 0 counts in
  let uniform = draws / n in
  Alcotest.(check bool)
    (Printf.sprintf "skew: top key %dx uniform" (max_count / uniform))
    true
    (max_count > 10 * uniform);
  let cold = Array.fold_left (fun acc c -> if c < uniform then acc + 1 else acc) 0 counts in
  Alcotest.(check bool) "many cold keys" true (cold > n / 2)

let test_workload_mix () =
  let rng = Workloads.Harness.Rng.make 5 in
  let reads = ref 0 and total = 50_000 in
  for _ = 1 to total do
    if Workloads.Ycsb.is_read Workloads.Ycsb.workload_b rng then incr reads
  done;
  let pct = 100 * !reads / total in
  Alcotest.(check bool)
    (Printf.sprintf "workload B read pct = %d" pct)
    true
    (pct >= 93 && pct <= 97)

let test_rng_determinism () =
  let a = Workloads.Harness.Rng.make 7 and b = Workloads.Harness.Rng.make 7 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Workloads.Harness.Rng.next a)
      (Workloads.Harness.Rng.next b)
  done

let test_rng_below_range () =
  let rng = Workloads.Harness.Rng.make 11 in
  for _ = 1 to 10_000 do
    let v = Workloads.Harness.Rng.below rng 37 in
    if v < 0 || v >= 37 then Alcotest.failf "below out of range: %d" v
  done

let () =
  Alcotest.run "workloads"
    [
      ( "benchmarks",
        [
          Alcotest.test_case "threadtest all allocators" `Slow
            test_threadtest_all_allocators;
          Alcotest.test_case "shbench" `Slow test_shbench;
          Alcotest.test_case "larson" `Slow test_larson;
          Alcotest.test_case "prodcon" `Slow test_prodcon;
          Alcotest.test_case "vacation" `Slow test_vacation;
          Alcotest.test_case "memcached" `Slow test_memcached;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovery time linear" `Quick
            test_recovery_bench_linear;
          Alcotest.test_case "tree recovery" `Quick test_recovery_bench_tree;
        ] );
      ( "generators",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_properties;
          Alcotest.test_case "workload mix" `Quick test_workload_mix;
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          Alcotest.test_case "rng below range" `Quick test_rng_below_range;
        ] );
    ]
