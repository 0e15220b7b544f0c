(* Benchmark harness regenerating every figure of the paper's evaluation
   (§6, Figures 5a-5f and 6a-6b, plus the two in-text results and a few
   ablations).  Shapes, not absolute numbers, are the reproduction target:
   the substrate is a simulated NVM on a shared-nothing container, not a
   2x20-core Optane testbed.

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- --only fig5a      # one figure
     dune exec bench/main.exe -- --threads 1,2,4 --scale 0.5
     dune exec bench/main.exe -- --bechamel        # per-op latency suite
     dune exec bench/main.exe -- --csv results.csv
     dune exec bench/main.exe -- --only fig5a --metrics --trace trace.json *)

let mb = 1 lsl 20

type ctx = {
  threads : int list;
  scale : float;
  csv : out_channel option;
}

let scaled ctx n = max 1 (int_of_float (float_of_int n *. ctx.scale))

let emit ctx row =
  Workloads.Harness.print_row row;
  match ctx.csv with
  | Some oc ->
    output_string oc (Workloads.Harness.row_to_csv row);
    output_char oc '\n'
  | None -> ()

(* Run one allocator benchmark over the line-up x thread sweep. *)
let sweep ctx ~figure ~title ~allocators ~heap_mb ~metric f =
  Workloads.Harness.print_header figure title;
  List.iter
    (fun threads ->
      List.iter
        (fun name ->
          let alloc = Baselines.Allocators.make name ~size:(heap_mb * mb) in
          let before = Alloc_iface.stats alloc in
          let ck_before =
            if Pmem.Check.enabled () then Some (Pmem.Check.totals ()) else None
          in
          let wl0 = Pmem.logical_bytes () and wp0 = Pmem.physical_bytes () in
          let s0 = Obs.Trace.begin_span () in
          let value, p50_ns, p99_ns =
            Workloads.Harness.with_alloc_latency (fun () -> f alloc ~threads)
          in
          Obs.Trace.span
            (Printf.sprintf "bench.%s.%s.t%d" figure name threads)
            s0;
          let after = Alloc_iface.stats alloc in
          let d = Pmem.Stats.diff after before in
          (* persistency-checker window for this row: wasted flushes as a
             fraction of all flushes, and fences that drained nothing *)
          let redundant_flush_rate, wasted_fences =
            match ck_before with
            | None -> (0., 0)
            | Some b ->
              let cd = Pmem.Check.diff (Pmem.Check.totals ()) b in
              ( (if cd.t_flushes > 0 then
                   float_of_int (Pmem.Check.wasted_flushes cd)
                   /. float_of_int cd.t_flushes
                 else 0.),
                cd.t_wasted_fences )
          in
          (* end-of-row census: worker domains have exited, so the heap is
             quiescent and occupancy/fragmentation are exact *)
          let occupancy, ext_frag =
            match Alloc_iface.frag alloc with
            | Some (o, e) -> (o, e)
            | None -> (0., 0.)
          in
          let write_amp =
            let dl = Pmem.logical_bytes () - wl0 in
            if dl = 0 then 0.
            else float_of_int (Pmem.physical_bytes () - wp0) /. float_of_int dl
          in
          emit ctx
            (Workloads.Harness.make_row ~figure ~allocator:name ~threads
               ~metric ~value ~flushes:d.flushes ~fences:d.fences ~p50_ns
               ~p99_ns ~occupancy ~ext_frag ~redundant_flush_rate
               ~wasted_fences ~write_amp ());
          Gc.full_major ())
        allocators)
    ctx.threads

let fig5a ctx =
  let p =
    {
      Workloads.Threadtest.iterations = scaled ctx 50;
      objects_per_iter = 2000;
      object_size = 64;
    }
  in
  sweep ctx ~figure:"fig5a" ~title:"Threadtest (lower is better)"
    ~allocators:Baselines.Allocators.benchmark_names ~heap_mb:64
    ~metric:"seconds" (fun alloc ~threads ->
      Workloads.Threadtest.run alloc ~threads p)

let fig5b ctx =
  let p = { Workloads.Shbench.default with iterations = scaled ctx 60_000 } in
  sweep ctx ~figure:"fig5b" ~title:"Shbench (lower is better)"
    ~allocators:Baselines.Allocators.benchmark_names ~heap_mb:64
    ~metric:"seconds" (fun alloc ~threads ->
      Workloads.Shbench.run alloc ~threads p)

let larson ctx ~figure ~title p =
  sweep ctx ~figure ~title ~allocators:Baselines.Allocators.benchmark_names
    ~heap_mb:128 ~metric:"Mops/s" (fun alloc ~threads ->
      Workloads.Larson.run alloc ~threads p)

let fig5c ctx =
  larson ctx ~figure:"fig5c" ~title:"Larson 64-400B (higher is better)"
    { Workloads.Larson.default with duration = 0.5 *. ctx.scale }

let larson_medium ctx =
  larson ctx ~figure:"larson_med"
    ~title:"Larson 64-2048B, Makalu medium-size collapse (higher is better)"
    { Workloads.Larson.medium with duration = 0.5 *. ctx.scale }

let fig5d ctx =
  let p =
    { Workloads.Prodcon.objects_total = scaled ctx 100_000; object_size = 64 }
  in
  sweep ctx ~figure:"fig5d" ~title:"Prod-con (lower is better)"
    ~allocators:Baselines.Allocators.benchmark_names ~heap_mb:128
    ~metric:"seconds" (fun alloc ~threads ->
      Workloads.Prodcon.run alloc ~threads p)

let fig5e ctx =
  let p =
    {
      Workloads.Vacation.relations = 16384;
      transactions = scaled ctx 20_000;
      queries = 5;
    }
  in
  sweep ctx ~figure:"fig5e"
    ~title:"Vacation OLTP, persistent allocators (lower is better)"
    ~allocators:Baselines.Allocators.persistent_names ~heap_mb:128
    ~metric:"seconds" (fun alloc ~threads ->
      Workloads.Vacation.run alloc ~threads p)

let memcached ctx ~figure ~title workload =
  let p =
    {
      Workloads.Memcached.records = scaled ctx 20_000;
      operations = scaled ctx 40_000;
      value_size = 100;
      workload;
    }
  in
  sweep ctx ~figure ~title ~allocators:Baselines.Allocators.benchmark_names
    ~heap_mb:128 ~metric:"Kops/s" (fun alloc ~threads ->
      Workloads.Memcached.run alloc ~threads p)

let fig5f ctx =
  memcached ctx ~figure:"fig5f" ~title:"Memcached YCSB-A 50/50 (higher is better)"
    Workloads.Ycsb.workload_a

let fig5f_read_b ctx =
  memcached ctx ~figure:"fig5f_B"
    ~title:"Memcached YCSB-B 95/5 (higher is better)" Workloads.Ycsb.workload_b

let fig6 ctx ~figure ~title structure =
  Workloads.Harness.print_header figure title;
  let sweep_blocks =
    List.map (scaled ctx) [ 20_000; 50_000; 100_000; 200_000; 400_000 ]
  in
  List.iter
    (fun blocks ->
      let r = Workloads.Recovery_bench.run structure ~blocks in
      emit ctx
        (Workloads.Harness.make_row ~figure
           ~allocator:(Workloads.Recovery_bench.structure_name structure)
           ~threads:r.reachable (* column reused: reachable blocks *)
           ~metric:"seconds" ~value:r.total_seconds ());
      Gc.full_major ())
    sweep_blocks

let fig6a ctx =
  fig6 ctx ~figure:"fig6a"
    ~title:"GC/recovery time vs reachable blocks, Treiber stack"
    Workloads.Recovery_bench.Stack

let fig6b ctx =
  fig6 ctx ~figure:"fig6b"
    ~title:"GC/recovery time vs reachable blocks, Natarajan-Mittal tree"
    Workloads.Recovery_bench.Tree

let ablation_filter ctx =
  Workloads.Harness.print_header "abl_filter"
    "Filtered vs conservative recovery GC (seconds; lower is better)";
  List.iter
    (fun (structure, use_filter) ->
      let blocks = scaled ctx 200_000 in
      let r = Workloads.Recovery_bench.run ~use_filter structure ~blocks in
      emit ctx
        (Workloads.Harness.make_row ~figure:"abl_filter"
           ~allocator:
             (Workloads.Recovery_bench.structure_name structure
             ^ if use_filter then "+filter" else "+conserv")
           ~threads:r.reachable ~metric:"seconds" ~value:r.total_seconds ());
      Gc.full_major ())
    [
      (Workloads.Recovery_bench.Stack, true);
      (Workloads.Recovery_bench.Stack, false);
      (Workloads.Recovery_bench.Tree, true);
      (Workloads.Recovery_bench.Tree, false);
      (Workloads.Recovery_bench.Fat_stack, true);
      (Workloads.Recovery_bench.Fat_stack, false);
    ]

let ablation_flush_cost ctx =
  (* the paper's central claim made visible: persistence operations per
     malloc/free pair, per allocator *)
  Workloads.Harness.print_header "abl_flush"
    "Persistence ops per malloc/free pair (1 thread)";
  let ops = scaled ctx 50_000 in
  List.iter
    (fun name ->
      let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
      let warm = Alloc_iface.malloc alloc 64 in
      Alloc_iface.free alloc warm;
      let before = Alloc_iface.stats alloc in
      for _ = 1 to ops do
        let va = Alloc_iface.malloc alloc 64 in
        Alloc_iface.free alloc va
      done;
      let d = Pmem.Stats.diff (Alloc_iface.stats alloc) before in
      emit ctx
        (Workloads.Harness.make_row ~figure:"abl_flush" ~allocator:name
           ~threads:1 ~metric:"flush/pair"
           ~value:(float_of_int d.flushes /. float_of_int ops)
           ~flushes:d.flushes ~fences:d.fences ());
      Gc.full_major ())
    Baselines.Allocators.names

let ablation_expansion ctx =
  (* paper §4.4: "we did not observe significant changes in performance
     with larger or smaller expansion sizes" — check that claim *)
  Workloads.Harness.print_header "abl_expand"
    "Ralloc expansion batch size (Threadtest seconds, 2 threads)";
  let p =
    {
      Workloads.Threadtest.iterations = scaled ctx 25;
      objects_per_iter = 2000;
      object_size = 64;
    }
  in
  List.iter
    (fun expansion_sbs ->
      let heap =
        Ralloc.create ~name:"expand" ~size:(64 * mb) ~expansion_sbs ()
      in
      let module A = Baselines.Allocators.Ralloc_alloc in
      let alloc = Alloc_iface.I ((module A), heap) in
      let v = Workloads.Threadtest.run alloc ~threads:2 p in
      emit ctx
        (Workloads.Harness.make_row ~figure:"abl_expand"
           ~allocator:(Printf.sprintf "exp=%d" expansion_sbs)
           ~threads:2 ~metric:"seconds" ~value:v ());
      Gc.full_major ())
    [ 1; 4; 16; 64 ]

let ablation_parallel_recovery ctx =
  (* the paper's §6.4 future work, implemented: parallelize reconstruction
     across superblocks (on this 1-core container the interest is the
     overhead, not the speedup) *)
  Workloads.Harness.print_header "abl_par_rec"
    "Parallel recovery reconstruction (seconds; trace stays sequential)";
  List.iter
    (fun domains ->
      let blocks = scaled ctx 300_000 in
      let heap = Ralloc.create ~name:"par-rec" ~size:(blocks * 32) () in
      let s = Dstruct.Pstack.create heap ~root:0 in
      for i = 1 to blocks do
        ignore (Dstruct.Pstack.push s i)
      done;
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      let r = Ralloc.recover ~domains heap in
      emit ctx
        (Workloads.Harness.make_row ~figure:"abl_par_rec"
           ~allocator:(Printf.sprintf "domains=%d" domains)
           ~threads:r.reachable_blocks ~metric:"seconds"
           ~value:(r.trace_seconds +. r.rebuild_seconds)
           ());
      Gc.full_major ())
    [ 1; 2; 4 ]

let ablation_latency ctx =
  (* sensitivity to the NVM cost model: as flush+fence latency grows, the
     eager-flushing allocators slow down linearly while Ralloc does not —
     the mechanism behind every Fig. 5 gap.  Latencies in ns. *)
  Workloads.Harness.print_header "abl_latency"
    "Threadtest (1 thread) vs simulated flush/fence latency";
  let p =
    {
      Workloads.Threadtest.iterations = scaled ctx 25;
      objects_per_iter = 2000;
      object_size = 64;
    }
  in
  List.iter
    (fun (flush_ns, fence_ns) ->
      Pmem.set_latency ~flush_ns ~fence_ns ();
      List.iter
        (fun name ->
          let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
          let v = Workloads.Threadtest.run alloc ~threads:1 p in
          emit ctx
            (Workloads.Harness.make_row ~figure:"abl_latency"
               ~allocator:(Printf.sprintf "%s@%dns" name (flush_ns + fence_ns))
               ~threads:1 ~metric:"seconds" ~value:v ());
          Gc.full_major ())
        [ "ralloc"; "makalu"; "pmdk" ])
    [ (0, 0); (50, 70); (90, 140); (200, 300); (400, 600) ];
  Pmem.set_latency ~flush_ns:90 ~fence_ns:140 ()

let ablation_pipeline ctx =
  (* the write-combining flush pipeline vs the legacy synchronous model:
     same workload, same flush/fence counts (verified by perf_smoke.exe),
     different cost.  ralloc_file runs the same over heap files mapped as
     the persistent view, so its write-backs land in the page cache. *)
  Workloads.Harness.print_header "abl_pipeline"
    "Posted flushes drained at fences vs synchronous flushes (Threadtest, 1 \
     thread)";
  let saved = Pmem.current_mode () in
  let p =
    {
      Workloads.Threadtest.iterations = scaled ctx 25;
      objects_per_iter = 2000;
      object_size = 64;
    }
  in
  List.iter
    (fun (mode, tag) ->
      Pmem.set_mode mode;
      List.iter
        (fun name ->
          let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
          let before = Alloc_iface.stats alloc in
          let v = Workloads.Threadtest.run alloc ~threads:1 p in
          let d = Pmem.Stats.diff (Alloc_iface.stats alloc) before in
          emit ctx
            (Workloads.Harness.make_row ~figure:"abl_pipeline"
               ~allocator:(name ^ "+" ^ tag) ~threads:1 ~metric:"seconds"
               ~value:v ~flushes:d.flushes ~fences:d.fences ());
          Gc.full_major ())
        [ "ralloc"; "ralloc_file"; "makalu"; "pmdk" ])
    [ (Pmem.Pipelined, "pipe"); (Pmem.Synchronous, "sync") ];
  Pmem.set_mode saved

let ablation_tcache ctx =
  (* thread caching is what separates LRMalloc (and hence Ralloc) from
     Michael's 2004 allocator (paper §3): same data structures, but one
     anchor CAS per op instead of a cache hit *)
  Workloads.Harness.print_header "abl_tcache"
    "Thread-cache ablation: LRMalloc vs Michael's allocator (Threadtest)";
  let p =
    {
      Workloads.Threadtest.iterations = scaled ctx 25;
      objects_per_iter = 2000;
      object_size = 64;
    }
  in
  List.iter
    (fun threads ->
      List.iter
        (fun name ->
          let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
          let v = Workloads.Threadtest.run alloc ~threads p in
          emit ctx
            (Workloads.Harness.make_row ~figure:"abl_tcache" ~allocator:name
               ~threads ~metric:"seconds" ~value:v ());
          Gc.full_major ())
        [ "lrmalloc"; "michael"; "ralloc" ])
    [ 1; 2; 4 ]

(* Per-op tail latency: every malloc and free is timed individually into
   preallocated per-thread sample arrays (exact order statistics, not the
   log-linear Obs histograms — a p99/p50 ratio near 1 is exactly the claim
   a bucketed histogram cannot certify).  The working set per thread is
   2x blocks-per-superblock of the class, churned by random slot
   replacement, so the window crosses superblock boundaries and exercises
   refill and cache-flush continuously: for 4 KB blocks a refill happens
   every ~16 allocations (6% of ops — squarely inside the p99), for 64 B
   every ~1024 (visible only in max_ns).  An amortized-with-spikes fast
   path shows up as p99_p50_ratio >> 1 on the small classes and a max_ns
   hundreds of times the p50; a constant-time one keeps the ratio near 1
   and pulls max_ns toward the p99. *)
let fig_tail ctx =
  Workloads.Harness.print_header "fig_tail"
    "Per-op malloc/free latency tails (p99/p50 ratio, lower is better)";
  let ops = scaled ctx 60_000 in
  let sizes = [ 64; 4096; 14336 ] in
  List.iter
    (fun threads ->
      List.iter
        (fun name ->
          List.iter
            (fun size ->
              let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
              let bps = 65536 / size in
              let slots_n = max 64 (2 * bps) in
              let msamples = Array.init threads (fun _ -> Array.make ops 0) in
              let fsamples = Array.init threads (fun _ -> Array.make ops 0) in
              let mcount = Array.make threads 0
              and fcount = Array.make threads 0 in
              ignore
                (Workloads.Harness.time_parallel ~threads (fun tid ->
                     let rng = Workloads.Harness.Rng.make (tid + 1) in
                     let slots = Array.make slots_n 0 in
                     let ms = msamples.(tid) and fs = fsamples.(tid) in
                     let mi = ref 0 and fi = ref 0 in
                     for _ = 1 to ops do
                       let s = Workloads.Harness.Rng.below rng slots_n in
                       if slots.(s) = 0 then begin
                         let t0 = Obs.now_ns () in
                         let va = Alloc_iface.malloc alloc size in
                         ms.(!mi) <- Obs.now_ns () - t0;
                         incr mi;
                         slots.(s) <- va
                       end
                       else begin
                         let t0 = Obs.now_ns () in
                         Alloc_iface.free alloc slots.(s);
                         fs.(!fi) <- Obs.now_ns () - t0;
                         incr fi;
                         slots.(s) <- 0
                       end
                     done;
                     mcount.(tid) <- !mi;
                     fcount.(tid) <- !fi;
                     Alloc_iface.thread_exit alloc));
              let emit_kind kind samples counts =
                let total = Array.fold_left ( + ) 0 counts in
                let all = Array.make total 0 in
                let off = ref 0 in
                Array.iteri
                  (fun tid n ->
                    Array.blit samples.(tid) 0 all !off n;
                    off := !off + n)
                  counts;
                Array.sort compare all;
                let pct q =
                  float_of_int all.(int_of_float (q *. float_of_int (total - 1)))
                in
                let p50 = pct 0.5 and p99 = pct 0.99 in
                emit ctx
                  (Workloads.Harness.make_row ~figure:"fig_tail"
                     ~allocator:(Printf.sprintf "%s@%d/%s" name size kind)
                     ~threads ~metric:"p99/p50"
                     ~value:(if p50 > 0. then p99 /. p50 else 0.)
                     ~p50_ns:p50 ~p99_ns:p99
                     ~max_ns:(float_of_int all.(total - 1))
                     ())
              in
              emit_kind "m" msamples mcount;
              emit_kind "f" fsamples fcount;
              Gc.full_major ())
            sizes)
        [ "ralloc"; "lrmalloc"; "makalu"; "pmdk" ])
    ctx.threads

let bench_server_scale ctx =
  (* Connection-scaling series for the event-driven server: does a fixed
     worker/loop pool hold throughput and the amortized-fence result as
     the connection count crosses the old 128-thread ceiling?  Sweep
     connections x batch with every connection holding exactly one
     request in flight — the adversarial shape for group commit, because
     batches only fill if the event loops can pump enough sockets per
     wake.  Keys are disjoint per connection (pure inserts), so the
     fences/op column isolates the commit fence: ~1 ordering fence per
     SET plus 1/batch commit fences.  Batch 1 and batch 64 pin that
     model at both ends, and the column must stay flat as connections
     grow.  Each row also prints what share of a SET's life was the
     (amortized) commit fence vs the batch-fill park, and the sweep
     ends with the cumulative p99 attribution.

     The flush/fence columns are the raw Ralloc.stats counts, exactly
     what the simulated hardware paid: the flight recorder logs only
     rare lifecycle events, never a per-op malloc/free, so nothing is
     deducted. *)
  Workloads.Harness.print_header "server_scale"
    "pkvd event loops: Kops/s and fences/op vs connections x batch";
  let dir = Filename.temp_file "pkvd-scale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let total_ops = scaled ctx 60_000 in
  let ack_hist = Obs.Histogram.make "server.ack_ns" in
  let conn_counts =
    List.filter (fun c -> c <= total_ops) [ 16; 64; 256; 1024; 4096 ]
  in
  (* request-span attribution: the write-class stage sums are diffed
     across each row *)
  let stage_idx name =
    let i = ref (-1) in
    Array.iteri (fun j s -> if s = name then i := j) Server.Rtrace.stages;
    !i
  in
  let st_fence = stage_idx "fence" and st_park = stage_idx "park" in
  List.iter
    (fun conns ->
      List.iter
        (fun batch ->
          let tag = Printf.sprintf "c%d-b%d" conns batch in
          let heap_path = Filename.concat dir tag in
          let sock = heap_path ^ ".sock" in
          let config =
            {
              (Server.Core.default_config ~heap_path ()) with
              workers = 2;
              loops = 2;
              max_conns = conns + 64;
              batch;
              batch_usec = 2_000;
              queue_cap = 4_096;
            }
          in
          let srv = Server.Core.start ~config (Unix.ADDR_UNIX sock) in
          let st = Server.Core.store srv in
          let before = Ralloc.stats st.heap in
          let ack_before = Obs.Histogram.snapshot ack_hist in
          let wl0 = Pmem.logical_bytes () and wp0 = Pmem.physical_bytes () in
          let fence0 = Server.Rtrace.sum_ns `Write st_fence
          and park0 = Server.Rtrace.sum_ns `Write st_park
          and tot0 = Server.Rtrace.total_sum_ns `Write in
          let acked_total = Atomic.make 0 in
          (* a handful of driver threads each own a slab of sockets and
             run window-1 rounds: send one SET on every owned socket,
             then read one response from each — [conns] requests in
             flight with [drivers] threads, not [conns] threads *)
          let drivers = min 8 conns in
          let per_driver = conns / drivers in
          let per_sock = max 1 (total_ops / conns) in
          let driver d =
            let fds =
              Array.init per_driver (fun _ ->
                  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                  let rec go n =
                    match Unix.connect fd (Unix.ADDR_UNIX sock) with
                    | () -> ()
                    | exception
                        Unix.Unix_error
                          ((Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
                      when n > 0 ->
                      Unix.sleepf 0.01;
                      go (n - 1)
                  in
                  go 100;
                  fd)
            in
            let acked = ref 0 in
            let key = ref (d * 50_000_000) in
            for _ = 1 to per_sock do
              Array.iter
                (fun fd ->
                  Server.Proto.write_frame fd
                    (Server.Proto.encode_request
                       (Server.Proto.Set (!key, !key)));
                  incr key)
                fds;
              Array.iter
                (fun fd ->
                  match Server.Proto.read_frame fd with
                  | Some p -> (
                    match Server.Proto.decode_response p with
                    | Ok Server.Proto.Ok -> incr acked
                    | Ok Server.Proto.Busy -> () (* dropped; key skipped *)
                    | _ -> failwith "server_scale: unexpected reply")
                  | None -> failwith "server_scale: connection closed")
                fds
            done;
            Array.iter Unix.close fds;
            Atomic.fetch_and_add acked_total !acked |> ignore
          in
          let t0 = Unix.gettimeofday () in
          let threads = List.init drivers (fun d -> Thread.create driver d) in
          List.iter Thread.join threads;
          let dt = Unix.gettimeofday () -. t0 in
          let d = Pmem.Stats.diff (Ralloc.stats st.heap) before in
          let ad =
            Obs.Histogram.diff (Obs.Histogram.snapshot ack_hist) ack_before
          in
          let acked = Atomic.get acked_total in
          Server.Core.stop srv;
          emit ctx
            (Workloads.Harness.make_row ~figure:"server_scale" ~allocator:tag
               ~threads:conns ~metric:"Kops/s"
               ~value:(float_of_int acked /. dt /. 1_000.)
               ~flushes:d.flushes ~fences:d.fences
               ~p50_ns:(float_of_int (Obs.Histogram.snap_quantile ad 0.5))
               ~p99_ns:(float_of_int (Obs.Histogram.snap_quantile ad 0.99))
               ~fences_per_op:
                 (float_of_int d.fences /. float_of_int (max 1 acked))
               ~write_amp:
                 (let dl = Pmem.logical_bytes () - wl0 in
                  if dl = 0 then 0.
                  else
                    float_of_int (Pmem.physical_bytes () - wp0)
                    /. float_of_int dl)
               ());
          let dtot = Server.Rtrace.total_sum_ns `Write - tot0 in
          if dtot > 0 && acked > 0 then begin
            let fence =
              float_of_int (Server.Rtrace.sum_ns `Write st_fence - fence0)
            and park =
              float_of_int (Server.Rtrace.sum_ns `Write st_park - park0)
            in
            Printf.printf
              "             %-10s fence/op=%6.0fns park/op=%9.0fns \
               fence-share=%5.2f%% park-share=%5.2f%%\n%!"
              tag
              (fence /. float_of_int acked)
              (park /. float_of_int acked)
              (100. *. fence /. float_of_int dtot)
              (100. *. park /. float_of_int dtot)
          end;
          List.iter
            (fun ext ->
              try Sys.remove (heap_path ^ ext) with Sys_error _ -> ())
            [ ".sb"; ".meta"; ".desc" ];
          Gc.full_major ())
        [ 1; 16; 64 ])
    conn_counts;
  (* cumulative p99 attribution over the whole sweep *)
  Server.Rtrace.report Format.std_formatter;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let figures =
  [
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig5d", fig5d);
    ("fig5e", fig5e);
    ("fig5f", fig5f);
    ("fig5f_B", fig5f_read_b);
    ("larson_med", larson_medium);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("abl_filter", ablation_filter);
    ("abl_flush", ablation_flush_cost);
    ("abl_expand", ablation_expansion);
    ("abl_par_rec", ablation_parallel_recovery);
    ("abl_latency", ablation_latency);
    ("abl_tcache", ablation_tcache);
    ("abl_pipeline", ablation_pipeline);
    ("fig_tail", fig_tail);
    ("server_scale", bench_server_scale);
  ]

(* ------------------------- Bechamel micro-suite ------------------------- *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let mk_sized name size =
    let alloc = Baselines.Allocators.make name ~size:(64 * mb) in
    Test.make ~name:(Printf.sprintf "%s/malloc-free-%dB" name size)
      (Staged.stage (fun () ->
           let va = Alloc_iface.malloc alloc size in
           Alloc_iface.free alloc va))
  in
  let tests =
    Test.make_grouped ~name:"per-op"
      (List.map (fun n -> mk_sized n 64) Baselines.Allocators.names
      @ List.concat_map
          (fun s -> [ mk_sized "ralloc" s; mk_sized "makalu" s ])
          [ 400; 4096 ])
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some (t :: _) -> (name, t) :: acc
        | _ -> acc)
      res []
  in
  Printf.printf "\n== bechamel: single-thread per-op latency ==\n";
  List.iter
    (fun (name, ns) -> Printf.printf "%-36s %10.1f ns/op\n" name ns)
    (List.sort compare rows)

(* ------------------------- CLI ------------------------- *)

(* Periodic monitor: every [interval] seconds snapshot the standard
   black-box series (the same [Ralloc.tsdb_global_sources] snapshot path
   the server's sampler persists) into a private in-memory Tsdb ring,
   plus windowed latency percentiles — not lifetime averages — so phase
   changes (provisioning bursts, retire storms) are visible as they
   happen.  Lines carry a [metrics] prefix to keep them grep-able out of
   the row stream. *)
let start_metrics_ticker interval =
  Obs.set_enabled true;
  Obs.Tsdb.set_enabled true;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        (* volatile backing: the bench has no one heap to persist into,
           but recording through a real Tsdb keeps this path and the
           server's sampler byte-for-byte the same code *)
        let words = Obs.Tsdb.words_for () in
        let region = Pmem.create ~size_bytes:(words * 8) () in
        let db =
          Obs.Tsdb.format (Pmem.flight_backend region ~first_word:0 ~words)
        in
        (* windowed (not lifetime) latency percentile source: each call
           diffs the histogram against the previous tick's snapshot *)
        let windowed_q q =
          let last = ref (Obs.Histogram.snapshot Alloc_iface.malloc_ns) in
          fun _dt ->
            let s = Obs.Histogram.snapshot Alloc_iface.malloc_ns in
            let d = Obs.Histogram.diff s !last in
            last := s;
            Obs.Histogram.snap_quantile d q
        in
        let sources =
          Ralloc.tsdb_global_sources ()
          @ [
              ("alloc.malloc_p50_ns", windowed_q 0.5);
              ("alloc.malloc_p99_ns", windowed_q 0.99);
            ]
        in
        let sampler = Obs.Tsdb.Sampler.create db sources in
        let idx name =
          match Obs.Tsdb.Sampler.index sampler name with
          | Some i -> i
          | None -> invalid_arg ("metrics ticker: unknown series " ^ name)
        in
        let i_malloc = idx "alloc.mallocs_s"
        and i_free = idx "alloc.frees_s"
        and i_p50 = idx "alloc.malloc_p50_ns"
        and i_p99 = idx "alloc.malloc_p99_ns"
        and i_flush = idx "pmem.flush_per_kop"
        and i_fence = idx "pmem.fence_per_kop"
        and i_wamp = idx "pmem.write_amp_milli" in
        while not (Atomic.get stop) do
          Unix.sleepf interval;
          let v = Obs.Tsdb.Sampler.tick sampler in
          if Array.length v > 0 then
            Printf.printf
              "[metrics] t=%6.1fs malloc %7.1f K/s free %7.1f K/s p50=%dns \
               p99=%dns | flush/kop %d fence/kop %d wamp=%.3f\n\
               %!"
              (Unix.gettimeofday () -. t0)
              (float_of_int v.(i_malloc) /. 1000.)
              (float_of_int v.(i_free) /. 1000.)
              v.(i_p50) v.(i_p99) v.(i_flush) v.(i_fence)
              (float_of_int v.(i_wamp) /. 1000.)
        done)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join d

let run_bench only threads scale csv_path bechamel metrics metrics_interval
    trace_path pmem_mode pcheck prof_path prof_rate =
  Pmem.set_mode pmem_mode;
  if pcheck then Pmem.Check.set_enabled true;
  if metrics then Obs.set_enabled true;
  if prof_path <> None then begin
    Obs.Prof.set_rate prof_rate;
    Obs.Prof.set_enabled true
  end;
  let stop_ticker =
    Option.map start_metrics_ticker metrics_interval
  in
  (* fail on an unwritable trace path now, not after the whole sweep *)
  Option.iter
    (fun path ->
      (match open_out path with
      | oc -> close_out oc
      | exception Sys_error msg ->
        Printf.eprintf "ralloc-bench: cannot write trace file: %s\n" msg;
        exit 1);
      Obs.Trace.set_enabled true)
    trace_path;
  let csv =
    Option.map
      (fun path ->
        let oc = open_out path in
        output_string oc Workloads.Harness.csv_header;
        output_char oc '\n';
        oc)
      csv_path
  in
  let ctx = { threads; scale; csv } in
  (* untimed warmup: the very first rows otherwise pay one-off process
     costs (page-fault machinery, lazy code paths) *)
  let warm = Baselines.Allocators.make "ralloc" ~size:(8 * mb) in
  ignore
    (Workloads.Threadtest.run warm ~threads:1
       { iterations = 2; objects_per_iter = 1000; object_size = 64 });
  Gc.full_major ();
  let selected =
    match only with
    | [] -> figures
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n figures with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown figure %s (known: %s)\n" n
              (String.concat ", " (List.map fst figures));
            exit 2)
        names
  in
  if bechamel then bechamel_suite ()
  else List.iter (fun (_, f) -> f ctx) selected;
  Option.iter (fun stop -> stop ()) stop_ticker;
  Option.iter close_out csv;
  if metrics then begin
    Format.printf "@.== obs: metrics dump ==@.";
    Obs.dump Format.std_formatter
  end;
  if pcheck then begin
    Format.printf "@.== pcheck: persistency checker ==@.";
    Pmem.Check.report Format.std_formatter;
    Pmem.Check.trace_report ()
  end;
  Option.iter
    (fun path ->
      Obs.Trace.write_chrome_trace path;
      Printf.printf
        "\ntrace: wrote %s (load in chrome://tracing or ui.perfetto.dev)\n"
        path)
    trace_path;
  (* heap profile export, format by extension: .collapsed feeds flamegraph
     scripts, .json is speedscope, anything else gets the text table *)
  Option.iter
    (fun path ->
      (match Filename.extension path with
      | ".collapsed" | ".folded" ->
        let buf = Buffer.create 4096 in
        Obs.Prof.collapsed buf;
        let oc = open_out path in
        Buffer.output_buffer oc buf;
        close_out oc
      | ".json" ->
        let buf = Buffer.create 4096 in
        Obs.Prof.speedscope buf;
        let oc = open_out path in
        Buffer.output_buffer oc buf;
        close_out oc
      | _ ->
        let oc = open_out path in
        let ppf = Format.formatter_of_out_channel oc in
        Obs.Prof.report ppf;
        Format.pp_print_flush ppf ();
        close_out oc);
      Printf.printf "prof: wrote %s (%d samples, %d sites)\n" path
        (Obs.Prof.samples ()) (Obs.Prof.site_count ()))
    prof_path

let () =
  let open Cmdliner in
  let only =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"FIG,..."
          ~doc:"Run only the listed figures (e.g. fig5a,fig6b).")
  in
  let threads =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "threads" ] ~docv:"N,..." ~doc:"Thread counts to sweep.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ]
          ~doc:"Scale factor on iteration counts (0.1 = fast smoke run).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write rows as CSV.")
  in
  let bechamel =
    Arg.(
      value & flag
      & info [ "bechamel" ] ~doc:"Run the Bechamel per-op latency suite.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the Obs telemetry registry (per-size-class counts, \
             tcache hit rate, latency percentiles) and print a dump after \
             the run.  Adds per-row p50/p99 malloc latency columns.")
  in
  let metrics_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:
            "Print a [metrics] line every $(docv) seconds: windowed \
             allocation and flush/fence rates with per-interval latency \
             percentiles (snapshot diffs, not lifetime averages).  Implies \
             the Obs registry is enabled.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Enable event tracing and write a Chrome trace_event JSON file \
             (viewable in chrome://tracing or Perfetto) at PATH.")
  in
  let pmem_mode =
    Arg.(
      value
      & opt
          (enum [ ("pipelined", Pmem.Pipelined); ("sync", Pmem.Synchronous) ])
          Pmem.Pipelined
      & info [ "pmem-mode" ] ~docv:"MODE"
          ~doc:
            "Persistence cost model: $(b,pipelined) (posted flushes drained \
             at fences, the default) or $(b,sync) (legacy per-line \
             synchronous flushes).  Flush/fence counts are identical in \
             both modes.")
  in
  let pcheck =
    Arg.(
      value & flag
      & info [ "pcheck" ]
          ~doc:
            "Enable the persistency-order checker ($(b,Pmem.Check)): per-row \
             $(b,redundant_flush_rate) and $(b,wasted_fences) columns, and a \
             per-site flush/fence waste report after the run.  Equivalent to \
             setting $(b,PCHECK=1).")
  in
  let prof =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof" ] ~docv:"PATH"
          ~doc:
            "Enable the sampling heap profiler for the run and write the \
             allocation-site profile to $(docv): flamegraph collapsed-stack \
             text for $(b,.collapsed)/$(b,.folded), speedscope JSON for \
             $(b,.json), a plain text table otherwise.")
  in
  let prof_rate =
    Arg.(
      value
      & opt int Obs.Prof.default_rate
      & info [ "prof-rate" ] ~docv:"BYTES"
          ~doc:"Profiler sampling rate: roughly one sample per $(docv) \
                allocated bytes.")
  in
  let term =
    Term.(
      const run_bench $ only $ threads $ scale $ csv $ bechamel $ metrics
      $ metrics_interval $ trace $ pmem_mode $ pcheck $ prof $ prof_rate)
  in
  let info =
    Cmd.info "ralloc-bench"
      ~doc:"Regenerate the figures of the Ralloc paper's evaluation"
  in
  exit (Cmd.eval (Cmd.v info term))
