(* Mode-invariance smoke: the paper's flush-accounting thesis (abl_flush,
   the Fig. 5 flush/fence columns) must not depend on the persistence cost
   model.  Run a small fixed workload under the pipelined and synchronous
   models for every allocator and fail if the flush or fence counts differ
   by even one — a drift here means the pipeline changed *what* is
   persisted, not just when it is paid for. *)

let mb = 1 lsl 20

let () =
  let p =
    { Workloads.Threadtest.iterations = 2; objects_per_iter = 500; object_size = 64 }
  in
  let counts mode name =
    Pmem.set_mode mode;
    let alloc = Baselines.Allocators.make name ~size:(16 * mb) in
    let before = Alloc_iface.stats alloc in
    ignore (Workloads.Threadtest.run alloc ~threads:1 p);
    let d = Pmem.Stats.diff (Alloc_iface.stats alloc) before in
    (d.flushes, d.fences)
  in
  let failed = ref false in
  List.iter
    (fun name ->
      let pf, pfe = counts Pmem.Pipelined name in
      let sf, sfe = counts Pmem.Synchronous name in
      Printf.printf
        "%-12s pipelined: flushes=%-8d fences=%-8d  sync: flushes=%-8d \
         fences=%-8d%s\n"
        name pf pfe sf sfe
        (if pf <> sf || pfe <> sfe then "  <-- MODE-DEPENDENT" else "");
      if pf <> sf || pfe <> sfe then failed := true)
    Baselines.Allocators.names;
  Pmem.set_mode Pmem.Pipelined;
  if !failed then begin
    prerr_endline
      "perf_smoke: flush/fence counts differ between pmem modes; the \
       flush-accounting tables are no longer mode-invariant";
    exit 1
  end;
  print_endline "perf_smoke: flush/fence counts are mode-invariant";

  (* Flight-recorder cost accounting.  The recorder's contract: exactly 2
     flushes + 1 fence per recorded event, identical in both pmem modes,
     and exactly 0 of each while disabled — including when disabling comes
     from the OBS_DISABLED environment override rather than the flag. *)
  let flight_counts mode ~record =
    Pmem.set_mode mode;
    Obs.Flight.set_enabled record;
    let heap = Ralloc.create ~name:"flight-smoke" ~size:(16 * mb) () in
    let ev0 =
      match Ralloc.flight heap with
      | Some f -> Obs.Flight.total_recorded f
      | None -> 0
    in
    let before = Ralloc.stats heap in
    for _ = 1 to 1000 do
      let va = Ralloc.malloc heap 64 in
      Ralloc.free heap va
    done;
    let d = Pmem.Stats.diff (Ralloc.stats heap) before in
    let events =
      (match Ralloc.flight heap with
      | Some f -> Obs.Flight.total_recorded f
      | None -> 0)
      - ev0
    in
    Obs.Flight.set_enabled false;
    (d.flushes, d.fences, events)
  in
  let check what cond =
    Printf.printf "%-52s %s\n" what (if cond then "ok" else "FAIL");
    if not cond then failed := true
  in
  let off_f, off_fe, off_ev = flight_counts Pmem.Pipelined ~record:false in
  let on_f, on_fe, on_ev = flight_counts Pmem.Pipelined ~record:true in
  let son_f, son_fe, son_ev = flight_counts Pmem.Synchronous ~record:true in
  check "flight disabled records nothing" (off_ev = 0);
  check "flight enabled records the workload" (on_ev > 0);
  check
    (Printf.sprintf "flight cost is 2 flushes/event (%d events)" on_ev)
    (on_f - off_f = 2 * on_ev);
  check "flight cost is 1 fence/event" (on_fe - off_fe = on_ev);
  check "flight counts are mode-invariant"
    (son_f = on_f && son_fe = on_fe && son_ev = on_ev);
  Unix.putenv "OBS_DISABLED" "1";
  let env_f, env_fe, env_ev = flight_counts Pmem.Pipelined ~record:true in
  check "OBS_DISABLED forces the recorder off" (not (Obs.Flight.enabled ()));
  check "OBS_DISABLED run records nothing" (env_ev = 0);
  check "OBS_DISABLED run adds no flushes or fences"
    (env_f = off_f && env_fe = off_fe);
  Unix.putenv "OBS_DISABLED" "0";
  Pmem.set_mode Pmem.Pipelined;
  if !failed then begin
    prerr_endline
      "perf_smoke: flight-recorder cost accounting violated its contract";
    exit 1
  end;
  print_endline "perf_smoke: flight recorder is 2F+1F/event, mode-invariant, \
                 free when off";

  (* Persistency-checker zero-cost contract.  The checker is compiled into
     every pmem primitive; while disabled it must be invisible: identical
     flush/fence counts, zero tallies, no shadow allocation.  While enabled
     it is observational only — the counts must STILL be identical, since
     the hooks never add or absorb a persistence op.  Wall time cannot be
     asserted byte-identical between two process runs, so it is printed
     for eyeballing; the byte-identical claim is carried by the counts. *)
  let pcheck_counts ~enabled =
    Pmem.Check.set_enabled enabled;
    let alloc = Baselines.Allocators.make "ralloc" ~size:(16 * mb) in
    let before = Alloc_iface.stats alloc in
    let ck0 = Pmem.Check.totals () in
    let t0 = Unix.gettimeofday () in
    ignore (Workloads.Threadtest.run alloc ~threads:1 p);
    let dt = Unix.gettimeofday () -. t0 in
    let d = Pmem.Stats.diff (Alloc_iface.stats alloc) before in
    let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
    Pmem.Check.set_enabled false;
    (d.flushes, d.fences, dt, ckd)
  in
  Pmem.Check.reset ();
  let dis_f, dis_fe, dis_t, dis_ckd = pcheck_counts ~enabled:false in
  let en_f, en_fe, en_t, en_ckd = pcheck_counts ~enabled:true in
  check "pcheck disabled leaves all tallies at zero"
    (dis_ckd.t_flushes = 0 && dis_ckd.t_fences = 0
    && Pmem.Check.wasted_flushes dis_ckd = 0
    && dis_ckd.t_wasted_fences = 0
    && dis_ckd.t_violations = 0);
  check "pcheck flush counts identical enabled vs disabled" (en_f = dis_f);
  check "pcheck fence counts identical enabled vs disabled" (en_fe = dis_fe);
  check "pcheck enabled observes the workload's flushes"
    (en_ckd.t_flushes > 0 && en_ckd.t_fences > 0);
  check "pcheck observes every flush and fence exactly once"
    (en_ckd.t_flushes = en_f && en_ckd.t_fences = en_fe);
  Printf.printf
    "pcheck wall time: disabled %.4fs, enabled %.4fs (informational)\n" dis_t
    en_t;
  if !failed then begin
    prerr_endline "perf_smoke: persistency checker violated its cost contract";
    exit 1
  end;
  print_endline
    "perf_smoke: persistency checker is count-transparent and free when off";

  (* Span instrumentation cost contract.  The request-span hooks compiled
     into Pmem.flush/fence and Ralloc.malloc/free only *time* the
     primitives — they must never add or absorb a flush or fence, so the
     counts (and the persistency checker's observation stream) must be
     byte-identical with spans on and off.  And like every obs toggle,
     OBS_DISABLED must hold spans off even against set_enabled true. *)
  let span_counts ~spans =
    Obs.Span.set_enabled spans;
    Pmem.Check.set_enabled true;
    let heap = Ralloc.create ~name:"span-smoke" ~size:(16 * mb) () in
    let before = Ralloc.stats heap in
    let ck0 = Pmem.Check.totals () in
    for _ = 1 to 2000 do
      let va = Ralloc.malloc heap 64 in
      Ralloc.free heap va
    done;
    let d = Pmem.Stats.diff (Ralloc.stats heap) before in
    let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
    Pmem.Check.set_enabled false;
    Obs.Span.set_enabled false;
    (d.flushes, d.fences, ckd)
  in
  let sp_off_f, sp_off_fe, sp_off_ck = span_counts ~spans:false in
  let sp_on_f, sp_on_fe, sp_on_ck = span_counts ~spans:true in
  check "span hooks add no flushes"
    (sp_on_f = sp_off_f);
  check "span hooks add no fences" (sp_on_fe = sp_off_fe);
  check "pcheck stream identical with spans on vs off"
    (sp_on_ck.t_flushes = sp_off_ck.t_flushes
    && sp_on_ck.t_fences = sp_off_ck.t_fences
    && sp_on_ck.t_violations = sp_off_ck.t_violations);
  Unix.putenv "OBS_DISABLED" "1";
  Obs.Span.set_enabled true;
  check "OBS_DISABLED holds spans off against set_enabled true"
    (not (Obs.Span.enabled ()) && not (Obs.Span.on ()));
  Unix.putenv "OBS_DISABLED" "0";
  if !failed then begin
    prerr_endline "perf_smoke: span instrumentation violated its cost contract";
    exit 1
  end;
  print_endline
    "perf_smoke: span instrumentation is count-transparent and free when off";

  (* Tail-latency contract (fig_tail's CI teeth).  The constant-time fast
     path keeps ralloc's malloc/free p99 close to the p50 even for the
     14336 B class, whose 4-block-per-superblock geometry forces a refill
     or an eviction every couple of operations: with the eager per-block
     refill/flush this replaced, the p99/p50 ratio sat near 26-31x there;
     lazy adoption and per-superblock splicing hold it near 8-11x.  The
     thresholds sit between the two regimes with margin for CI noise, so
     a regression to O(blocks) refills or per-block cache flushes trips
     them.  Percentiles are exact, from raw per-op samples — the
     log-linear Obs histograms are too coarse to certify ratios this
     small.  The checker rides along on the same window to re-assert the
     zero-waste result: the whole churn, slow paths included, must issue
     no redundant flush and drain no empty fence. *)
  let pct sorted q =
    sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))
  in
  let tail_ratios size ops =
    Gc.full_major ();
    Pmem.Check.reset ();
    Pmem.Check.set_enabled true;
    let heap = Ralloc.create ~name:"tail-smoke" ~size:(64 * mb) () in
    let ck0 = Pmem.Check.totals () in
    let slots = Array.make 64 0 in
    let ms = Array.make ops 0 and fs = Array.make ops 0 in
    let mn = ref 0 and fn = ref 0 in
    let rng = Workloads.Harness.Rng.make 42 in
    for _ = 1 to ops do
      let i = Workloads.Harness.Rng.below rng 64 in
      if slots.(i) = 0 then begin
        let t0 = Obs.now_ns () in
        let va = Ralloc.malloc heap size in
        ms.(!mn) <- Obs.now_ns () - t0;
        incr mn;
        slots.(i) <- va
      end
      else begin
        let t0 = Obs.now_ns () in
        Ralloc.free heap slots.(i);
        fs.(!fn) <- Obs.now_ns () - t0;
        incr fn;
        slots.(i) <- 0
      end
    done;
    let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
    Pmem.Check.set_enabled false;
    let ratio samples n =
      let a = Array.sub samples 0 n in
      Array.sort compare a;
      float_of_int (max 1 (pct a 0.99)) /. float_of_int (max 1 (pct a 0.5))
    in
    (ratio ms !mn, ratio fs !fn, ckd)
  in
  let m64, f64, ck64 = tail_ratios 64 40_000 in
  let m14k, f14k, ck14k = tail_ratios 14336 40_000 in
  Printf.printf
    "ralloc malloc/free p99_p50_ratio: 64 B %.1fx/%.1fx, 14336 B %.1fx/%.1fx\n"
    m64 f64 m14k f14k;
  check "64 B malloc tail under 10x" (m64 < 10.);
  check "64 B free tail under 12x" (f64 < 12.);
  check "14336 B malloc tail under 18x (eager refill sat at ~30x)"
    (m14k < 18.);
  check "14336 B free tail under 18x (per-block flush sat at ~27x)"
    (f14k < 18.);
  let zero_waste ckd =
    Pmem.Check.wasted_flushes ckd = 0
    && ckd.Pmem.Check.t_wasted_fences = 0
    && ckd.Pmem.Check.t_violations = 0
  in
  check "64 B churn wastes no flush or fence" (zero_waste ck64);
  check "14336 B churn wastes no flush or fence" (zero_waste ck14k);
  if !failed then begin
    prerr_endline
      "perf_smoke: allocator tail-latency contract violated (fast path is \
       no longer constant-time, or a slow path wastes persistence ops)";
    exit 1
  end;
  print_endline
    "perf_smoke: allocator tails are flat and the churn is zero-waste";

  (* Heap-profiler cost contract.  Off, the profiler must be invisible:
     zero samples and tallies, an empty provenance ring, and flush/fence
     counts identical to an uninstrumented run — including when the off
     comes from OBS_DISABLED overriding set_enabled.  On, its persistence
     cost is exactly the provenance protocol: 2 flushes + 1 fence per ring
     entry plus 1 flush + 1 fence per newly persisted site name, nothing
     else.  The two deltas are solved against each other so an extra op
     anywhere in the sampling path breaks the cross-check. *)
  let prof_counts ~prof ~rate =
    Obs.Prof.reset ();
    if prof then begin
      Obs.Prof.set_rate rate;
      Obs.Prof.set_enabled true
    end;
    let heap = Ralloc.create ~name:"prof-smoke" ~size:(16 * mb) () in
    let ev0 =
      match Ralloc.prov heap with
      | Some r -> Obs.Prof.Ring.total_recorded r
      | None -> 0
    in
    let before = Ralloc.stats heap in
    for _ = 1 to 3000 do
      let va = Ralloc.malloc heap 64 in
      Ralloc.free heap va
    done;
    let d = Pmem.Stats.diff (Ralloc.stats heap) before in
    let entries =
      (match Ralloc.prov heap with
      | Some r -> Obs.Prof.Ring.total_recorded r
      | None -> 0)
      - ev0
    in
    let samples = Obs.Prof.samples () in
    let no_tallies = Obs.Prof.stats () = [] in
    Obs.Prof.set_enabled false;
    (d.flushes, d.fences, entries, samples, no_tallies)
  in
  let poff_f, poff_fe, poff_ev, poff_s, poff_nt =
    prof_counts ~prof:false ~rate:4096
  in
  let pon_f, pon_fe, pon_ev, pon_s, _ = prof_counts ~prof:true ~rate:4096 in
  check "profiler off samples nothing" (poff_s = 0 && poff_nt);
  check "profiler off writes no provenance entries" (poff_ev = 0);
  check "profiler on samples the workload" (pon_s > 0 && pon_ev > 0);
  (* entries = sampled allocs + frees of sampled blocks; persists = site
     names newly written to the persistent table.  Solve persists from the
     fence delta, then require the flush delta to agree. *)
  let persists = pon_fe - poff_fe - pon_ev in
  check
    (Printf.sprintf
       "profiler flush cost is 2/entry + 1/site (%d entries, %d sites)"
       pon_ev persists)
    (pon_f - poff_f = (2 * pon_ev) + persists);
  check "profiler site persists are bounded by the interned set"
    (persists >= 0 && persists <= Obs.Prof.site_count ());
  Unix.putenv "OBS_DISABLED" "1";
  let penv_f, penv_fe, penv_ev, penv_s, _ = prof_counts ~prof:true ~rate:4096 in
  check "OBS_DISABLED forces the profiler off" (not (Obs.Prof.on ()));
  check "OBS_DISABLED run samples nothing" (penv_s = 0 && penv_ev = 0);
  check "OBS_DISABLED run adds no flushes or fences"
    (penv_f = poff_f && penv_fe = poff_fe);
  Unix.putenv "OBS_DISABLED" "0";
  Obs.Prof.reset ();
  if !failed then begin
    prerr_endline "perf_smoke: heap profiler violated its cost contract";
    exit 1
  end;
  print_endline
    "perf_smoke: heap profiler is 2F+1F/entry + 1F+1F/site, free when off";

  (* Profiler cost contract at the default rate (one sample per 512 KiB):
     an unsampled malloc pays a budget decrement riding the DLS fetch
     malloc already pays, an unsampled free one flat-bitmap probe, and
     only a sample does more.  Both halves are checked as exact counts
     on the threadtest loop (metrics on, as BENCH_fig5a.json records
     it), run in this domain so Gc.minor_words sees all of it:
     - samples = bytes allocated / default_rate, +-1 — the budget starts
       empty, so the first malloc is sampled;
     - OCaml heap words, on minus off, are at most [words_per_sample]
       per sample — the unsampled paths allocate nothing.
     Wall-clock throughput is printed as a trend, not gated: on a shared
     2-vCPU box the best-of-5 windows swing by +-10%, more than the
     budget they would check. *)
  let tp_param =
    { Workloads.Threadtest.iterations = 100;
      objects_per_iter = 1000;
      object_size = 64 }
  in
  let words_per_sample = 256 in
  Obs.set_enabled true;
  let prof_window prof =
    let heap = Ralloc.create ~name:"prof-tp" ~size:(64 * mb) () in
    let slots = Array.make tp_param.objects_per_iter 0 in
    if prof then begin
      Obs.Prof.set_rate Obs.Prof.default_rate;
      Obs.Prof.set_enabled true
    end;
    let s0 = Obs.Prof.samples () in
    let w0 = Gc.minor_words () in
    let bytes = ref 0 in
    for _ = 1 to tp_param.iterations do
      for i = 0 to tp_param.objects_per_iter - 1 do
        let va = Ralloc.malloc heap tp_param.object_size in
        if va = 0 then failwith "perf_smoke: heap exhausted";
        Ralloc.store heap va i;
        slots.(i) <- va
      done;
      bytes :=
        !bytes + (tp_param.objects_per_iter * Ralloc.usable_size heap slots.(0));
      for i = 0 to tp_param.objects_per_iter - 1 do
        Ralloc.free heap slots.(i)
      done
    done;
    let words = Gc.minor_words () -. w0 in
    let samples = Obs.Prof.samples () - s0 in
    Obs.Prof.set_enabled false;
    Ralloc.close heap;
    (samples, int_of_float words, !bytes)
  in
  let off_s, off_w, _ = prof_window false in
  let on_s, on_w, bytes = prof_window true in
  let expect = float_of_int bytes /. float_of_int Obs.Prof.default_rate in
  Printf.printf
    "profiler threadtest counts: %d samples for %d bytes (expect %.2f +-1), \
     %d OCaml words on vs %d off (budget %d/sample)\n"
    on_s bytes expect on_w off_w words_per_sample;
  check "profiler off takes no samples" (off_s = 0);
  check "profiler samples once per default_rate bytes"
    (Float.abs (float_of_int on_s -. expect) <= 1.);
  check "profiler allocates OCaml words only when it samples"
    (on_w - off_w <= words_per_sample * on_s);
  let tp_off, tp_on =
    let alloc_off = Baselines.Allocators.make "ralloc" ~size:(64 * mb) in
    let alloc_on = Baselines.Allocators.make "ralloc" ~size:(64 * mb) in
    let window alloc prof =
      if prof then begin
        Obs.Prof.set_rate Obs.Prof.default_rate;
        Obs.Prof.set_enabled true
      end;
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      ignore (Workloads.Threadtest.run alloc ~threads:1 tp_param);
      let dt = Unix.gettimeofday () -. t0 in
      Obs.Prof.set_enabled false;
      dt
    in
    (* interleave the off and on windows so clock-frequency and cache
       drift across the measurement hits both sides equally *)
    let best_off = ref infinity and best_on = ref infinity in
    for _ = 1 to 5 do
      let doff = window alloc_off false in
      let don = window alloc_on true in
      if doff < !best_off then best_off := doff;
      if don < !best_on then best_on := don
    done;
    Obs.Prof.reset ();
    Obs.set_enabled false;
    (!best_off, !best_on)
  in
  Printf.printf
    "profiler threadtest best-of-5 (trend): off %.4fs, on(default rate) \
     %.4fs (%+.1f%%)\n"
    tp_off tp_on
    ((tp_on -. tp_off) /. tp_off *. 100.);
  if !failed then begin
    prerr_endline
      "perf_smoke: heap profiler broke its per-malloc cost contract at the \
       default sampling rate";
    exit 1
  end;
  print_endline
    "perf_smoke: heap profiler samples once per default_rate bytes and \
     allocates only when it samples";

  (* Metrics black-box (Tsdb) cost contract.  The sampler's persistence
     cost is exact and mode-invariant: 4 flushes (one per record line) +
     1 fence per fine tick, plus 4 flushes when a tick closes a mid
     bucket (every 10th) or a coarse bucket (every 60th).  Disabled —
     flag off or OBS_DISABLED — a tick evaluates nothing, writes
     nothing, and returns [||].  Series declaration cost (1 flush +
     1 fence per name) is paid once at sampler creation and excluded
     from the per-tick window below. *)
  let tsdb_counts mode ~record ~ticks =
    Pmem.set_mode mode;
    Obs.Tsdb.set_enabled record;
    let heap = Ralloc.create ~name:"tsdb-smoke" ~size:(16 * mb) () in
    let db =
      match Ralloc.tsdb heap with
      | Some d -> d
      | None -> failwith "tsdb-smoke: heap has no tsdb window"
    in
    let sampler =
      Obs.Tsdb.Sampler.create db
        [ ("smoke.one", fun _ -> 1); ("smoke.two", fun _ -> 2) ]
    in
    let before = Ralloc.stats heap in
    let ticked = ref 0 in
    for _ = 1 to ticks do
      if Array.length (Obs.Tsdb.Sampler.tick sampler) > 0 then incr ticked
    done;
    let d = Pmem.Stats.diff (Ralloc.stats heap) before in
    Obs.Tsdb.set_enabled false;
    (d.flushes, d.fences, !ticked)
  in
  (* 65 ticks: 6 mid closes + 1 coarse close ride along *)
  let ticks = 65 in
  let mid_closes = ticks / 10 and coarse_closes = ticks / 60 in
  let want_f = 4 * (ticks + mid_closes + coarse_closes) in
  let toff_f, toff_fe, toff_n = tsdb_counts Pmem.Pipelined ~record:false ~ticks in
  let ton_f, ton_fe, ton_n = tsdb_counts Pmem.Pipelined ~record:true ~ticks in
  let tson_f, tson_fe, tson_n =
    tsdb_counts Pmem.Synchronous ~record:true ~ticks
  in
  Pmem.set_mode Pmem.Pipelined;
  check "tsdb disabled ticks are inert" (toff_n = 0 && toff_f = 0 && toff_fe = 0);
  check
    (Printf.sprintf "tsdb tick cost is 4 flushes/record (%d records)"
       (ticks + mid_closes + coarse_closes))
    (ton_n = ticks && ton_f = want_f);
  check "tsdb tick cost is 1 fence/tick" (ton_fe = ticks);
  check "tsdb tick counts are mode-invariant"
    (tson_f = ton_f && tson_fe = ton_fe && tson_n = ton_n);
  Unix.putenv "OBS_DISABLED" "1";
  let tenv_f, tenv_fe, tenv_n = tsdb_counts Pmem.Pipelined ~record:true ~ticks in
  check "OBS_DISABLED holds the tsdb sampler off against set_enabled true"
    (not (Obs.Tsdb.enabled ()));
  check "OBS_DISABLED ticks record nothing"
    (tenv_n = 0 && tenv_f = 0 && tenv_fe = 0);
  Unix.putenv "OBS_DISABLED" "0";
  Pmem.set_mode Pmem.Pipelined;
  if !failed then begin
    prerr_endline "perf_smoke: tsdb sampler violated its cost contract";
    exit 1
  end;
  print_endline
    "perf_smoke: tsdb sampler is 4F/record + 1F/tick, mode-invariant, free \
     when off";

  (* Sampler throughput contract: the cost the sampler can impose on the
     serving path is (ticks/second x seconds/tick), so bound the
     per-tick wall time directly — a relative two-window wall-clock
     comparison at a 1% tolerance is below this box's scheduler noise
     floor, but the per-tick bound is deterministic.  Budget: 1% of a
     core at the server's default 1 s cadence allows 10 ms/tick; require
     two orders of magnitude better (100 us/tick, i.e. <=1% even at
     100 Hz), ticking the full standard series set against a live
     allocation workload so the census sources walk a real heap. *)
  let tick_us =
    Obs.set_enabled true;
    Obs.Tsdb.set_enabled true;
    let alloc = Baselines.Allocators.make "ralloc" ~size:(64 * mb) in
    ignore (Workloads.Threadtest.run alloc ~threads:1 tp_param);
    let words = Obs.Tsdb.words_for () in
    let region = Pmem.create ~size_bytes:(words * 8) () in
    let db = Obs.Tsdb.format (Pmem.flight_backend region ~first_word:0 ~words) in
    let sampler = Obs.Tsdb.Sampler.create db (Ralloc.tsdb_global_sources ()) in
    let batch n =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        ignore (Obs.Tsdb.Sampler.tick sampler)
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6
    in
    ignore (batch 100) (* warm the code paths *);
    let best = ref infinity in
    for _ = 1 to 5 do
      let b = batch 1000 in
      if b < !best then best := b
    done;
    Obs.Tsdb.set_enabled false;
    Obs.set_enabled false;
    !best
  in
  Printf.printf "tsdb tick cost best-of-5: %.1f us/tick\n" tick_us;
  check "tsdb tick costs under 100 us (<=1% of a core even at 100 Hz)"
    (tick_us < 100.);
  if !failed then begin
    prerr_endline
      "perf_smoke: tsdb sampler exceeded its throughput budget";
    exit 1
  end;
  print_endline
    "perf_smoke: tsdb sampler stays within 1% of unsampled throughput"
