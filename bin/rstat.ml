(* rstat: offline crash-forensics inspector for Ralloc heap images.

     rstat <path>                 summary + census + flight-recorder tail
     rstat --census <path>        occupancy and fragmentation census
     rstat --audit <path>         recoverability audit; exit code is the verdict
     rstat --flight N <path>      last N flight-recorder events
     rstat --prom <path>          Prometheus text exposition of the census
     rstat --chrome FILE <path>   Chrome trace JSON of recovery phases
     rstat --prof <path>          allocation-site provenance of surviving blocks
     rstat --timeline <path>      pre-crash metrics timeline from the black box
     rstat --pcheck-summary <path> trial recovery under the persistency checker

   Unlike [rheap], rstat never opens the heap for writing: the image files
   are read into memory ([Ralloc.open_image]) and nothing is written back,
   so a post-crash image can be inspected — including a trial recovery —
   without disturbing the evidence.

   Audit verdicts (exit codes):
     0  CLEAN    — the recoverability criterion holds (all and only the
                   reachable blocks allocated); for a dirty image, after a
                   trial in-memory recovery
     1  SUSPECT  — recoverable, but the diff is non-empty after recovery
                   (leaked or orphaned blocks)
     2  CORRUPT  — structural violation in a persisted field; recovery
                   cannot be trusted *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("rstat: " ^ s); exit 2) fmt

let open_image path =
  match Ralloc.open_image ~path with
  | t -> t
  | exception Failure msg -> fail "%s" msg

let status_name = function
  | Ralloc.Fresh -> "fresh"
  | Ralloc.Clean_restart -> "clean"
  | Ralloc.Dirty_restart -> "DIRTY (crashed or still open)"

let print_summary path heap status =
  Printf.printf "image:     %s.{meta,desc,sb}\n" path;
  Printf.printf "status:    %s\n" (status_name status);
  Printf.printf "capacity:  %d bytes (%d superblocks)\n"
    (Ralloc.capacity_bytes heap)
    (Ralloc.capacity_bytes heap / 65536);
  Printf.printf "heap id:   %d\n" (Ralloc.heap_id heap);
  let f = (Ralloc.blackbox heap).flight in
  Printf.printf "flight:    %d events recorded (ring capacity %d, %d torn)\n"
    (Obs.Flight.total_recorded f)
    (Obs.Flight.capacity f) (Obs.Flight.torn_slots f)

let print_census heap =
  Format.printf "%a@." Ralloc.Census.pp (Ralloc.census heap)

let print_flight heap limit =
  Format.printf "%a@." (Obs.Flight.pp_tail ~limit) (Ralloc.blackbox heap).flight

(* Prometheus text exposition: census + audit-free facts only, so it is
   cheap and side-effect free.  Offsets/ids are labels, not values. *)
let print_prom heap status =
  let c = Ralloc.census heap in
  let gauge name ?(labels = "") value =
    Printf.printf "# TYPE %s gauge\n%s%s %s\n" name name labels value
  in
  let gi name v = gauge name (string_of_int v) in
  let gf name v = gauge name (Printf.sprintf "%.6f" v) in
  gi "ralloc_heap_dirty" (if status = Ralloc.Dirty_restart then 1 else 0);
  gi "ralloc_capacity_bytes" c.Ralloc.Census.capacity_bytes;
  gi "ralloc_provisioned_bytes" c.provisioned_bytes;
  gi "ralloc_provisioned_superblocks" c.provisioned_superblocks;
  gi "ralloc_empty_superblocks" c.empty_superblocks;
  gi "ralloc_large_superblocks" c.large_superblocks;
  gi "ralloc_allocated_blocks" c.allocated_blocks;
  gi "ralloc_free_blocks" c.free_blocks;
  gi "ralloc_allocated_bytes" c.allocated_bytes;
  gi "ralloc_free_bytes" c.free_bytes;
  gi "ralloc_slack_bytes" c.slack_bytes;
  gf "ralloc_occupancy" c.occupancy;
  gf "ralloc_internal_fragmentation" c.internal_frag;
  gf "ralloc_external_fragmentation" c.external_frag;
  print_string "# TYPE ralloc_class_allocated_blocks gauge\n";
  List.iter
    (fun (cs : Ralloc.Census.class_stats) ->
      Printf.printf
        "ralloc_class_allocated_blocks{class=\"%d\",block_size=\"%d\"} %d\n"
        cs.size_class cs.block_size cs.allocated_blocks)
    c.classes;
  print_string "# TYPE ralloc_flight_events_total counter\n";
  for k = 1 to 15 do
    let n = Obs.Flight.kind_count (Ralloc.blackbox heap).flight k in
    if n > 0 then
      Printf.printf "ralloc_flight_events_total{kind=\"%s\"} %d\n"
        (Obs.Flight.Kind.name k) n
  done

(* Chrome trace export: reconstruct recovery-phase spans from the flight
   tail.  recovery_begin .. recovery_trace is the tracing GC,
   recovery_trace .. recovery_done the metadata rebuild.  Timestamps are
   microseconds relative to the oldest event in the tail, which is what
   chrome://tracing and Perfetto expect. *)
let write_chrome heap file =
  let f = (Ralloc.blackbox heap).flight in
  let events = Obs.Flight.tail f in
  let t0 =
    match events with [] -> 0 | e :: _ -> e.Obs.Flight.ts_ns
  in
  let us ts = float_of_int (ts - t0) /. 1000. in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf s)
      fmt
  in
  Buffer.add_string buf "[\n";
  let span name ts dur args =
    emit
      "{\"name\":\"%s\",\"cat\":\"recovery\",\"ph\":\"X\",\"ts\":%.3f,\
       \"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{%s}}"
      name (us ts) (float_of_int dur /. 1000.) args
  in
  let instant e name args =
    emit
      "{\"name\":\"%s\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":%.3f,\
       \"s\":\"g\",\"pid\":1,\"tid\":1,\"args\":{%s}}"
      name (us e.Obs.Flight.ts_ns) args
  in
  let begin_ev = ref None and trace_ev = ref None in
  List.iter
    (fun (e : Obs.Flight.event) ->
      let k = e.kind in
      if k = Obs.Flight.Kind.recovery_begin then begin_ev := Some e
      else if k = Obs.Flight.Kind.recovery_trace then begin
        (match !begin_ev with
        | Some b ->
          span "recovery.trace" b.ts_ns (e.ts_ns - b.ts_ns)
            (Printf.sprintf "\"reachable_blocks\":%d" e.a)
        | None -> ());
        trace_ev := Some e
      end
      else if k = Obs.Flight.Kind.recovery_done then begin
        (match !trace_ev with
        | Some t ->
          span "recovery.rebuild" t.ts_ns (e.ts_ns - t.ts_ns)
            (Printf.sprintf "\"reclaimed\":%d,\"partial\":%d" e.a e.arg_b)
        | None -> ());
        (match !begin_ev with
        | Some b ->
          span "recovery" b.ts_ns (e.ts_ns - b.ts_ns)
            (Printf.sprintf "\"superblocks\":%d" b.a)
        | None -> ());
        begin_ev := None;
        trace_ev := None
      end
      else if k = Obs.Flight.Kind.heap_open then
        instant e "heap_open"
          (Printf.sprintf "\"status\":\"%s\""
             (match e.a with
             | 0 -> "fresh"
             | 1 -> "clean"
             | _ -> "dirty"))
      else if k = Obs.Flight.Kind.heap_close then instant e "heap_close" "")
    events;
  Buffer.add_string buf "\n]\n";
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "chrome trace (%d flight events) written to %s\n"
    (List.length events) file

(* Crash-surviving provenance: replay the persistent provenance ring
   (sampled allocations minus their sampled frees), resolve site ids
   against the image's persistent site-name table, and cross-reference
   each surviving sample against the same reachability trace recovery
   would run — "which site allocated the blocks that survived the
   crash", split into reachable (live) and unreachable (leaked). *)
let print_prof heap =
  let ring = (Ralloc.blackbox heap).prov in
  let live = Obs.Prof.Ring.live ring in
  Printf.printf
    "provenance ring: %d recorded (%d allocs, %d frees, %d torn), %d \
     sampled blocks still allocated\n"
    (Obs.Prof.Ring.total_recorded ring)
    (Obs.Prof.Ring.alloc_count ring)
    (Obs.Prof.Ring.free_count ring)
    (Obs.Prof.Ring.torn_slots ring)
    (List.length live);
  if live <> [] then begin
    let reach = Ralloc.reachable_offsets heap in
    (* site id -> (name option, samples, bytes, reachable_bytes) *)
    let per_site = Hashtbl.create 32 in
    let total = ref 0 and attributed = ref 0 in
    List.iter
      (fun (e : Obs.Prof.Ring.entry) ->
        let name = Ralloc.prov_site_name heap e.psite in
        let n, s, b, rb =
          match Hashtbl.find_opt per_site e.psite with
          | Some r -> r
          | None -> (name, 0, 0, 0)
        in
        let reachable = reach e.poff in
        Hashtbl.replace per_site e.psite
          (n, s + 1, b + e.psize, if reachable then rb + e.psize else rb);
        total := !total + e.psize;
        if name <> None then attributed := !attributed + e.psize)
      live;
    let rows =
      Hashtbl.fold (fun id r acc -> (id, r) :: acc) per_site []
      |> List.sort (fun (_, (_, _, a, _)) (_, (_, _, b, _)) -> compare b a)
    in
    Printf.printf "%-28s %8s %12s %12s %12s\n" "site" "samples"
      "sampled_bytes" "reachable" "leaked";
    List.iter
      (fun (id, (name, s, b, rb)) ->
        Printf.printf "%-28s %8d %12d %12d %12d\n"
          (match name with
          | Some n -> n
          | None -> Printf.sprintf "(site %d: name not persisted)" id)
          s b rb (b - rb))
      rows;
    (* machine-readable attribution line for the crash-suite check:
       the share of surviving sampled bytes whose site id resolves
       against the persistent name table *)
    Printf.printf "prof_sampled_live_bytes %d\n" !total;
    Printf.printf "prof_attribution_pct %.1f\n"
      (if !total = 0 then 100.0
       else 100.0 *. float_of_int !attributed /. float_of_int !total)
  end

(* The metrics timeline: reconstruct the black box's sample rings from
   the (possibly dirty) image and render the last minutes of every
   series — sparkline over the fine ring, latest/mean/max, a last-60 s
   anomaly summary (> k sigma deviations from the series' own history),
   and the flight-recorder events that fall inside the timeline window,
   so "what was the server doing just before the crash" is one command.
   Ends with machine-readable lines for the crash-suite gate. *)
let print_timeline heap =
  let db = (Ralloc.blackbox heap).tsdb in
  let n_series = Obs.Tsdb.series_count db in
  let fine = Obs.Tsdb.points db `Fine in
  let mid = Obs.Tsdb.points db `Mid in
  let coarse = Obs.Tsdb.points db `Coarse in
  Printf.printf
    "metrics timeline: %d samples total (%d fine, %d mid, %d coarse \
     reconstructed, %d torn), %d series\n"
    (Obs.Tsdb.total_samples db)
    (List.length fine) (List.length mid) (List.length coarse)
    (Obs.Tsdb.torn_slots db) n_series;
  let spark values =
    (* 8-level Unicode sparkline, scaled to this series' own range *)
    let lo = List.fold_left min max_int values
    and hi = List.fold_left max min_int values in
    let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                    "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                    "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    String.concat ""
      (List.map
         (fun v ->
           let i =
             if hi = lo then 0
             else (v - lo) * (Array.length levels - 1) / (hi - lo)
           in
           levels.(i))
         values)
  in
  let last_ts = ref 0 in
  for s = 0 to n_series - 1 do
    let name =
      match Obs.Tsdb.series_name db s with
      | Some n -> n
      | None -> Printf.sprintf "series_%d" s
    in
    let pts = Obs.Tsdb.series_points db `Fine s in
    let values =
      List.map (fun (_, v) -> int_of_float (Float.round v)) pts
    in
    (match List.rev pts with
    | (ts, _) :: _ -> last_ts := max !last_ts ts
    | [] -> ());
    let mean, _sigma = Obs.Tsdb.series_stats db `Fine s in
    let last = match List.rev values with v :: _ -> v | [] -> 0 in
    let vmax = List.fold_left max 0 values in
    (* keep the sparkline to the last 60 fine samples *)
    let tail_values =
      let n = List.length values in
      if n <= 60 then values
      else List.filteri (fun i _ -> i >= n - 60) values
    in
    Printf.printf "%-24s last=%-10d mean=%-10.1f max=%-10d %s\n" name last
      mean vmax
      (if tail_values = [] then "(no samples)" else spark tail_values)
  done;
  (* last-60 s anomaly summary over the fine ring *)
  let anomalies = Obs.Tsdb.anomalies ~k:3.0 ~window:60 db in
  if anomalies = [] then
    print_endline "anomalies (last 60 samples, >3 sigma): none"
  else begin
    print_endline "anomalies (last 60 samples, >3 sigma):";
    List.iter
      (fun (a : Obs.Tsdb.anomaly) ->
        Printf.printf
          "  %-24s last=%.1f vs mean=%.1f sigma=%.1f (%.1f sigma off)\n"
          a.an_name a.an_last a.an_mean a.an_sigma
          (if a.an_sigma > 0. then
             Float.abs (a.an_last -. a.an_mean) /. a.an_sigma
           else 0.))
      anomalies
  end;
  (* cross-reference: flight events inside the reconstructed window *)
  let f = (Ralloc.blackbox heap).flight in
  let window_start =
    match fine with
    | p :: _ -> p.Obs.Tsdb.p_ts_ns
    | [] -> max_int
  in
  let events =
    List.filter
      (fun (e : Obs.Flight.event) -> e.ts_ns >= window_start)
      (Obs.Flight.tail f)
  in
  let shown =
    let n = List.length events in
    if n <= 12 then events else List.filteri (fun i _ -> i >= n - 12) events
  in
  Printf.printf "flight events inside the timeline window: %d (last %d):\n"
    (List.length events) (List.length shown);
  List.iter
    (fun (e : Obs.Flight.event) ->
      Printf.printf "  %+8.1fs %-14s a=%d b=%d c=%d\n"
        (float_of_int (e.ts_ns - !last_ts) /. 1e9)
        (Obs.Flight.Kind.name e.kind)
        e.a e.arg_b e.c)
    shown;
  (* machine-readable gate lines *)
  Printf.printf "tsdb_samples_total %d\n" (Obs.Tsdb.total_samples db);
  Printf.printf "tsdb_fine_points %d\n" (List.length fine);
  Printf.printf "tsdb_torn %d\n" (Obs.Tsdb.torn_slots db);
  (* lifetime per-kind counter, not the tail: breach events are rare
     next to allocation events and wrap out of the ring in ms *)
  Printf.printf "tsdb_slo_breach_events %d\n"
    (Obs.Flight.kind_count f Obs.Flight.Kind.slo_breach);
  for s = 0 to n_series - 1 do
    let name =
      match Obs.Tsdb.series_name db s with
      | Some n -> n
      | None -> Printf.sprintf "series_%d" s
    in
    let values =
      List.map (fun (_, v) -> int_of_float (Float.round v))
        (Obs.Tsdb.series_points db `Fine s)
    in
    let last = match List.rev values with v :: _ -> v | [] -> 0 in
    Printf.printf "tsdb_series name=%s points=%d last=%d max=%d\n" name
      (List.length values) last
      (List.fold_left max 0 values)
  done

(* The audit verdict.  A dirty image is *expected* to have stale transient
   metadata — that is precisely what recovery rebuilds — so the verdict on
   one is rendered after a trial recovery run against the in-memory copy
   (the files are untouched).  A clean image must satisfy the criterion
   as-is. *)
let run_audit heap status max_list =
  let pre = Ralloc.audit ~max_list heap in
  Format.printf "--- audit (as found) ---@.%a@." Ralloc.Audit.pp pre;
  if not pre.Ralloc.Audit.recoverable then begin
    print_endline "verdict: CORRUPT - persisted metadata is structurally invalid";
    exit 2
  end;
  match status with
  | Ralloc.Dirty_restart ->
    print_endline "image is dirty: running trial recovery (in memory only)";
    let stats = Ralloc.recover heap in
    Printf.printf
      "trial recovery: %d reachable, %d superblocks reclaimed, %d partial\n"
      stats.Ralloc.reachable_blocks stats.reclaimed_superblocks
      stats.partial_superblocks;
    let post = Ralloc.audit ~max_list heap in
    Format.printf "--- audit (after trial recovery) ---@.%a@." Ralloc.Audit.pp
      post;
    if post.Ralloc.Audit.consistent then begin
      print_endline "verdict: CLEAN - recovery restores all and only the reachable blocks";
      exit 0
    end
    else begin
      print_endline "verdict: SUSPECT - inconsistent even after recovery";
      exit 1
    end
  | _ ->
    if pre.Ralloc.Audit.consistent then begin
      print_endline "verdict: CLEAN - all and only the reachable blocks are allocated";
      exit 0
    end
    else begin
      print_endline "verdict: SUSPECT - cleanly closed image violates the criterion";
      exit 1
    end

(* Replay a trial recovery with the persistency checker enabled.  The
   image is an offline snapshot: no pre-crash pending-flush state exists
   in this process, so the shadow starts clean and the findings are sound
   for the recovery path itself — every flush, fence, and waste event the
   rebuild issues, attributed per site, plus any read of data the checker
   watched become non-durable during the replay.  The files are never
   written (same in-memory discipline as --audit). *)
let run_pcheck_summary heap status =
  (match status with
  | Ralloc.Dirty_restart ->
    print_endline
      "image is dirty: replaying trial recovery under the persistency checker"
  | _ ->
    print_endline
      "image is clean: replaying recovery anyway to profile its flush/fence \
       behaviour");
  Pmem.Check.set_enabled true;
  Pmem.Check.reset ();
  let stats = Ralloc.recover heap in
  Pmem.Check.set_enabled false;
  Printf.printf
    "trial recovery: %d reachable, %d superblocks reclaimed, %d partial\n"
    stats.Ralloc.reachable_blocks stats.reclaimed_superblocks
    stats.partial_superblocks;
  Pmem.Check.report Format.std_formatter;
  let t = Pmem.Check.totals () in
  if t.Pmem.Check.t_violations > 0 then begin
    print_endline "verdict: VIOLATIONS - recovery read non-durable data";
    exit 1
  end

let run path census audit flight prom chrome max_list pcheck_summary prof
    timeline =
  let heap, status = open_image path in
  let explicit =
    census || audit || flight <> None || prom || chrome <> None
    || pcheck_summary || prof || timeline
  in
  if prom then print_prom heap status
  else begin
    if not explicit then begin
      print_summary path heap status;
      print_newline ();
      print_census heap;
      print_endline "--- flight tail ---";
      print_flight heap 16
    end;
    if census then print_census heap;
    (match flight with Some n -> print_flight heap n | None -> ());
    (match chrome with Some file -> write_chrome heap file | None -> ());
    if prof then print_prof heap;
    if timeline then print_timeline heap;
    if pcheck_summary then run_pcheck_summary heap status;
    if audit then run_audit heap status max_list
  end

open Cmdliner

let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH")

let census_flag =
  Arg.(value & flag & info [ "census" ] ~doc:"Print the occupancy/fragmentation census.")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Run the recoverability audit and exit with the verdict: 0 clean, 1 \
           suspect, 2 corrupt.  Dirty images get a trial in-memory recovery \
           first; the files are never written.")

let flight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight" ] ~docv:"N" ~doc:"Print the last $(docv) flight-recorder events.")

let prom_flag =
  Arg.(
    value & flag
    & info [ "prom" ] ~doc:"Emit the census as Prometheus text exposition and exit.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:"Write recovery-phase spans from the flight tail as Chrome trace JSON.")

let max_list_arg =
  Arg.(
    value & opt int 64
    & info [ "max-list" ] ~docv:"N"
        ~doc:"Cap on listed leaked/orphaned blocks (counts stay exact).")

let prof_flag =
  Arg.(
    value & flag
    & info [ "prof" ]
        ~doc:
          "Replay the persistent provenance ring: which allocation sites own \
           the sampled blocks still allocated in the image, with each \
           surviving sample cross-referenced against the recovery \
           reachability trace (reachable vs leaked bytes).  Requires the \
           image to have run with the heap profiler on (pkvd --prof-rate).")

let timeline_flag =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Reconstruct the metrics black box (the crash-surviving \
           time-series rings) from the image and render each series' last \
           minutes as a sparkline with a >3-sigma anomaly summary and the \
           flight-recorder events inside the window — the pre-crash \
           timeline.  The image files are never written.")

let pcheck_summary_flag =
  Arg.(
    value & flag
    & info [ "pcheck-summary" ]
        ~doc:
          "Replay a trial in-memory recovery with the persistency checker \
           ($(b,Pmem.Check)) enabled and print its per-site flush/fence \
           report.  Exits 1 if the recovery path read data the checker saw \
           become non-durable.  The image files are never written.")

let () =
  let info =
    Cmd.info "rstat"
      ~doc:"Offline crash-forensics inspector for Ralloc heap images"
  in
  let term =
    Term.(
      const run $ path_arg $ census_flag $ audit_flag $ flight_arg $ prom_flag
      $ chrome_arg $ max_list_arg $ pcheck_summary_flag $ prof_flag
      $ timeline_flag)
  in
  exit (Cmd.eval (Cmd.v info term))
