(* pkvd end-to-end benchmark.

     pkvbench --pkvd PATH --workload NAME --seed N --seconds S --trace 0|1

   Runs in the current directory, which it fills with pkvd's heap image,
   socket and logs.  One run:

   1. set-up, three times: spawn pkvd on an empty heap with its default
      flags (only --heap/--socket set) and preload the workload's keys;
   2. the measured phase in one-second segments, closed loop (64
      requests in flight per connection) or open loop (seeded Poisson
      arrivals).  Each segment ends with one more window of requests
      sent and pkvd killed with SIGKILL while they are in flight, then
      killed twice more as soon as it answers, idle; the next segment
      runs on pkvd restarted on the dirty image;
   3. after the last crash every key is read back: acked writes must all
      be there;
   4. a graceful stop and a census of the clean image.

   Segments exist because one pkvd process can run faster or slower than
   the next for its whole life; the median over many processes is
   steadier than any one of them.  recovery_s is the fastest of the
   run's restarts, three per segment: on a shared host a restart's page
   faults and memory traffic slow by a third for seconds at a time, and
   the fastest of 36 restarts moves far less between runs than their
   median (read_only, five seeds: 4% against 20%).  With --trace 1 every
   other segment is traced, and an in-process replay (Replay) adds
   per-call layer costs.
   The last line of stdout is one JSON object with the results. *)

module C = Client

let heap = "heap"
let sock = "pkvd.sock"
let window = 64
let setups = 3
let rekills = 2

(* ------------------------------ pkvd process ---------------------------- *)

let pkvd = ref ""
let live : int option ref = ref None

let spawn log =
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process !pkvd [| !pkvd; "--heap"; heap; "--socket"; sock |] Unix.stdin fd fd
  in
  Unix.close fd;
  live := Some pid;
  pid

let reap pid sigl =
  (try Unix.kill pid sigl with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  live := None

let () = at_exit (fun () -> Option.iter (fun pid -> reap pid Sys.sigkill) !live)

(* Connect as soon as pkvd listens, trying every 0.5 ms. *)
let await pid =
  let deadline = C.now_ns () + 120_000_000_000 in
  let rec go () =
    match C.connect sock with
    | Some c -> c
    | None ->
      (match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := None;
        failwith "pkvd exited before it served");
      if C.now_ns () > deadline then failwith "pkvd did not start";
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let proc_file pid name =
  let ic = open_in (Printf.sprintf "/proc/%d/%s" pid name) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of a child, in seconds (clock ticks of 1/100 s) *)
let proc_cpu pid =
  let s = proc_file pid "stat" in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let vm_hwm_kb pid =
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (proc_file pid "status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

let client_cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

let log_line ~prefix path =
  List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' (read_file path))

(* ------------------------------- STATS ---------------------------------- *)

type snap = (string, float) Hashtbl.t

let snap c : snap =
  let h = Hashtbl.create 512 in
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        match String.rindex_opt l ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
          | Some v -> Hashtbl.replace h (String.sub l 0 i) v
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' (C.stats c));
  h

let get (s : snap) k = Option.value ~default:0. (Hashtbl.find_opt s k)
let delta s0 s1 k = get s1 k -. get s0 k

let delta_prefix s0 s1 prefix =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix k then acc +. v -. get s0 k else acc)
    s1 0.

let q50 name = name ^ "{quantile=\"0.5\"}"
let q99 name = name ^ "{quantile=\"0.99\"}"
let ratio a b = if b = 0. then 0. else a /. b

(* --------------------------------- run ---------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let seconds_of ns = float_of_int ns *. 1e-9

(* Each whole second of a phase, as the sorted latencies of the replies
   that arrived in it.  Throughput and latency are medians over these
   windows, so a stall from outside load that hits a few of them moves
   the result less than it moves a whole-phase figure.  At the lowest
   rate (open_loop, 10k ops/s) a window has 100 replies beyond its p99.
   Shorter windows were tried: 200 ms ones made open_loop's p99 spread
   wider, not narrower. *)
let window_ns = 1_000_000_000

let windows (p : C.phase) =
  let n = max 1 ((p.t_last - p.t_first) / window_ns) in
  let b = Array.init n (fun _ -> C.Ivec.create ()) in
  for i = 0 to p.replies.n - 1 do
    let j = (p.replies.a.(i) - p.t_first) / window_ns in
    if j < n then C.Ivec.push b.(j) p.lat.a.(i)
  done;
  List.map C.Ivec.sorted (Array.to_list b)

let per_window f phases = List.concat_map (fun p -> List.map f (windows p)) phases

(* acked ops per second in a window; failures carry latency max_int *)
let window_rate w =
  float_of_int (Array.fold_left (fun n l -> if l = max_int then n else n + 1) 0 w) *. 1e9
  /. float_of_int window_ns

let rate phases = median (per_window window_rate phases)
let window_us q w = float_of_int (C.quantile w q) /. 1000.
let latency_us phases q = median (per_window (window_us q) phases)

let remove_heap () =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ heap ^ ".meta"; heap ^ ".desc"; heap ^ ".sb"; sock ]

type server = { pid : int; conns : C.conn array }

(* One set-up: fresh pkvd, preloaded. *)
let setup (spec : Gen.spec) ~seed =
  remove_heap ();
  let lists = Gen.preload spec ~seed in
  let t0 = C.now_ns () in
  let pid = spawn "pkvd.log" in
  let c = await pid in
  let conns = [| c; Option.get (C.connect sock) |] in
  let s0 = snap c in
  let model = Gen.model spec in
  let ph = C.phase () in
  C.drive ph conns ~feed:(C.closed ph model conns ~window ~next:(C.of_lists lists) ~stop_at:max_int);
  ({ pid; conns }, model, ph, s0, seconds_of (C.now_ns () - t0))

let recovery_of log =
  match log_line ~prefix:"pkvd: dirty image recovered" log with
  | Some l -> Scanf.sscanf l "pkvd: dirty image recovered (%d blocks, %fs)" (fun b s -> (b, s))
  | None -> failwith ("no recovery report in " ^ log)

(* one measured segment on one pkvd process *)
type segment = {
  ph : C.phase;
  traced : bool;
  s_begin : snap;
  s_end : snap;
  cpu : float;  (** pkvd CPU seconds *)
  ccpu : float;  (** generator CPU seconds *)
  hwm_kb : int;
}

(* STATS counter delta summed over a window's snapshot pairs *)
let wdelta win k = List.fold_left (fun a (s0, s1) -> a +. delta s0 s1 k) 0. win

let wdelta_prefix win prefix =
  List.fold_left (fun a (s0, s1) -> a +. delta_prefix s0 s1 prefix) 0. win

let run (spec : Gen.spec) ~seed ~seconds ~trace =
  (* 1. set-up *)
  let rec setup_n i times =
    let ((srv, _, _, _, dt) as s) = setup spec ~seed in
    if i = setups then (s, List.rev (dt :: times))
    else begin
      Array.iter C.close srv.conns;
      reap srv.pid Sys.sigkill;
      setup_n (i + 1) (dt :: times)
    end
  in
  let (srv, model, pre, s0, _), setup_times = setup_n 1 [] in
  let flags = Option.value ~default:"?" (log_line ~prefix:"pkvd: serving" "pkvd.log") in
  let streams = Array.init Gen.conns (fun conn -> Gen.stream spec ~seed ~conn) in
  let gaps = Gen.arrivals spec ~seed in
  let next i = Some (streams.(i) ()) in
  (* keys whose last write was in flight at a kill: the value before the
     first such write or after any of them may have survived *)
  let maybe = Hashtbl.create 256 in
  let live_keys = ref 0 and torn = ref 0 in
  (* A read-back reply must match the model, except for a key in [maybe]:
     its last write was never acked, so it is held to no durability
     promise and the model takes whatever value pkvd kept.  A value that
     is neither the one before the in-flight writes nor one of theirs is
     reported, not failed. *)
  let read_back ph =
    ph.C.accept <-
      (fun q r ->
        match C.observed r with
        | None -> false
        | Some v -> (
          if v <> Gen.absent then incr live_keys;
          let s = Gen.slot q.op in
          match Hashtbl.find_opt maybe s with
          | Some allowed ->
            if not (List.mem v allowed) then begin
              incr torn;
              Printf.printf "in-doubt %s read back as %d, neither before nor after its unacked writes (%s)\n"
                (Gen.op_name q.op) v
                (String.concat ", " (List.map string_of_int allowed))
            end;
            Gen.write model s v;
            Hashtbl.remove maybe s;
            true
          | None -> C.matches q.expect r))
  in
  let get_op s = if s >= 0 then Gen.Get s else Gen.Sget (-s - 1) in
  let by_conn ops = Array.init Gen.conns (fun c -> List.filter (fun op -> Gen.owner op = c) ops) in
  let crash srv =
    let burst = C.phase () in
    ignore (C.closed burst model srv.conns ~window ~next ~stop_at:max_int (C.now_ns ()));
    C.send burst srv.conns;
    let t_kill = C.now_ns () in
    reap srv.pid Sys.sigkill;
    Array.iter
      (fun (c : C.conn) ->
        Queue.iter
          (fun (q : C.req) ->
            if Gen.is_write q.op then begin
              let s = Gen.slot q.op in
              let seen = Option.value ~default:[ q.prev ] (Hashtbl.find_opt maybe s) in
              Hashtbl.replace maybe s (Gen.post q.op :: seen)
            end)
          c.pending;
        C.close c)
      srv.conns;
    t_kill
  in
  (* Restart on the dirty image; recovery lasts from the kill until pkvd
     answers a GET of a key with no write in doubt. *)
  let crashes = ref 0 and checks = ref [] in
  let restart ~t_kill =
    incr crashes;
    let pid = spawn (Printf.sprintf "pkvd-r%d.log" !crashes) in
    let c = await pid in
    let probe =
      let rec free k = if Hashtbl.mem maybe k then free (k + 1) else Gen.Get k in
      free 0
    in
    let ph = C.phase () in
    C.drive ph [| c |]
      ~feed:(C.closed ph model [| c |] ~window:1 ~next:(C.of_lists [| [ probe ] |]) ~stop_at:max_int);
    let dt = seconds_of (C.now_ns () - t_kill) in
    checks := ph :: !checks;
    ({ pid; conns = [| c; Option.get (C.connect sock) |] }, dt)
  in
  let settle srv ops =
    let ph = C.phase () in
    read_back ph;
    C.drive ph srv.conns ~feed:(C.closed ph model srv.conns ~window ~next:(C.of_lists (by_conn ops)) ~stop_at:max_int);
    checks := ph :: !checks;
    ph
  in
  (* kill -9 pkvd [n] more times as soon as it answers, with nothing in
     flight, for more recovery samples per run *)
  let rec rekill n srv recs =
    if n = 0 then (srv, recs)
    else begin
      let t_kill = C.now_ns () in
      reap srv.pid Sys.sigkill;
      Array.iter C.close srv.conns;
      let srv, dt = restart ~t_kill in
      rekill (n - 1) srv (dt :: recs)
    end
  in
  (* 2. measured segments, each ended by kill -9 and a restart *)
  let segments = max 2 seconds in
  let rec measure i srv segs recs =
    let s_begin = snap srv.conns.(0) and cpu0 = proc_cpu srv.pid and ccpu0 = client_cpu () in
    let traced = trace && i mod 2 = 1 in
    let ph = C.phase ~trace:traced () in
    let stop_at = ph.t_first + 1_000_000_000 in
    C.drive ph srv.conns
      ~feed:
        (if spec.rate > 0. then C.open_loop ph model srv.conns ~gaps ~streams ~stop_at
         else C.closed ph model srv.conns ~window ~next ~stop_at);
    let seg =
      {
        ph;
        traced;
        s_begin;
        s_end = snap srv.conns.(0);
        cpu = proc_cpu srv.pid -. cpu0;
        ccpu = client_cpu () -. ccpu0;
        hwm_kb = vm_hwm_kb srv.pid;
      }
    in
    let srv, dt = restart ~t_kill:(crash srv) in
    let srv, recs = rekill rekills srv (dt :: recs) in
    if i + 1 < segments then begin
      ignore (settle srv (List.map get_op (List.of_seq (Hashtbl.to_seq_keys maybe))));
      measure (i + 1) srv (seg :: segs) recs
    end
    else (srv, List.rev (seg :: segs), recs)
  in
  let srv, segs, recs = measure 0 srv [] [] in
  (* 3. read back every key after the last crash *)
  let sa = snap srv.conns.(0) in
  live_keys := 0;
  let back =
    settle srv
      (List.init spec.int_keys (fun k -> Gen.Get k) @ List.init spec.str_keys (fun i -> Gen.Sget i))
  in
  let sb = snap srv.conns.(0) in
  let live = !live_keys in
  Array.iter C.close srv.conns;
  (* 4. graceful stop, census *)
  reap srv.pid Sys.sigterm;
  let census = Ralloc.census (fst (Ralloc.open_image ~path:heap)) in
  let reports = List.init !crashes (fun i -> recovery_of (Printf.sprintf "pkvd-r%d.log" (i + 1))) in
  (* ------------------------------ results ------------------------------ *)
  let phases = List.map (fun g -> g.ph) segs in
  let all = (pre :: phases) @ !checks in
  let sum f = List.fold_left (fun a (p : C.phase) -> a + f p) 0 all in
  let attempted = sum (fun p -> p.attempted) and failed = sum (fun p -> p.failed) in
  let wrong = sum (fun p -> p.wrong) in
  let correct = wrong = 0 && failed = 0 in
  let fsum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let acked = fsum (fun (p : C.phase) -> float_of_int p.acked) phases in
  let lag = C.Ivec.sorted (C.Ivec.concat (List.map (fun (p : C.phase) -> p.lag) phases)) in
  let measured = List.map (fun g -> (g.s_begin, g.s_end)) segs in
  let preload = [ (s0, (List.hd segs).s_begin) ] in
  (* the write window: the measured phase, or the preload where the
     measured phase writes nothing (read_only) *)
  let wwin, wops = if wdelta measured "server_writes" > 0. then (measured, acked) else (preload, float_of_int pre.acked) in
  let per_op name = ratio (wdelta wwin name) wops in
  let client_cpu_us = fsum (fun g -> g.ccpu) segs *. 1e6 /. acked in
  let gen_lag_us = float_of_int (C.quantile lag 0.99) /. 1000. in
  (* not end-to-end: on a shared host its run-to-run spread follows the
     host's CPU steal, from 4% to over 100%, wider than any bound *)
  let p99_us = latency_us phases 0.99 in
  let e2e =
    [
      ("ops_per_s", "ops/s", rate phases);
      ("p50_us", "us", latency_us phases 0.5);
      ("fences_per_op", "fences/op", per_op "pmem_fences");
      ("flushes_per_op", "flushes/op", per_op "pmem_flushes");
      ("recovery_s", "s", List.fold_left Float.min Float.infinity recs);
      ("setup_s", "s", median setup_times);
      ("heap_bytes_per_key", "B/key", ratio (float_of_int census.allocated_bytes) (float_of_int live));
      ("server_rss_mb", "MB", float_of_int (List.fold_left (fun a g -> max a g.hwm_kb) 0 segs) /. 1024.);
    ]
  in
  Printf.printf "pkvbench %s seed %d: %d one-second segments, %s\n" spec.name seed segments
    (if spec.rate > 0. then Printf.sprintf "open loop, %.0f ops/s Poisson" spec.rate
     else Printf.sprintf "closed loop, %d conns x %d in flight" Gen.conns window);
  Printf.printf "guard: %s\n" flags;
  Printf.printf "guard: client.cpu_us_per_op %.3f, client.gen_lag_us_p99 %.1f, client.p99_us %.1f, %d latency samples\n"
    client_cpu_us gen_lag_us p99_us
    (List.fold_left (fun a (p : C.phase) -> a + p.lat.n) 0 phases);
  let by_window f = String.concat " " (List.map (Printf.sprintf "%.0f") (per_window f phases)) in
  Printf.printf "guard: ops/s by second: %s\n" (by_window window_rate);
  Printf.printf "guard: p99_us by second: %s\n" (by_window (window_us 0.99));
  Printf.printf
    "failed_frac %.6f (%d of %d attempted, %d wrong replies); %d kill -9s, %d unacked writes torn; read back %d keys, %d live\n"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted wrong !crashes !torn back.attempted live;
  Printf.printf "setup_s runs: %s; recovery_s runs: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev recs)));
  List.iter (fun (n, u, v) -> Printf.printf "  %-20s %14.4f %s\n" n v u) e2e;
  let metrics =
    if not trace then e2e
    else begin
      let r = Replay.run spec ~seed ~heap:"replay" in
      let ops = wdelta measured "server_span_read_ops" +. wdelta measured "server_span_write_ops" in
      let wspan name = ratio (wdelta wwin ("server_span_write_sum_" ^ name)) (wdelta wwin "server_span_write_ops") in
      let span_sum name =
        ratio (wdelta measured ("server_span_read_sum_" ^ name) +. wdelta measured ("server_span_write_sum_" ^ name)) ops
      in
      let mean win name = ratio (wdelta win (name ^ "_sum")) (wdelta win (name ^ "_count")) in
      let writes = wdelta wwin "server_writes" and wall_ops = wdelta wwin "server_ops" in
      let hits = wdelta wwin "ralloc_tcache_hit" and misses = wdelta wwin "ralloc_tcache_miss" in
      let rwin = if wdelta measured "span_store_iget_ns_count" > 0. then measured else [ (sa, sb) ] in
      let last = (List.nth segs (segments - 1)).s_end in
      let wlast = snd (List.nth wwin (List.length wwin - 1)) in
      let traced, untraced = List.partition (fun g -> g.traced) segs in
      let traced = List.map (fun g -> g.ph) traced and untraced = List.map (fun g -> g.ph) untraced in
      let l =
        [
          ("proto.decode_ns_per_op", "ns", span_sum "decode_ns", "STATS decode stage");
          ("proto.minor_words_per_op", "words/op", r.decode_words, "replay");
          ("conn.accept_ns_per_op", "ns", span_sum "accept_ns", "STATS accept stage");
          ("conn.ready_batch_mean", "frames", mean measured "server_ready_batch", "STATS");
          ("conn.ack_ns_per_op", "ns", span_sum "ack_ns", "STATS ack stage");
          ("conn.loop_wake_ns_p50", "ns", get last (q50 "server_loop_wake_ns"), "STATS, last segment");
          ("squeue.queue_ns_per_op", "ns", span_sum "queue_ns", "STATS queue stage");
          ("squeue.busy_per_kop", "count/kop", 1000. *. ratio (wdelta measured "server_busy") ops, "STATS");
          ("core.batch_size_mean", "writes", mean wwin "server_batch_size", "STATS, write window");
          ("core.commits_per_kwrite", "count/kwrite", 1000. *. ratio (wdelta wwin "server_commits") writes, "STATS, write window");
          ("core.park_ns_per_write", "ns", wspan "park_ns", "STATS park stage, write window");
          ("core.fence_ns_per_write", "ns", ratio (wdelta wwin "span_server_commit_ns_sum") writes, "STATS commit span, write window");
          ("store.iget_ns_mean", "ns", mean rwin "span_store_iget_ns", "STATS span, read window");
          ("store.iset_ns_mean", "ns", mean wwin "span_store_iset_ns", "STATS span, write window");
          ("store.service_self_ns_per_write", "ns", wspan "service_ns", "STATS service stage, write window");
        ]
        @ List.mapi
            (fun k name -> ("store.replay_" ^ name ^ "_ns", "ns", r.kind_ns.(k), "replay"))
            (Array.to_list Replay.kinds)
        @ [
            ("store.minor_words_per_op", "words/op", r.store_words, "replay");
            ("ralloc.alloc_ns_per_write", "ns", wspan "alloc_ns", "STATS alloc stage, write window");
            ("ralloc.malloc_ns_p50", "ns", get wlast (q50 "ralloc_malloc_ns"), "STATS, end of write window");
            ("ralloc.malloc_ns_p99", "ns", get wlast (q99 "ralloc_malloc_ns"), "STATS, end of write window");
            ("ralloc.tcache_hit_rate", "ratio", ratio hits (hits +. misses), "STATS, write window");
            ("ralloc.slow_path_per_kop", "count/kop", 1000. *. ratio (wdelta wwin "ralloc_slow_path") wall_ops, "STATS, write window");
            ("ralloc.mallocs_per_write", "count/write", ratio (wdelta_prefix wwin "ralloc_alloc_") writes, "STATS, write window");
            ("ralloc.sb_provisioned", "count", get (List.hd segs).s_begin "ralloc_superblock_provisioned", "STATS after set-up");
            ("ralloc.recover_s", "s", median (List.map snd reports), "pkvd recovery report");
            ("ralloc.recover_blocks", "blocks", median (List.map (fun (b, _) -> float_of_int b) reports), "pkvd recovery report");
            ("ebr.retired_per_write", "count/write", ratio (wdelta wwin "ebr_retired") writes, "STATS, write window");
            ("ebr.reclaimed_per_write", "count/write", ratio (wdelta wwin "ebr_reclaimed") writes, "STATS, write window");
            ("pmem.flush_ns_per_write", "ns", wspan "flush_ns", "STATS flush stage, write window");
            ("pmem.fence_ns_per_write", "ns", ratio (wdelta wwin "pmem_drain_ns_sum") writes, "STATS drain histogram, write window");
            ("pmem.pwrite_per_op", "count/op", ratio (wdelta wwin "pmem_pwrite_batches") wall_ops, "STATS, write window");
            ("pmem.cas_per_op", "count/op", ratio (wdelta wwin "pmem_cas_ops") wall_ops, "STATS, write window");
            ("pmem.fences_elided_per_write", "count/write", ratio (wdelta wwin "pmem_fences_elided") writes, "STATS, write window");
            ("pmem.flush_dedup_frac", "ratio", ratio (wdelta wwin "pmem_flush_dedup") (wdelta wwin "pmem_flushes"), "STATS, write window");
            ("pmem.write_amp", "ratio", ratio (wdelta wwin "pmem_physical_bytes") (wdelta wwin "pmem_logical_bytes"), "STATS, write window");
            ("obs.flight_events_per_op", "count/op", r.flight_events, "replay");
            ("obs.trace_overhead_frac", "ratio", 1. -. ratio (rate traced) (rate untraced), "untraced vs traced segments");
            ("server.cpu_us_per_op", "us", fsum (fun g -> g.cpu) segs *. 1e6 /. acked, "/proc/<pid>/stat");
            ("client.cpu_us_per_op", "us", client_cpu_us, "generator");
            ("client.gen_lag_us_p99", "us", gen_lag_us, "generator");
            ("client.p99_us", "us", p99_us, "generator, median of per-second p99");
          ]
      in
      Printf.printf "per-layer (%s):\n" spec.name;
      List.iter (fun (n, u, v, src) -> Printf.printf "  %-34s %14.4f %-12s %s\n" n v u src) l;
      Trace_out.write
        (Printf.sprintf "trace-%s-%d.json" spec.name seed)
        ~client:(List.concat_map (fun (p : C.phase) -> p.spans) traced)
        ~replay:r.spans;
      List.map (fun (n, u, v, _) -> (n, u, v)) l
    end
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed
    (String.concat ", "
       (List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u) metrics));
  correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--pkvd", Arg.Set_string pkvd, "PATH pkvd binary");
      ("--workload", Arg.Set_string workload, "NAME churn | read_only | open_loop");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase, in one-second segments");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> raise (Arg.Bad a))
    "pkvbench --pkvd PATH --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun (s : Gen.spec) -> s.name = !workload) Gen.workloads with
    | Some s -> s
    | None -> failwith ("unknown workload " ^ !workload)
  in
  if not (run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)) then exit 1
