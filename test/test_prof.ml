(* Heap provenance profiler: sampler correctness and crash durability.

   Three layers under test (lib/obs Prof + the lib/ralloc hooks):
   - the byte-triggered countdown sampler and its scaled estimates — at
     rate 1 every allocation is sampled with its exact size, so the live
     estimate must equal ground truth; at coarser rates it must stay
     within sampling-noise tolerance of a census;
   - inertness when off: no samples, no provenance entries, and
     OBS_DISABLED=1 must override set_enabled;
   - the persistent provenance ring and site-name table, which inherit
     the flight recorder's entry protocol and therefore its crash
     contract: fenced entries survive any crash, torn tails are detected
     and skipped, and a sampled free durably cancels its sampled alloc. *)

module Prof = Obs.Prof

let with_prof ?(rate = 1) f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  Prof.reset ();
  Prof.set_rate rate;
  Prof.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Prof.set_enabled false;
      Prof.reset ();
      Prof.set_rate Prof.default_rate)
    f

let mb = 1024 * 1024

(* ---------------- sampler units ---------------- *)

(* At rate 1 every allocation is sampled and each sample's weight is its
   exact block size, so the live estimate is not an estimate at all. *)
let test_exact_at_rate_one () =
  with_prof ~rate:1 (fun () ->
      let heap = Ralloc.create ~size:(8 * mb) () in
      let site_a = Prof.site "test.exact.a"
      and site_b = Prof.site "test.exact.b" in
      let bsize req = Ralloc.Size_class.(block_size (of_size req)) in
      let vas_a =
        Prof.with_site site_a (fun () ->
            List.init 100 (fun _ -> Ralloc.malloc heap 64))
      in
      let vas_b =
        Prof.with_site site_b (fun () ->
            List.init 50 (fun _ -> Ralloc.malloc heap 128))
      in
      Alcotest.(check bool) "allocations succeeded" true
        (List.for_all (fun va -> va <> 0) (vas_a @ vas_b));
      let expect = (100 * bsize 64) + (50 * bsize 128) in
      Alcotest.(check int) "live estimate exact at rate 1" expect
        (Prof.live_bytes ());
      Alcotest.(check int) "live blocks exact at rate 1" 150
        (Prof.live_blocks ());
      let row site =
        List.find (fun r -> r.Prof.s_site = site) (Prof.stats ())
      in
      Alcotest.(check int) "site a bytes" (100 * bsize 64)
        (row site_a).Prof.s_live_bytes;
      Alcotest.(check int) "site b bytes" (50 * bsize 128)
        (row site_b).Prof.s_live_bytes;
      (* frees cancel the live tallies but never the cumulative ones *)
      List.iter (Ralloc.free heap) vas_a;
      List.iter (Ralloc.free heap) vas_b;
      Alcotest.(check int) "all frees observed" 0 (Prof.live_bytes ());
      Alcotest.(check int) "cumulative survives frees" expect
        ((row site_a).Prof.s_cum_bytes + (row site_b).Prof.s_cum_bytes);
      Ralloc.close heap)

(* The countdown triggers every ~rate allocated bytes, so over a run of
   total >> rate bytes the scaled estimate lands within sampling noise of
   the census ground truth. *)
let prop_estimate_tracks_census =
  QCheck2.Test.make
    ~name:"prof: scaled live estimate within tolerance of census" ~count:15
    QCheck2.Gen.(
      list_size (int_range 200 600) (int_range 16 1024))
    (fun reqs ->
      with_prof ~rate:4096 (fun () ->
          let heap = Ralloc.create ~size:(32 * mb) () in
          let site = Prof.site "test.estimate" in
          let truth = ref 0 in
          Prof.with_site site (fun () ->
              List.iter
                (fun req ->
                  let va = Ralloc.malloc heap req in
                  if va <> 0 then
                    truth :=
                      !truth + Ralloc.Size_class.(block_size (of_size req)))
                reqs);
          let est = Prof.live_bytes () in
          Ralloc.close heap;
          (* deterministic countdown: samples = ~truth/rate, each worth
             ~rate bytes, so the error is bounded by a few rate quanta
             plus one max-sized block *)
          let tol = max (!truth / 4) (4 * 4096) in
          abs (est - !truth) <= tol))

let test_disabled_inert () =
  Prof.reset ();
  let heap = Ralloc.create ~size:(8 * mb) () in
  let vas = List.init 200 (fun _ -> Ralloc.malloc heap 64) in
  List.iter (Ralloc.free heap) vas;
  Alcotest.(check int) "no samples while off" 0 (Prof.samples ());
  Alcotest.(check int) "no tallies while off" 0 (Prof.live_bytes ());
  Alcotest.(check int) "no provenance entries while off" 0
    (Prof.Ring.total_recorded (Ralloc.blackbox heap).Obs.Blackbox.prov);
  Ralloc.close heap

let test_obs_disabled_overrides () =
  Unix.putenv "OBS_DISABLED" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OBS_DISABLED" "0";
      Prof.set_enabled false)
    (fun () ->
      Prof.set_enabled true;
      Alcotest.(check bool) "OBS_DISABLED forces the profiler off" false
        (Prof.on ()))

(* ---------------- provenance ring: crash properties ---------------- *)

let with_ring ?(capacity = 16) f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  let words = Prof.Ring.words_for ~capacity in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  let t = Prof.Ring.format b ~capacity in
  Pmem.flush_prefix r ~words:(Pmem.size_words r);
  Pmem.fence r;
  f r b t

let reattach b =
  match Prof.Ring.attach b with
  | Some t -> t
  | None -> Alcotest.fail "attach refused a valid provenance ring"

(* Every recorded sample is durable when record_alloc returns, whatever
   the eviction weather: after any crash the newest min(n, capacity)
   entries are all present with exact payloads. *)
let prop_fenced_entries_survive =
  QCheck2.Test.make ~name:"prov: fenced entries survive any crash" ~count:40
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40)
           (triple (int_bound 100) (int_range 1 10_000) (int_bound 1_000_000)))
        (float_range 0. 0.5))
    (fun (samples, evict_rate) ->
      let capacity = 16 in
      with_ring ~capacity (fun r b t ->
          Pmem.set_eviction_rate r evict_rate;
          List.iter
            (fun (site, size, off) -> Prof.Ring.record_alloc t ~site ~size ~off)
            samples;
          Pmem.crash r;
          let t' = reattach b in
          let n = List.length samples in
          let expect =
            List.filteri (fun i _ -> i >= n - min n capacity) samples
          in
          let got = Prof.Ring.entries t' in
          Prof.Ring.total_recorded t' = n
          && Prof.Ring.alloc_count t' = n
          && List.length got = List.length expect
          && List.for_all2
               (fun (site, size, off) (e : Prof.Ring.entry) ->
                 e.is_alloc && e.psite = site && e.psize = size && e.poff = off)
               expect got))

(* A torn tail entry — written without its checksum holding — is skipped
   and never misparsed as a sample. *)
let prop_torn_tail_detected =
  QCheck2.Test.make ~name:"prov: torn tail entry detected, never misparsed"
    ~count:60
    QCheck2.Gen.(
      pair (int_range 1 20)
        (list_size (int_range 1 6)
           (pair
              (int_bound (Obs.Ring.checksum_word ~lines:1))
              (int_bound 1_000_000))))
    (fun (n_good, torn_words) ->
      let capacity = 32 in
      with_ring ~capacity (fun r b t ->
          for i = 1 to n_good do
            Prof.Ring.record_alloc t ~site:i ~size:64 ~off:(i * 64)
          done;
          (* partial composition of entry n_good+1: some words land, the
             checksum word stays zero *)
          let w = Obs.Flight.slot_word (n_good mod capacity) in
          let ck = Obs.Ring.checksum_word ~lines:1 in
          b.Obs.Flight.store w (n_good + 1);
          List.iter
            (fun (off, v) ->
              if off >= 1 && off < ck then b.Obs.Flight.store (w + off) v)
            torn_words;
          b.Obs.Flight.store (w + ck) 0;
          b.Obs.Flight.flush w;
          b.Obs.Flight.fence ();
          Pmem.crash r;
          let t' = reattach b in
          let got = Prof.Ring.entries t' in
          List.length got = n_good
          && (not (List.exists (fun (e : Prof.Ring.entry) -> e.pseq = n_good + 1) got))
          && Prof.Ring.torn_slots t' = 1
          && Prof.Ring.total_recorded t' = n_good))

(* Replaying the surviving window must cancel each sampled alloc against
   a later sampled free of the same offset: [live] is exactly the
   uncancelled allocs, oldest first. *)
let prop_free_cancels_alloc =
  QCheck2.Test.make ~name:"prov: sampled free cancels sampled alloc" ~count:50
    QCheck2.Gen.(list_size (int_range 1 12) bool)
    (fun freed ->
      let capacity = 64 in
      with_ring ~capacity (fun r b t ->
          let n = List.length freed in
          for i = 1 to n do
            Prof.Ring.record_alloc t ~site:i ~size:(i * 8) ~off:(i * 64)
          done;
          List.iteri
            (fun i f ->
              if f then
                Prof.Ring.record_free t ~site:(i + 1) ~size:((i + 1) * 8)
                  ~off:((i + 1) * 64))
            freed;
          Pmem.crash r;
          let t' = reattach b in
          let expect =
            List.filteri (fun i _ -> not (List.nth freed i)) freed
            |> List.length
          in
          let live = Prof.Ring.live t' in
          List.length live = expect
          && List.for_all
               (fun (e : Prof.Ring.entry) ->
                 e.is_alloc && not (List.nth freed ((e.poff / 64) - 1)))
               live))

(* ---------------- site-name table ---------------- *)

let with_ptab ?(capacity = 8) f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  let words = Prof.Ptab.words_for ~capacity in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  let t = Prof.Ptab.format b ~capacity in
  Pmem.flush_prefix r ~words:(Pmem.size_words r);
  Pmem.fence r;
  f r b t

let test_ptab_roundtrip () =
  with_ptab (fun r b t ->
      Prof.Ptab.persist t 0 "store.iset";
      Prof.Ptab.persist t 3 "a.site.with.a.rather.long.dotted.name.indeed.yes";
      Prof.Ptab.persist t 7 (String.make 80 'x') (* truncated to max_name *);
      Prof.Ptab.persist t 9 "out.of.range" (* silently skipped *);
      Pmem.crash r;
      match Prof.Ptab.attach b with
      | None -> Alcotest.fail "attach refused a valid site table"
      | Some t' ->
        Alcotest.(check (option string)) "name survives crash"
          (Some "store.iset") (Prof.Ptab.name t' 0);
        Alcotest.(check (option string)) "long name survives"
          (Some "a.site.with.a.rather.long.dotted.name.indeed.yes")
          (Prof.Ptab.name t' 3);
        Alcotest.(check (option string)) "overlong name truncated"
          (Some (String.make Prof.Ptab.max_name 'x'))
          (Prof.Ptab.name t' 7);
        Alcotest.(check (option string)) "unwritten slot empty" None
          (Prof.Ptab.name t' 1);
        Alcotest.(check int) "count" 3 (Prof.Ptab.count t'))

let test_ptab_torn_write_reads_empty () =
  with_ptab (fun r b t ->
      (* payload words land but the length word (written last) does not:
         the slot must read as empty, not as a garbage name *)
      let w0 = Prof.Ptab.slot_word 2 in
      b.Obs.Flight.store (w0 + 1) 0x41414141;
      b.Obs.Flight.flush (w0 + 1);
      b.Obs.Flight.fence ();
      Pmem.crash r;
      ignore t;
      match Prof.Ptab.attach b with
      | None -> Alcotest.fail "attach refused the table"
      | Some t' ->
        Alcotest.(check (option string)) "torn record reads empty" None
          (Prof.Ptab.name t' 2))

(* ---------------- end-to-end crash attribution ---------------- *)

(* The acceptance contract behind `rstat --prof`: after a crash, the
   surviving provenance entries resolve to the correct interned site
   names through the persistent table — ≥ 90% of sampled live bytes
   attributed (here exactly 100%: only two sites ever allocate). *)
let test_crash_attribution () =
  with_prof ~rate:256 (fun () ->
      let heap = Ralloc.create ~size:(8 * mb) () in
      let site_a = Prof.site "kv.writer"
      and site_b = Prof.site "kv.index" in
      let vas =
        Prof.with_site site_a (fun () ->
            List.init 150 (fun _ -> Ralloc.malloc heap 96))
        @ Prof.with_site site_b (fun () ->
              List.init 150 (fun _ -> Ralloc.malloc heap 320))
      in
      (* free a third so the ring carries cancellations too *)
      List.iteri (fun i va -> if i mod 3 = 0 then Ralloc.free heap va) vas;
      let heap', status = Ralloc.crash_and_reopen heap in
      Alcotest.(check bool) "image is dirty" true (status = Ralloc.Dirty_restart);
      let ring = (Ralloc.blackbox heap').Obs.Blackbox.prov in
      let live = Prof.Ring.live ring in
      Alcotest.(check bool) "samples survived the crash" true (live <> []);
      let total = ref 0 and attributed = ref 0 in
      List.iter
        (fun (e : Prof.Ring.entry) ->
          total := !total + e.psize;
          match Ralloc.prov_site_name heap' e.psite with
          | Some n when n = "kv.writer" || n = "kv.index" ->
            attributed := !attributed + e.psize
          | Some _ | None -> ())
        live;
      Alcotest.(check bool) "≥90% of sampled live bytes attributed" true
        (float_of_int !attributed >= 0.9 *. float_of_int !total);
      (* the sampled frees must have durably cancelled their allocs:
         every surviving entry's offset is one we did NOT free *)
      let freed =
        List.filteri (fun i _ -> i mod 3 = 0) vas
        |> List.map (fun va -> va - Ralloc.sb_base heap)
      in
      List.iter
        (fun (e : Prof.Ring.entry) ->
          if List.mem e.poff freed then
            Alcotest.failf "freed offset %d still live in the ring" e.poff)
        live;
      Ralloc.close heap')

(* The image guard: an image stamped with a foreign layout version, or
   one whose metadata region is too short for this build's telemetry
   window, must be refused with a readable error by every opener —
   [Ralloc.init], [Ralloc.open_image] and [rstat --audit] — not
   misread. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> output_string oc s)

(* bin/rstat.exe next to this test's build directory *)
let rstat_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/rstat.exe"

let rstat_audit path =
  let err = Filename.temp_file "rstat" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process rstat_exe
      [| rstat_exe; "--audit"; path |]
      Unix.stdin Unix.stdout fd
  in
  Unix.close fd;
  let _, st = Unix.waitpid [] pid in
  let msg = read_file err in
  Sys.remove err;
  ((match st with Unix.WEXITED c -> c | _ -> 128), msg)

let test_layout_version_guard () =
  let dir = Filename.temp_file "prof_ver" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "heap" in
  let heap, status = Ralloc.init ~path ~size:(4 * mb) () in
  Alcotest.(check bool) "fresh" true (status = Ralloc.Fresh);
  Ralloc.close heap;
  let meta_path = path ^ ".meta" in
  let pristine = read_file meta_path in
  (* pmem images carry a 4096 B header before the raw words *)
  let stamp v =
    let b = Bytes.of_string pristine in
    Bytes.set_int64_le b (4096 + (Ralloc.Layout.meta_layout_version * 8)) v;
    Bytes.to_string b
  in
  let refused ~what expect =
    (match Ralloc.init ~path ~size:(4 * mb) () with
    | _ -> Alcotest.failf "init accepted %s" what
    | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "init names it: %s" msg) true
        (contains msg expect));
    (match Ralloc.open_image ~path with
    | _ -> Alcotest.failf "open_image accepted %s" what
    | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "open_image names it: %s" msg)
        true (contains msg expect));
    let code, msg = rstat_audit path in
    Alcotest.(check bool) ("rstat --audit exits non-zero on " ^ what) true
      (code <> 0);
    Alcotest.(check bool) (Printf.sprintf "rstat names it: %s" msg) true
      (contains msg expect)
  in
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let fds0 = fds () in
  write_file meta_path (stamp 99L);
  refused ~what:"a foreign layout version" "layout v99, expected v4";
  write_file meta_path (stamp 3L);
  refused ~what:"a v3 image" "heap built by layout v3, expected v4";
  (* a current-version image whose metadata region stops where the
     telemetry window should start: header word count cut, file
     truncated to match *)
  let short = Ralloc.Layout.obs_base in
  let b = Bytes.sub (Bytes.of_string pristine) 0 (4096 + (short * 8)) in
  Bytes.set_int64_le b 16 (Int64.of_int short);
  write_file meta_path (Bytes.to_string b);
  refused ~what:"a short metadata region"
    (Printf.sprintf "metadata region holds %d words" short);
  Alcotest.(check int) "a refused init closes the files it opened" fds0
    (fds ());
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

let () =
  Alcotest.run "prof"
    [
      ( "sampler",
        [
          Alcotest.test_case "exact at rate 1" `Quick test_exact_at_rate_one;
          Alcotest.test_case "inert while disabled" `Quick test_disabled_inert;
          Alcotest.test_case "OBS_DISABLED overrides" `Quick
            test_obs_disabled_overrides;
          QCheck_alcotest.to_alcotest prop_estimate_tracks_census;
        ] );
      ( "provenance ring",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fenced_entries_survive;
            prop_torn_tail_detected;
            prop_free_cancels_alloc;
          ] );
      ( "site table",
        [
          Alcotest.test_case "persist/crash/attach roundtrip" `Quick
            test_ptab_roundtrip;
          Alcotest.test_case "torn record reads empty" `Quick
            test_ptab_torn_write_reads_empty;
        ] );
      ( "crash attribution",
        [
          Alcotest.test_case "sites survive kill and resolve" `Quick
            test_crash_attribution;
          Alcotest.test_case "layout version guard" `Quick
            test_layout_version_guard;
        ] );
    ]
