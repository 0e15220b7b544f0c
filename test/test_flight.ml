(* Flight recorder: crash durability of the persistent event ring.

   The recorder's contract (lib/obs, backed by Pmem.flight_backend):
   - an event is durable the moment [record] returns (entry line flushed,
     fence issued), so after any later crash it is in [tail];
   - a slot whose line reached the persistent medium mid-composition is
     detected by its checksum and skipped — never misparsed as an event;
   - the volatile head cursor is rebuilt at [attach] as max(seq)+1, so
     sequence numbers stay monotonic across any number of crash cycles. *)

let with_ring ?(capacity = 16) f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  Obs.Flight.set_enabled true;
  let words = Obs.Flight.words_for ~capacity in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  let t = Obs.Flight.format b ~capacity in
  Pmem.flush_prefix r ~words:(Pmem.size_words r);
  Pmem.fence r;
  Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
    (fun () -> f r b t)

let reattach b =
  match Obs.Flight.attach b with
  | Some t -> t
  | None -> Alcotest.fail "attach refused a valid ring"

(* ---------------- unit tests ---------------- *)

let test_roundtrip () =
  with_ring (fun r b t ->
      for i = 1 to 5 do
        Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:i ~b:(i * 10)
          ~c:(i * 100) ()
      done;
      Pmem.crash r;
      let t' = reattach b in
      let evs = Obs.Flight.tail t' in
      Alcotest.(check int) "all five events" 5 (List.length evs);
      List.iteri
        (fun i (e : Obs.Flight.event) ->
          Alcotest.(check int) "seq" (i + 1) e.seq;
          Alcotest.(check int) "a" (i + 1) e.a;
          Alcotest.(check int) "b" ((i + 1) * 10) e.arg_b;
          Alcotest.(check int) "c" ((i + 1) * 100) e.c)
        evs;
      Alcotest.(check int) "cursor rebuilt" 5 (Obs.Flight.total_recorded t'))

let test_wrap_keeps_newest () =
  with_ring ~capacity:8 (fun r b t ->
      for i = 1 to 20 do
        Obs.Flight.record t ~kind:Obs.Flight.Kind.free ~a:i ()
      done;
      Pmem.crash r;
      let t' = reattach b in
      let evs = Obs.Flight.tail t' in
      Alcotest.(check int) "ring holds capacity" 8 (List.length evs);
      Alcotest.(check (list int)) "newest eight, oldest first"
        [ 13; 14; 15; 16; 17; 18; 19; 20 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs);
      Alcotest.(check int) "lifetime kind counter survives wrap" 20
        (Obs.Flight.kind_count t' Obs.Flight.Kind.free))

let test_disabled_records_nothing () =
  with_ring (fun _ _ t ->
      Obs.Flight.set_enabled false;
      Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ();
      Obs.Flight.set_enabled true;
      Alcotest.(check int) "nothing recorded" 0 (Obs.Flight.total_recorded t))

let test_torn_slot_detected () =
  with_ring (fun r b t ->
      Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:7 ();
      (* hand-compose a torn entry in the next slot: seq and payload
         written, checksum never stored — the state a spontaneous eviction
         can persist mid-[record] *)
      let w = Obs.Flight.slot_word 1 in
      b.Obs.Flight.store w 2;
      b.Obs.Flight.store (w + 1) Obs.Flight.Kind.free;
      b.Obs.Flight.store (w + 2) 99;
      b.Obs.Flight.flush w;
      b.Obs.Flight.fence ();
      Pmem.crash r;
      let t' = reattach b in
      Alcotest.(check int) "torn slot counted" 1 (Obs.Flight.torn_slots t');
      let evs = Obs.Flight.tail t' in
      Alcotest.(check (list int)) "torn entry never misparsed" [ 1 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs);
      (* the rebuilt cursor must skip past the torn seq so the next record
         overwrites it rather than colliding behind it *)
      Obs.Flight.record t' ~kind:Obs.Flight.Kind.malloc ~a:8 ();
      let evs = Obs.Flight.tail t' in
      Alcotest.(check (list int)) "recording continues over the tear" [ 1; 2 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs))

(* The entry checksum is part of the on-disk format: an image written by
   any earlier build must still verify.  Pin one fixed entry's checksum
   to the value the format has always produced. *)
let test_checksum_pinned () =
  with_ring (fun r b _ ->
      let w = 24 (* header_words: slot 0 *) in
      List.iteri
        (fun i v -> b.Obs.Flight.store (w + i) v)
        [ 1; Obs.Flight.Kind.free; 3; 4096; 16384; 1_000_000_007;
          4451021621204804104 ];
      b.Obs.Flight.flush w;
      b.Obs.Flight.fence ();
      Pmem.crash r;
      let t' = reattach b in
      Alcotest.(check int) "pinned entry is not torn" 0 (Obs.Flight.torn_slots t');
      match Obs.Flight.tail t' with
      | [ e ] ->
        Alcotest.(check (list int)) "pinned entry parses"
          [ 1; Obs.Flight.Kind.free; 3; 4096; 16384; 1_000_000_007 ]
          [ e.seq; e.kind; e.a; e.arg_b; e.c; e.ts_ns ]
      | evs -> Alcotest.failf "expected one entry, got %d" (List.length evs))

let test_attach_rejects_garbage () =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  let words = Obs.Flight.words_for ~capacity:8 in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  Alcotest.(check bool) "zeroed window" true (Obs.Flight.attach b = None);
  Pmem.store r 0 12345;
  Alcotest.(check bool) "bad magic" true (Obs.Flight.attach b = None)

(* ---------------- crash properties ---------------- *)

(* Fenced events are always readable after a crash, with exact payloads,
   whatever the eviction weather: the newest min(n, capacity) of n
   recorded events survive, in order. *)
let prop_fenced_events_survive =
  QCheck2.Test.make ~name:"flight: fenced events survive any crash" ~count:40
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60)
           (triple (int_range 1 13) (int_bound 10_000) (int_bound 10_000)))
        (float_range 0. 0.5))
    (fun (events, evict_rate) ->
      let capacity = 16 in
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Flight.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
        (fun () ->
          let words = Obs.Flight.words_for ~capacity in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Flight.format b ~capacity in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          Pmem.set_eviction_rate r evict_rate;
          List.iter
            (fun (kind, a, c) -> Obs.Flight.record t ~kind ~a ~c ())
          events;
          Pmem.crash r;
          match Obs.Flight.attach b with
          | None -> false
          | Some t' ->
            let n = List.length events in
            let expect =
              List.filteri (fun i _ -> i >= n - min n capacity) events
            in
            let got = Obs.Flight.tail t' in
            Obs.Flight.total_recorded t' = n
            && List.length got = List.length expect
            && List.for_all2
                 (fun (kind, a, c) (e : Obs.Flight.event) ->
                   e.kind = kind && e.a = a && e.c = c)
                 expect got))

(* A torn tail entry — any strict subset of an entry's words made durable,
   without its checksum holding — is skipped, never misparsed, and never
   hides the events before it. *)
let prop_torn_tail_detected =
  QCheck2.Test.make ~name:"flight: torn tail entry detected, never misparsed"
    ~count:60
    QCheck2.Gen.(
      pair (int_range 1 20)
        (list_size (int_range 1 6)
           (pair
              (int_bound (Obs.Ring.checksum_word ~lines:1))
              (int_bound 1_000_000))))
    (fun (n_good, torn_words) ->
      let capacity = 32 in
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Flight.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
        (fun () ->
          let words = Obs.Flight.words_for ~capacity in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Flight.format b ~capacity in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          for i = 1 to n_good do
            Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:i ()
          done;
          (* partial composition of entry n_good+1: some words land, the
             checksum word stays zero (an entry's checksum over its real
             contents cannot be among the torn words: record computes it
             last, and a zero checksum never matches) *)
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
          match Obs.Flight.attach b with
          | None -> false
          | Some t' ->
            let got = Obs.Flight.tail t' in
            let seqs = List.map (fun (e : Obs.Flight.event) -> e.seq) got in
            (* every fenced event still there, the torn seq absent *)
            List.length got = n_good
            && (not (List.mem (n_good + 1) seqs))
            && Obs.Flight.torn_slots t' = 1
            && Obs.Flight.total_recorded t' = n_good))

(* Sequence numbers stay monotonic across repeated crash/attach cycles. *)
let prop_seq_monotonic_across_crashes =
  QCheck2.Test.make ~name:"flight: seq monotonic across crash cycles" ~count:30
    QCheck2.Gen.(list_size (int_range 1 5) (int_range 1 10))
    (fun batches ->
      let capacity = 16 in
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Flight.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
        (fun () ->
          let words = Obs.Flight.words_for ~capacity in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Flight.format b ~capacity in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          let total = ref 0 in
          let ok = ref true in
          let t = ref t in
          List.iter
            (fun batch ->
              for _ = 1 to batch do
                Obs.Flight.record !t ~kind:Obs.Flight.Kind.heap_open ()
              done;
              total := !total + batch;
              Pmem.crash r;
              match Obs.Flight.attach b with
              | None -> ok := false
              | Some t' ->
                if Obs.Flight.total_recorded t' <> !total then ok := false;
                t := t')
            batches;
          !ok))

(* ---------------- the four views in one heap window ---------------- *)

type op = Root of int * bool | Alloc of int | Free of int | Tick of int

(* All four black-box views share one carve-out of the metadata region.
   A random interleaving of root updates, sampled mallocs and frees (the
   profiler at rate 1 samples every one) and metrics ticks runs on one
   heap under the persistency checker with eviction on; after a crash
   and reopen every view must hold exactly the records it had fenced —
   the same tails as just before the crash, with the payloads the model
   predicts — none torn, none parsed from a neighbour's lines, and the
   checker must see no durability violation.  Op counts stay under every
   ring's capacity, so nothing wraps and the model is exact. *)
let prop_views_share_one_window =
  QCheck2.Test.make ~name:"blackbox: four views in one heap window survive a crash"
    ~count:25
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 120)
           (oneof
              [
                map2 (fun i z -> Root (i, z)) (int_bound 3) bool;
                map (fun n -> Alloc n) (int_range 8 2048);
                map (fun k -> Free k) (int_bound 1000);
                map (fun v -> Tick v) (int_bound 1_000_000);
              ]))
        (float_range 0. 0.5))
    (fun (ops, evict_rate) ->
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Prof.reset ();
      Obs.Prof.set_rate 1;
      Obs.Flight.set_enabled true;
      Obs.Prof.set_enabled true;
      Obs.Tsdb.set_enabled true;
      Pmem.Check.set_enabled true;
      let ck0 = Pmem.Check.totals () in
      Fun.protect
        ~finally:(fun () ->
          Pmem.Check.set_enabled false;
          Obs.Tsdb.set_enabled false;
          Obs.Prof.set_enabled false;
          Obs.Flight.set_enabled false;
          Obs.Prof.reset ();
          Obs.Prof.set_rate Obs.Prof.default_rate)
        (fun () ->
          let heap = Ralloc.create ~size:(4 * 1024 * 1024) () in
          let bb = Ralloc.blackbox heap in
          let site = Obs.Prof.site "xview.alloc" in
          Obs.Prof.set_site site;
          let series = Obs.Tsdb.declare bb.tsdb "xview.tick" in
          Ralloc.set_eviction_rate heap evict_rate;
          let live = ref [] and roots = ref [] and prov = ref [] and ticks = ref [] in
          let off va = va - Ralloc.sb_base heap in
          List.iter
            (function
              | Root (i, zero) ->
                let va = match !live with (v, _) :: _ when not zero -> v | _ -> 0 in
                Ralloc.set_root heap i va;
                roots := (i, if va = 0 then 0 else off va) :: !roots
              | Alloc n ->
                let va = Ralloc.malloc heap n in
                let size = Ralloc.Size_class.(block_size (of_size n)) in
                live := (va, size) :: !live;
                prov := (true, size, off va) :: !prov
              | Free k when !live <> [] ->
                let ((va, size) as b) = List.nth !live (k mod List.length !live) in
                live := List.filter (( <> ) b) !live;
                Ralloc.free heap va;
                prov := (false, size, off va) :: !prov
              | Free _ -> ()
              | Tick v ->
                Obs.Tsdb.sample bb.tsdb ~ts_ns:(List.length !ticks + 1) [| v |];
                ticks := v :: !ticks)
            ops;
          let flight0 = Obs.Flight.tail bb.flight in
          let n0 = Obs.Flight.total_recorded bb.flight in
          let prov0 = Obs.Prof.Ring.entries bb.prov in
          let rings = [ `Fine; `Mid; `Coarse ] in
          let points0 = List.map (Obs.Tsdb.points bb.tsdb) rings in
          let heap', _ = Ralloc.crash_and_reopen heap in
          let bb' = Ralloc.blackbox heap' in
          let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
          (* the reopen itself logs one dirty heap_open after the crash *)
          let kept, reopened =
            List.partition
              (fun (e : Obs.Flight.event) -> e.seq <= n0)
              (Obs.Flight.tail bb'.flight)
          in
          let got_roots =
            List.filter_map
              (fun (e : Obs.Flight.event) ->
                if e.kind = Obs.Flight.Kind.root_set then Some (e.a, e.arg_b)
                else None)
              (Obs.Flight.tail bb'.flight)
          in
          let got_prov =
            List.map
              (fun (e : Obs.Prof.Ring.entry) -> (e.is_alloc, e.psize, e.poff))
              (Obs.Prof.Ring.entries bb'.prov)
          in
          let got_ticks =
            List.map
              (fun (p : Obs.Tsdb.point) -> p.p_values.(series))
              (Obs.Tsdb.points bb'.tsdb `Fine)
          in
          let ok =
            kept = flight0
            && List.map (fun (e : Obs.Flight.event) -> (e.kind, e.a)) reopened
               = [ (Obs.Flight.Kind.heap_open, 2) ]
            && Obs.Prof.Ring.entries bb'.prov = prov0
            && List.map (Obs.Tsdb.points bb'.tsdb) rings = points0
            && got_roots = List.rev !roots
            && got_prov = List.rev !prov
            && List.for_all
                 (fun (e : Obs.Prof.Ring.entry) -> e.psite = site)
                 (Obs.Prof.Ring.entries bb'.prov)
            && got_ticks = List.rev !ticks
            && Obs.Flight.torn_slots bb'.flight = 0
            && Obs.Prof.Ring.torn_slots bb'.prov = 0
            && Obs.Tsdb.torn_slots bb'.tsdb = 0
            && (!prov = [] || Ralloc.prov_site_name heap' site = Some "xview.alloc")
            && Obs.Tsdb.series_name bb'.tsdb series = Some "xview.tick"
            && ckd.Pmem.Check.t_violations = 0
          in
          Ralloc.close heap';
          ok))

let () =
  Alcotest.run "flight"
    [
      ( "units",
        [
          Alcotest.test_case "record/crash/attach roundtrip" `Quick
            test_roundtrip;
          Alcotest.test_case "wrap keeps newest, counters survive" `Quick
            test_wrap_keeps_newest;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "torn slot detected and skipped" `Quick
            test_torn_slot_detected;
          Alcotest.test_case "attach rejects garbage" `Quick
            test_attach_rejects_garbage;
          Alcotest.test_case "entry checksum pinned" `Quick
            test_checksum_pinned;
        ] );
      ( "crash properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fenced_events_survive;
            prop_torn_tail_detected;
            prop_seq_monotonic_across_crashes;
          ] );
      ( "black box",
        List.map QCheck_alcotest.to_alcotest [ prop_views_share_one_window ] );
    ]
