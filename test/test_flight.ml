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
  Pmem.flush_all r;
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
      let header_words = 24 and entry_words = 8 in
      let w = header_words + (1 * entry_words) in
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
          Pmem.flush_all r;
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
           (pair (int_bound 6) (int_bound 1_000_000))))
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
          Pmem.flush_all r;
          Pmem.fence r;
          for i = 1 to n_good do
            Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:i ()
          done;
          (* partial composition of entry n_good+1: some words land, the
             checksum word stays zero (an entry's checksum over its real
             contents cannot be among the torn words: record computes it
             last, and a zero checksum never matches) *)
          let header_words = 24 and entry_words = 8 in
          let w = header_words + (n_good mod capacity * entry_words) in
          b.Obs.Flight.store w (n_good + 1);
          List.iter
            (fun (off, v) ->
              if off >= 1 && off <= 5 then b.Obs.Flight.store (w + off) v)
            torn_words;
          b.Obs.Flight.store (w + 6) 0;
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
          Pmem.flush_all r;
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
    ]
