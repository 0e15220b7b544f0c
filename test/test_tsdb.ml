(* Metrics black box (Obs.Tsdb): crash durability of the persistent
   time-series rings.

   The recorder's contract (lib/obs, backed by Pmem.flight_backend):
   - a fine sample is durable the moment [sample] returns (all four
     record lines flushed, one fence issued), so after any later crash
     it is in [points];
   - write-time downsampling is exact: every closed mid (10-tick) and
     coarse (60-tick) bucket stores the SUM and count of its window, so
     sums and means are conserved across resolutions;
   - a record whose lines reached the medium mid-composition is detected
     by its checksum and skipped — never misparsed as a sample;
   - the volatile per-ring head cursors are rebuilt at [attach] as
     max(seq)+1, so sequence numbers stay monotonic across crashes;
   - disabled (flag or OBS_DISABLED), the sampler evaluates nothing and
     writes nothing. *)

let with_db f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  Obs.Tsdb.set_enabled true;
  let words = Obs.Tsdb.words_for () in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  let t = Obs.Tsdb.format b in
  Pmem.flush_prefix r ~words:(Pmem.size_words r);
  Pmem.fence r;
  Fun.protect
    ~finally:(fun () -> Obs.Tsdb.set_enabled false)
    (fun () -> f r b t)

let reattach b =
  match Obs.Tsdb.attach b with
  | Some t -> t
  | None -> Alcotest.fail "attach refused a valid tsdb window"

(* Deterministic pseudo-values so properties can recompute exact sums:
   tick [k], series [i], seed [s]. *)
let value ~seed ~tick ~series = (seed + (31 * tick) + (7 * series)) mod 997

(* ---------------- unit tests ---------------- *)

let test_roundtrip () =
  with_db (fun r b t ->
      let ids =
        List.map (Obs.Tsdb.declare t) [ "smoke.a"; "smoke.b"; "smoke.c" ]
      in
      Alcotest.(check (list int)) "dense ids" [ 0; 1; 2 ] ids;
      for k = 0 to 6 do
        Obs.Tsdb.sample t ~ts_ns:(1000 + k)
          (Array.init 3 (fun i -> value ~seed:5 ~tick:k ~series:i))
      done;
      Pmem.crash r;
      let t' = reattach b in
      Alcotest.(check int) "series table survives" 3
        (Obs.Tsdb.series_count t');
      Alcotest.(check (option string)) "names survive" (Some "smoke.b")
        (Obs.Tsdb.series_name t' 1);
      Alcotest.(check int) "sample cursor rebuilt" 7
        (Obs.Tsdb.total_samples t');
      let pts = Obs.Tsdb.points t' `Fine in
      Alcotest.(check int) "all seven samples" 7 (List.length pts);
      List.iteri
        (fun k (p : Obs.Tsdb.point) ->
          Alcotest.(check int) "seq" (k + 1) p.p_seq;
          Alcotest.(check int) "ts" (1000 + k) p.p_ts_ns;
          Alcotest.(check int) "count" 1 p.p_count;
          for i = 0 to 2 do
            Alcotest.(check int) "value" (value ~seed:5 ~tick:k ~series:i)
              p.p_values.(i)
          done)
        pts)

let test_disabled_is_inert () =
  with_db (fun _ _ t ->
      let id = Obs.Tsdb.declare t "smoke.a" in
      Obs.Tsdb.set_enabled false;
      Obs.Tsdb.sample t ~ts_ns:1 [| 42 |];
      Obs.Tsdb.set_enabled true;
      Alcotest.(check int) "nothing recorded" 0 (Obs.Tsdb.total_samples t);
      Alcotest.(check int) "no fine points" 0
        (List.length (Obs.Tsdb.series_points t `Fine id)))

let test_obs_disabled_overrides () =
  with_db (fun _ _ t ->
      let evaluated = ref 0 in
      let s =
        Obs.Tsdb.Sampler.create t
          [
            ( "smoke.src",
              fun _ ->
                incr evaluated;
                7 );
          ]
      in
      Unix.putenv "OBS_DISABLED" "1";
      Obs.Tsdb.set_enabled true;
      Alcotest.(check bool) "OBS_DISABLED holds the flag off" false
        (Obs.Tsdb.enabled ());
      let v = Obs.Tsdb.Sampler.tick s in
      Unix.putenv "OBS_DISABLED" "0";
      Obs.Tsdb.set_enabled true;
      Alcotest.(check int) "tick returns nothing" 0 (Array.length v);
      Alcotest.(check int) "sources never evaluated" 0 !evaluated;
      Alcotest.(check int) "nothing recorded" 0 (Obs.Tsdb.total_samples t))

let test_sampler_persists_its_snapshot () =
  with_db (fun _ _ t ->
      let n = ref 0 in
      let s =
        Obs.Tsdb.Sampler.create t
          [
            ( "smoke.count",
              fun _ ->
                incr n;
                !n * 10 );
          ]
      in
      Alcotest.(check (option int)) "index resolves" (Some 0)
        (Obs.Tsdb.Sampler.index s "smoke.count");
      let v1 = Obs.Tsdb.Sampler.tick s in
      let v2 = Obs.Tsdb.Sampler.tick s in
      Alcotest.(check int) "tick returns the snapshot" 10 v1.(0);
      Alcotest.(check int) "second tick" 20 v2.(0);
      let id = Option.get (Obs.Tsdb.series_index t "smoke.count") in
      Alcotest.(check (list int)) "ticks persisted as fine samples"
        [ 10; 20 ]
        (List.map
           (fun (_, v) -> int_of_float v)
           (Obs.Tsdb.series_points t `Fine id)))

let test_attach_rejects_garbage () =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  let words = Obs.Tsdb.words_for () in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.flight_backend r ~first_word:0 ~words in
  Alcotest.(check bool) "zeroed window" true (Obs.Tsdb.attach b = None);
  Pmem.store r 0 12345;
  Alcotest.(check bool) "bad magic" true (Obs.Tsdb.attach b = None)

(* ---------------- crash properties ---------------- *)

(* Write-time downsampling is exact: after sampling n ticks and crashing,
   every closed mid bucket holds the sum (and count) of exactly its 10
   fine ticks, every closed coarse bucket of its 60 — so sums and means
   are conserved fine -> mid -> coarse. *)
let prop_downsampling_conserves_sums =
  QCheck2.Test.make ~name:"tsdb: downsampling conserves sums and means"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 130) (int_bound 1_000))
    (fun (n, seed) ->
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Tsdb.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.set_enabled false)
        (fun () ->
          let words = Obs.Tsdb.words_for () in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Tsdb.format b in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          let nseries = 3 in
          for i = 0 to nseries - 1 do
            ignore (Obs.Tsdb.declare t (Printf.sprintf "s%d" i))
          done;
          for k = 0 to n - 1 do
            Obs.Tsdb.sample t ~ts_ns:k
              (Array.init nseries (fun i -> value ~seed ~tick:k ~series:i))
          done;
          Pmem.crash r;
          match Obs.Tsdb.attach b with
          | None -> false
          | Some t' ->
            let window_sum ~from ~len i =
              let s = ref 0 in
              for k = from to from + len - 1 do
                s := !s + value ~seed ~tick:k ~series:i
              done;
              !s
            in
            let bucket_ok ratio (m, (p : Obs.Tsdb.point)) =
              p.p_count = ratio
              && p.p_seq = m + 1
              && Array.for_all Fun.id
                   (Array.init nseries (fun i ->
                        p.p_values.(i)
                        = window_sum ~from:(m * ratio) ~len:ratio i))
            in
            let ring_ok ring ratio =
              let pts = Obs.Tsdb.points t' ring in
              List.length pts = n / ratio
              && List.for_all (bucket_ok ratio)
                   (List.mapi (fun m p -> (m, p)) pts)
            in
            List.length (Obs.Tsdb.points t' `Fine) = n
            && ring_ok `Mid 10 && ring_ok `Coarse 60))

(* A torn tail record — header composed, checksum never durable — is
   skipped at attach, never misparsed, and recording continues over it. *)
let prop_torn_tail_dropped =
  QCheck2.Test.make ~name:"tsdb: torn tail record dropped, never misparsed"
    ~count:40
    QCheck2.Gen.(
      pair (int_range 1 30)
        (list_size (int_range 1 5)
           (pair
              (int_bound (Obs.Ring.checksum_word ~lines:Obs.Tsdb.record_lines))
              (int_bound 1_000_000))))
    (fun (n_good, torn_words) ->
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Tsdb.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Tsdb.set_enabled false)
        (fun () ->
          let words = Obs.Tsdb.words_for () in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Tsdb.format b in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          ignore (Obs.Tsdb.declare t "s0");
          for k = 1 to n_good do
            Obs.Tsdb.sample t ~ts_ns:k [| k |]
          done;
          (* partial composition of fine record n_good+1: the header seq
             and some payload words land, the checksum word stays zero (a
             real [sample] computes it last, and zero never matches) *)
          let w = Obs.Tsdb.slot_word `Fine n_good in
          let ck = Obs.Ring.checksum_word ~lines:Obs.Tsdb.record_lines in
          b.Obs.Flight.store w (n_good + 1);
          List.iter
            (fun (off, v) ->
              if off >= 1 && off < ck then b.Obs.Flight.store (w + off) v)
            torn_words;
          b.Obs.Flight.store (w + ck) 0;
          b.Obs.Flight.flush w;
          b.Obs.Flight.fence ();
          Pmem.crash r;
          match Obs.Tsdb.attach b with
          | None -> false
          | Some t' ->
            let seqs =
              List.map
                (fun (p : Obs.Tsdb.point) -> p.p_seq)
                (Obs.Tsdb.points t' `Fine)
            in
            List.length seqs = n_good
            && (not (List.mem (n_good + 1) seqs))
            && Obs.Tsdb.torn_slots t' = 1
            (* cursor rebuilt past the torn seq: the next sample
               overwrites the tear rather than colliding behind it *)
            &&
            (Obs.Tsdb.sample t' ~ts_ns:99 [| 99 |];
             let seqs' =
               List.map
                 (fun (p : Obs.Tsdb.point) -> p.p_seq)
                 (Obs.Tsdb.points t' `Fine)
             in
             Obs.Tsdb.torn_slots t' = 0
             && List.length seqs' = n_good + 1
             && List.mem (n_good + 1) seqs')))

(* Crash-point sweep under the persistency checker: whatever the eviction
   weather and wherever the crash lands, attach reads only checksummed
   records and the checker observes zero (non-allowlisted) durability
   violations — every fenced sample survives with its exact payload. *)
let prop_crash_sweep_checked =
  QCheck2.Test.make ~name:"tsdb: crash sweep under pcheck, zero violations"
    ~count:30
    QCheck2.Gen.(triple (int_range 1 60) (int_bound 1_000) (float_range 0. 0.5))
    (fun (n, seed, evict_rate) ->
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Tsdb.set_enabled true;
      Pmem.Check.set_enabled true;
      let ck0 = Pmem.Check.totals () in
      Fun.protect
        ~finally:(fun () ->
          Pmem.Check.set_enabled false;
          Obs.Tsdb.set_enabled false)
        (fun () ->
          let words = Obs.Tsdb.words_for () in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.flight_backend r ~first_word:0 ~words in
          let t = Obs.Tsdb.format b in
          Pmem.flush_prefix r ~words:(Pmem.size_words r);
          Pmem.fence r;
          Pmem.set_eviction_rate r evict_rate;
          ignore (Obs.Tsdb.declare t "s0");
          for k = 0 to n - 1 do
            Obs.Tsdb.sample t ~ts_ns:k [| value ~seed ~tick:k ~series:0 |]
          done;
          Pmem.crash r;
          match Obs.Tsdb.attach b with
          | None -> false
          | Some t' ->
            let pts = Obs.Tsdb.points t' `Fine in
            let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
            List.length pts = n
            && List.for_all
                 (fun (p : Obs.Tsdb.point) ->
                   p.p_values.(0)
                   = value ~seed ~tick:(p.p_seq - 1) ~series:0)
                 pts
            && ckd.Pmem.Check.t_violations = 0))

let () =
  Alcotest.run "tsdb"
    [
      ( "units",
        [
          Alcotest.test_case "sample/crash/attach roundtrip" `Quick
            test_roundtrip;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "OBS_DISABLED holds the sampler off" `Quick
            test_obs_disabled_overrides;
          Alcotest.test_case "sampler persists the snapshot it returns"
            `Quick test_sampler_persists_its_snapshot;
          Alcotest.test_case "attach rejects garbage" `Quick
            test_attach_rejects_garbage;
        ] );
      ( "crash properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_downsampling_conserves_sums;
            prop_torn_tail_dropped;
            prop_crash_sweep_checked;
          ] );
    ]
