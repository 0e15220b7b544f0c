(* Tests for the simulated-NVM substrate: atomic word operations,
   flush/fence/crash semantics, eviction injection, byte access, mapped
   image files, and cross-domain atomicity. *)

let test_store_load () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 0 42;
  Pmem.store r 511 (-7);
  Alcotest.(check int) "word 0" 42 (Pmem.load r 0);
  Alcotest.(check int) "negative value" (-7) (Pmem.load r 511);
  Alcotest.(check int) "fresh word is zero" 0 (Pmem.load r 100)

let test_bounds () =
  let r = Pmem.create ~size_bytes:4096 () in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Pmem(pmem): word index -1 out of bounds [0,512)")
    (fun () -> ignore (Pmem.load r (-1)));
  Alcotest.check_raises "past end"
    (Invalid_argument "Pmem(pmem): word index 512 out of bounds [0,512)")
    (fun () -> Pmem.store r 512 1)

let test_sizes_rounded () =
  let r = Pmem.create ~size_bytes:100 () in
  Alcotest.(check int) "words" 16 (Pmem.size_words r);
  Alcotest.(check int) "bytes" 128 (Pmem.size_bytes r)

let test_cas () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 3 10;
  Alcotest.(check bool) "success" true (Pmem.cas r 3 ~expected:10 ~desired:20);
  Alcotest.(check bool) "failure" false (Pmem.cas r 3 ~expected:10 ~desired:30);
  Alcotest.(check int) "value" 20 (Pmem.load r 3)

let test_fetch_add () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 0 5;
  Alcotest.(check int) "returns old" 5 (Pmem.fetch_add r 0 3);
  Alcotest.(check int) "added" 8 (Pmem.load r 0)

let test_crash_loses_unflushed () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 0 111;
  Pmem.store r 8 222;
  Pmem.flush r 0;
  Pmem.fence r;
  Pmem.store r 0 999 (* overwrite after flush, not flushed *);
  Pmem.crash r;
  Alcotest.(check int) "flushed value survives" 111 (Pmem.load r 0);
  Alcotest.(check int) "unflushed word lost" 0 (Pmem.load r 8)

let test_flush_line_granularity () =
  let r = Pmem.create ~size_bytes:4096 () in
  for w = 0 to 7 do
    Pmem.store r w (w + 1)
  done;
  Pmem.store r 8 99 (* next line *);
  Pmem.flush r 3;
  Pmem.fence r;
  Pmem.crash r;
  for w = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "word %d" w) (w + 1) (Pmem.load r w)
  done;
  Alcotest.(check int) "other line lost" 0 (Pmem.load r 8)

let test_flush_range () =
  let r = Pmem.create ~size_bytes:4096 () in
  for w = 0 to 63 do
    Pmem.store r w w
  done;
  Pmem.flush_range r 10 30;
  Pmem.fence r;
  Pmem.crash r;
  (* lines covering words 10..39 = lines 1..4 = words 8..39 *)
  for w = 8 to 39 do
    Alcotest.(check int) (Printf.sprintf "word %d kept" w) w (Pmem.load r w)
  done;
  Alcotest.(check int) "before range lost" 0 (Pmem.load r 7);
  Alcotest.(check int) "after range lost" 0 (Pmem.load r 40)

let test_flush_all () =
  let r = Pmem.create ~size_bytes:4096 () in
  for w = 0 to 511 do
    Pmem.store r w (w * 3)
  done;
  Pmem.flush_all r;
  Pmem.crash r;
  for w = 0 to 511 do
    Alcotest.(check int) "kept" (w * 3) (Pmem.load r w)
  done

let test_eviction_mode () =
  let r = Pmem.create ~size_bytes:65536 () in
  Pmem.set_eviction_rate r 1.0;
  Pmem.store r 0 7;
  Pmem.store r 100 8;
  Pmem.crash r;
  Alcotest.(check int) "evicted store survives" 7 (Pmem.load r 0);
  Alcotest.(check int) "evicted store survives" 8 (Pmem.load r 100);
  let s = Pmem.Stats.read r in
  Alcotest.(check bool) "evictions counted" true (s.evictions >= 2)

let test_byte_and_string () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store_byte r 13 0xAB;
  Alcotest.(check int) "byte" 0xAB (Pmem.load_byte r 13);
  let s = "hello persistent world" in
  Pmem.store_string r 100 s;
  Alcotest.(check string) "string" s (Pmem.load_string r 100 (String.length s));
  Pmem.store r 0 0;
  Pmem.store_byte r 1 0xFF;
  Alcotest.(check int) "byte within word" 0xFF00 (Pmem.load r 0);
  (* the top byte of a word must survive intact, including its high bit *)
  Pmem.store_byte r 23 0xAB;
  Alcotest.(check int) "high byte of a word" 0xAB (Pmem.load_byte r 23);
  let binary = String.init 256 Char.chr in
  Pmem.store_string r 200 binary;
  Alcotest.(check string) "all byte values roundtrip" binary
    (Pmem.load_string r 200 256)

let test_stats () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.Stats.reset r;
  Pmem.flush r 0;
  Pmem.flush r 8;
  Pmem.fence r;
  ignore (Pmem.cas r 0 ~expected:0 ~desired:1);
  let s = Pmem.Stats.read r in
  Alcotest.(check int) "flushes" 2 s.flushes;
  Alcotest.(check int) "fences" 1 s.fences;
  Alcotest.(check int) "cas" 1 s.cas_ops

(* --- Write-combining flush pipeline ------------------------------------ *)

let test_pipeline_unfenced_lost () =
  (* With eviction off, a posted (flushed-but-unfenced) line must NOT be
     durable at a crash: the write-back never completed. *)
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 0 555;
  Pmem.flush r 0;
  Alcotest.(check int) "line is pending" 1 (Pmem.pending_lines r);
  Pmem.crash r;
  Alcotest.(check int) "posted flush lost at crash" 0 (Pmem.load r 0);
  Alcotest.(check int) "pending set cleared" 0 (Pmem.pending_lines r)

let test_pipeline_fenced_durable () =
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.store r 0 556;
  Pmem.flush r 0;
  Pmem.fence r;
  Alcotest.(check int) "drained" 0 (Pmem.pending_lines r);
  Pmem.crash r;
  Alcotest.(check int) "fenced flush durable" 556 (Pmem.load r 0)

let test_pipeline_dedup () =
  (* clwb is idempotent: re-flushing a posted line costs a flush *count*
     (the paper's accounting) but only one pending write-back. *)
  let r = Pmem.create ~size_bytes:4096 () in
  Pmem.Stats.reset r;
  Pmem.store r 0 1;
  Pmem.flush r 0;
  Pmem.flush r 3 (* same line *);
  Pmem.flush r 7 (* same line *);
  Alcotest.(check int) "deduped to one line" 1 (Pmem.pending_lines r);
  Pmem.store r 8 2;
  Pmem.flush r 8;
  Alcotest.(check int) "second line pends" 2 (Pmem.pending_lines r);
  let s = Pmem.Stats.read r in
  Alcotest.(check int) "all flushes counted" 4 s.flushes;
  Pmem.fence r;
  Alcotest.(check int) "fence drains all" 0 (Pmem.pending_lines r);
  Pmem.crash r;
  Alcotest.(check int) "line 0 durable" 1 (Pmem.load r 0);
  Alcotest.(check int) "line 1 durable" 2 (Pmem.load r 8)

let test_sync_mode_flush_durable () =
  (* Legacy ablation mode: flush alone writes back inline, no fence
     needed for durability, and nothing ever pends. *)
  Fun.protect
    ~finally:(fun () -> Pmem.set_mode Pmem.Pipelined)
    (fun () ->
      Pmem.set_mode Pmem.Synchronous;
      let r = Pmem.create ~size_bytes:4096 () in
      Pmem.store r 0 777;
      Pmem.flush r 0;
      Alcotest.(check int) "nothing pends in sync mode" 0
        (Pmem.pending_lines r);
      Pmem.crash r;
      Alcotest.(check int) "sync flush durable without fence" 777
        (Pmem.load r 0))

let prop_pipeline_unfenced_never_garbage =
  (* Under random eviction, a posted-but-unfenced line either made it
     (evicted / applied at crash) or didn't — never a torn value. *)
  QCheck2.Test.make
    ~name:"pipelined: unfenced line is all-or-nothing under eviction"
    ~count:1000
    QCheck2.Gen.(pair (int_bound 511) (int_range 1 1000))
    (fun (w, v) ->
      let r = Pmem.create ~size_bytes:4096 () in
      Pmem.set_eviction_rate r 0.05;
      Pmem.store r w v;
      Pmem.flush r w;
      Pmem.crash r;
      let got = Pmem.load r w in
      got = 0 || got = v)

let prop_pipeline_fenced_always_durable =
  QCheck2.Test.make
    ~name:"pipelined: flush+fence is always durable under eviction"
    ~count:1000
    QCheck2.Gen.(pair (int_bound 511) (int_range 1 1000))
    (fun (w, v) ->
      let r = Pmem.create ~size_bytes:4096 () in
      Pmem.set_eviction_rate r 0.05;
      Pmem.store r w v;
      Pmem.flush r w;
      Pmem.fence r;
      Pmem.crash r;
      Pmem.load r w = v)

let test_pipeline_eviction_statistics () =
  (* Flushed-but-unfenced lines persist *probabilistically* under the
     eviction model: over many trials some survive the crash and some
     don't.  With p = 0.05 the per-trial survival chance is ~9.75%
     (eviction at store or application at crash), so 0 or 1000 survivors
     out of 1000 would each be astronomically unlikely. *)
  let trials = 1000 in
  (* one region for all trials (distinct line per trial) so the eviction
     RNG state advances across trials instead of replaying one draw *)
  let r = Pmem.create ~size_bytes:(trials * Pmem.line_bytes) () in
  Pmem.set_eviction_rate r 0.05;
  let survived = ref 0 in
  for i = 0 to trials - 1 do
    let w = i * Pmem.words_per_line in
    Pmem.store r w 1;
    Pmem.flush r w;
    Pmem.crash r;
    if Pmem.load r w = 1 then incr survived
  done;
  Alcotest.(check bool) "some unfenced flushes survive" true (!survived > 0);
  Alcotest.(check bool) "not all unfenced flushes survive" true
    (!survived < trials)

let with_temp_file f =
  let path = Filename.temp_file "pmem" ".img" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_file_fresh_and_reopen () =
  with_temp_file (fun path ->
      let r, existed = Pmem.open_file ~name:"disk" ~path ~size_bytes:8192 () in
      Alcotest.(check bool) "fresh" false existed;
      Pmem.store r 5 12345;
      Pmem.flush r 5;
      Pmem.close_file r;
      let r, existed = Pmem.open_file ~path ~size_bytes:8192 () in
      Alcotest.(check bool) "existed" true existed;
      Alcotest.(check int) "flushed word persisted" 12345 (Pmem.load r 5);
      Pmem.close_file r)

let test_file_write_through_without_close () =
  with_temp_file (fun path ->
      let r, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Pmem.store r 0 777;
      Pmem.store r 64 888;
      Pmem.flush r 0;
      Pmem.fence r;
      (* no close, no flush of word 64: simulate sudden process death by
         just reopening the file *)
      let r2, existed = Pmem.open_file ~path ~size_bytes:8192 () in
      Alcotest.(check bool) "existed" true existed;
      Alcotest.(check int) "flushed line on disk" 777 (Pmem.load r2 0);
      Alcotest.(check int) "unflushed line not on disk" 0 (Pmem.load r2 64);
      Pmem.close_file r2;
      Pmem.close_file r)

let test_file_posted_flush_not_on_disk () =
  (* The backing file mirrors the *durable* view: a posted flush reaches
     the file only at the draining fence. *)
  with_temp_file (fun path ->
      let r, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Pmem.store r 0 4242;
      Pmem.flush r 0;
      (* no fence: sudden-death reopen must not see the line *)
      let r2, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Alcotest.(check int) "posted line absent from file" 0 (Pmem.load r2 0);
      Pmem.close_file r2;
      Pmem.fence r;
      let r3, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Alcotest.(check int) "drained line present in file" 4242
        (Pmem.load r3 0);
      Pmem.close_file r3;
      Pmem.close_file r)

let test_file_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "this is not a pmem image at all................";
      close_out oc;
      Alcotest.(check bool) "raises" true
        (try
           ignore (Pmem.open_file ~path ~size_bytes:8192 ());
           false
         with Failure _ -> true))

let file_size path = (Unix.stat path).Unix.st_size
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_file_rejects_truncated () =
  (* The header promises more words than the file holds.  Mapping such a
     file would silently grow it; both openers must refuse it instead and
     leave it exactly as short as it was. *)
  with_temp_file (fun path ->
      let r, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Pmem.close_file r;
      Unix.truncate path (file_size path - 4096);
      let short = file_size path in
      let refused f = try ignore (f ()); false with Failure _ -> true in
      Alcotest.(check bool) "open_file refuses" true
        (refused (fun () -> Pmem.open_file ~path ~size_bytes:8192 ()));
      Alcotest.(check int) "open_file did not grow it" short (file_size path);
      Alcotest.(check bool) "load_image refuses" true
        (refused (fun () -> Pmem.load_image ~path));
      Alcotest.(check int) "load_image did not grow it" short (file_size path))

let test_file_rejects_bad_word_count () =
  (* The header's word count sizes the mapping, and write-back is by whole
     lines: a count that is not a whole number of lines is refused. *)
  with_temp_file (fun path ->
      let r, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Pmem.close_file r;
      let img = Bytes.of_string (read_file path) in
      Bytes.set_int64_le img 16 12L;
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc img);
      Alcotest.(check bool) "refused" true
        (try
           ignore (Pmem.load_image ~path);
           false
         with Failure _ -> true))

let test_load_image_leaves_file () =
  (* What a trial recovery does to a loaded image — stores, flushes,
     fences, a whole-region flush_all — must never reach the file. *)
  with_temp_file (fun path ->
      let r, _ = Pmem.open_file ~path ~size_bytes:8192 () in
      Pmem.store r 3 31;
      Pmem.store r 700 7;
      Pmem.flush_all r;
      Pmem.close_file r;
      let before = read_file path in
      let img = Pmem.load_image ~path in
      Alcotest.(check int) "sees the durable contents" 31 (Pmem.load img 3);
      Pmem.store img 3 99;
      Pmem.store img 64 64;
      Pmem.flush img 3;
      Pmem.flush_range img 64 16;
      Pmem.fence img;
      Pmem.store img 700 0;
      Pmem.flush_all img;
      Alcotest.(check int) "region keeps its own writes" 99 (Pmem.load img 3);
      Alcotest.(check bool) "file byte-identical" true
        (String.equal before (read_file path));
      let again = Pmem.load_image ~path in
      Alcotest.(check int) "reload sees the original" 31 (Pmem.load again 3);
      Alcotest.(check int) "reload sees the original tail" 7
        (Pmem.load again 700))

let test_parallel_cas_counter () =
  let r = Pmem.create ~size_bytes:4096 () in
  let domains = 4 and per = 10_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              let rec incr () =
                let v = Pmem.load r 0 in
                if not (Pmem.cas r 0 ~expected:v ~desired:(v + 1)) then incr ()
              in
              incr ()
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "atomic counter" (domains * per) (Pmem.load r 0)

let test_parallel_fetch_add () =
  let r = Pmem.create ~size_bytes:4096 () in
  let domains = 4 and per = 20_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              ignore (Pmem.fetch_add r 1 1)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "fetch_add counter" (domains * per) (Pmem.load r 1)

let prop_word_roundtrip =
  QCheck2.Test.make ~name:"store/load roundtrip (62-bit values)" ~count:1000
    QCheck2.Gen.(pair (int_bound 511) int)
    (fun (w, v) ->
      let v = v asr 1 in
      let r = Pmem.create ~size_bytes:4096 () in
      Pmem.store r w v;
      Pmem.load r w = v)

let prop_crash_idempotent =
  QCheck2.Test.make ~name:"crash twice = crash once" ~count:200
    QCheck2.Gen.(int_bound 511)
    (fun w ->
      let r = Pmem.create ~size_bytes:4096 () in
      Pmem.store r w 1;
      Pmem.flush r w;
      Pmem.fence r;
      Pmem.crash r;
      let a = Pmem.load r w in
      Pmem.crash r;
      a = Pmem.load r w)

let () =
  Alcotest.run "pmem"
    [
      ( "words",
        [
          Alcotest.test_case "store/load" `Quick test_store_load;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "size rounding" `Quick test_sizes_rounded;
          Alcotest.test_case "cas" `Quick test_cas;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "crash loses unflushed" `Quick
            test_crash_loses_unflushed;
          Alcotest.test_case "line granularity" `Quick
            test_flush_line_granularity;
          Alcotest.test_case "flush_range" `Quick test_flush_range;
          Alcotest.test_case "flush_all" `Quick test_flush_all;
          Alcotest.test_case "eviction mode" `Quick test_eviction_mode;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "unfenced flush lost at crash" `Quick
            test_pipeline_unfenced_lost;
          Alcotest.test_case "fenced flush durable" `Quick
            test_pipeline_fenced_durable;
          Alcotest.test_case "dedup of repeated flushes" `Quick
            test_pipeline_dedup;
          Alcotest.test_case "synchronous mode ablation" `Quick
            test_sync_mode_flush_durable;
          Alcotest.test_case "eviction statistics" `Quick
            test_pipeline_eviction_statistics;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "byte and string access" `Quick
            test_byte_and_string;
        ] );
      ( "files",
        [
          Alcotest.test_case "fresh and reopen" `Quick
            test_file_fresh_and_reopen;
          Alcotest.test_case "write-through without close" `Quick
            test_file_write_through_without_close;
          Alcotest.test_case "posted flush reaches disk at fence" `Quick
            test_file_posted_flush_not_on_disk;
          Alcotest.test_case "rejects garbage" `Quick test_file_rejects_garbage;
          Alcotest.test_case "rejects truncated image" `Quick
            test_file_rejects_truncated;
          Alcotest.test_case "rejects bad word count" `Quick
            test_file_rejects_bad_word_count;
          Alcotest.test_case "load_image never writes the file" `Quick
            test_load_image_leaves_file;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel cas counter" `Slow
            test_parallel_cas_counter;
          Alcotest.test_case "parallel fetch_add" `Slow test_parallel_fetch_add;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_word_roundtrip;
            prop_crash_idempotent;
            prop_pipeline_unfenced_never_garbage;
            prop_pipeline_fenced_always_durable;
          ] );
    ]
