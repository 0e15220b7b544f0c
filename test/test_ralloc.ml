(* Unit tests for the core Ralloc allocator: allocation, reuse, large
   blocks, roots, and crash recovery. *)

let mb = 1 lsl 20

let with_heap ?(size = 8 * mb) f =
  let t = Ralloc.create ~name:"test" ~size () in
  f t

let test_malloc_basic () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 64 in
      Alcotest.(check bool) "nonnull" true (a <> 0);
      Ralloc.store t a 12345;
      Alcotest.(check int) "roundtrip" 12345 (Ralloc.load t a);
      Alcotest.(check bool) "valid" true (Ralloc.valid_block t a);
      Ralloc.free t a)

let test_distinct_addresses () =
  with_heap (fun t ->
      let n = 1000 in
      let seen = Hashtbl.create n in
      for i = 0 to n - 1 do
        let a = Ralloc.malloc t 48 in
        Alcotest.(check bool) "nonnull" true (a <> 0);
        (match Hashtbl.find_opt seen a with
        | Some j ->
          Alcotest.failf "address %#x returned twice (allocs %d and %d)" a j i
        | None -> ());
        Hashtbl.add seen a i
      done)

let test_no_overlap_mixed_sizes () =
  with_heap (fun t ->
      (* allocate blocks of many sizes, check pairwise disjointness *)
      let blocks = ref [] in
      let sizes = [ 8; 24; 100; 128; 500; 1000; 4096; 14000 ] in
      List.iter
        (fun s ->
          for _ = 1 to 50 do
            let a = Ralloc.malloc t s in
            Alcotest.(check bool) "nonnull" true (a <> 0);
            blocks := (a, Ralloc.usable_size t a) :: !blocks
          done)
        sizes;
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !blocks in
      let rec check = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          if a1 + s1 > a2 then
            Alcotest.failf "blocks overlap: %#x+%d > %#x" a1 s1 a2;
          check rest
        | _ -> ()
      in
      check sorted)

let test_usable_size () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 100 in
      Alcotest.(check bool) "usable >= requested" true
        (Ralloc.usable_size t a >= 100);
      let b = Ralloc.malloc t 8 in
      Alcotest.(check int) "min class" 8 (Ralloc.usable_size t b))

let test_free_reuse () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 64 in
      Ralloc.free t a;
      let b = Ralloc.malloc t 64 in
      Alcotest.(check int) "tcache LIFO reuse" a b)

let test_large_alloc () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 100_000 in
      Alcotest.(check bool) "nonnull" true (a <> 0);
      Alcotest.(check bool) "usable covers" true
        (Ralloc.usable_size t a >= 100_000);
      Ralloc.store t a 1;
      Ralloc.store t (a + 99_992) 2;
      Alcotest.(check int) "end" 2 (Ralloc.load t (a + 99_992));
      Ralloc.free t a;
      let b = Ralloc.malloc t 65536 in
      Alcotest.(check bool) "superblocks reusable after large free" true
        (b <> 0))

let test_oom () =
  let t = Ralloc.create ~name:"tiny" ~size:(4 * 65536) ~expansion_sbs:1 () in
  let rec drain acc =
    let a = Ralloc.malloc t 14336 in
    if a = 0 then acc else drain (a :: acc)
  in
  let got = drain [] in
  Alcotest.(check bool) "allocated some" true (List.length got >= 4);
  Alcotest.(check int) "null on exhaustion" 0 (Ralloc.malloc t 14336);
  List.iter (Ralloc.free t) got;
  Ralloc.flush_thread_cache t;
  Alcotest.(check bool) "usable after frees" true (Ralloc.malloc t 14336 <> 0)

let test_roots () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 64 in
      Ralloc.set_root t 0 a;
      Alcotest.(check int) "get_root" a (Ralloc.get_root t 0);
      Ralloc.set_root t 0 0;
      Alcotest.(check int) "cleared" 0 (Ralloc.get_root t 0);
      Alcotest.(check int) "unset root" 0 (Ralloc.get_root t 5))

let test_pptr_io () =
  with_heap (fun t ->
      let a = Ralloc.malloc t 64 and b = Ralloc.malloc t 64 in
      Ralloc.write_ptr t ~at:a ~target:b;
      Alcotest.(check int) "read_ptr" b (Ralloc.read_ptr t a);
      Ralloc.write_ptr t ~at:a ~target:0;
      Alcotest.(check int) "null ptr" 0 (Ralloc.read_ptr t a))

(* Build a linked list of [n] nodes in the heap, root at index 0.
   Node layout: word 0 = next (off-holder), word 1 = payload. *)
let build_list t n =
  let head = ref 0 in
  for i = 1 to n do
    let node = Ralloc.malloc t 16 in
    assert (node <> 0);
    Ralloc.write_ptr t ~at:node ~target:!head;
    Ralloc.store t (node + 8) i;
    Ralloc.flush_block_range t node 16;
    Ralloc.fence t;
    head := node
  done;
  Ralloc.set_root t 0 !head;
  !head

let check_list t n =
  let rec walk va expect count =
    if va = 0 then count
    else begin
      Alcotest.(check int) "payload" expect (Ralloc.load t (va + 8));
      walk (Ralloc.read_ptr t va) (expect - 1) (count + 1)
    end
  in
  let len = walk (Ralloc.get_root t 0) n 0 in
  Alcotest.(check int) "list length" n len

let test_recover_after_crash () =
  with_heap (fun t ->
      let n = 500 in
      let _ = build_list t n in
      (* some garbage that will be unreachable after the crash *)
      for _ = 1 to 200 do
        ignore (Ralloc.malloc t 64)
      done;
      let t, status = Ralloc.crash_and_reopen t in
      Alcotest.(check bool) "dirty restart" true (status = Ralloc.Dirty_restart);
      let stats = Ralloc.recover t in
      Alcotest.(check int) "reachable blocks" n stats.reachable_blocks;
      check_list t n;
      let a = Ralloc.malloc t 64 in
      Alcotest.(check bool) "alloc after recovery" true (a <> 0))

let test_recovered_blocks_not_reallocated () =
  with_heap (fun t ->
      let n = 200 in
      let _ = build_list t n in
      let t, _ = Ralloc.crash_and_reopen t in
      ignore (Ralloc.recover t);
      let live = Hashtbl.create 64 in
      let rec walk va =
        if va <> 0 then begin
          Hashtbl.replace live va ();
          walk (Ralloc.read_ptr t va)
        end
      in
      walk (Ralloc.get_root t 0);
      Alcotest.(check int) "live set" n (Hashtbl.length live);
      for _ = 1 to 5000 do
        let a = Ralloc.malloc t 16 in
        if a <> 0 && Hashtbl.mem live a then
          Alcotest.failf "recovered live block %#x re-allocated" a
      done)

let test_crash_leak_then_gc_reclaims () =
  with_heap ~size:(2 * mb) (fun t ->
      let rec leak n = if Ralloc.malloc t 1024 <> 0 then leak (n + 1) else n in
      let leaked = leak 0 in
      Alcotest.(check bool) "leaked a lot" true (leaked > 1000);
      let t, _ = Ralloc.crash_and_reopen t in
      let stats = Ralloc.recover t in
      Alcotest.(check int) "nothing reachable" 0 stats.reachable_blocks;
      let rec fill n = if Ralloc.malloc t 1024 <> 0 then fill (n + 1) else n in
      let refilled = fill 0 in
      Alcotest.(check bool)
        (Printf.sprintf "full capacity recovered (%d vs %d)" refilled leaked)
        true
        (refilled >= leaked))

let test_recovery_with_eviction_noise () =
  with_heap (fun t ->
      Ralloc.set_eviction_rate t 0.1;
      let n = 300 in
      let _ = build_list t n in
      let t, _ = Ralloc.crash_and_reopen t in
      let stats = Ralloc.recover t in
      Alcotest.(check int) "reachable blocks" n stats.reachable_blocks;
      check_list t n)

let test_clean_restart_via_files () =
  let path = Filename.temp_file "ralloc" "heap" in
  Sys.remove path;
  let t, status = Ralloc.init ~path ~size:(2 * mb) () in
  Alcotest.(check bool) "fresh" true (status = Ralloc.Fresh);
  let n = 100 in
  let _ = build_list t n in
  Ralloc.close t;
  let t, status = Ralloc.init ~path ~size:(2 * mb) () in
  Alcotest.(check bool) "clean restart" true (status = Ralloc.Clean_restart);
  check_list t n;
  Alcotest.(check bool) "alloc ok" true (Ralloc.malloc t 64 <> 0);
  Ralloc.close t;
  List.iter Sys.remove [ path ^ ".meta"; path ^ ".desc"; path ^ ".sb" ]

(* Resident set size of this process, in bytes. *)
let vm_rss () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmRSS in /proc/self/status"
        | Some l ->
          if String.starts_with ~prefix:"VmRSS:" l then
            Scanf.sscanf l "VmRSS: %d kB" (fun kb -> kb * 1024)
          else find ()
      in
      find ())

(* A restart's memory must follow the live set, not the heap's capacity:
   reopening a 128 MiB heap that holds 10k live blocks — dirty, then
   recovered, and clean — may grow the resident set by less than 16 MiB.
   A volatile view that is zero-filled and loaded with the whole image
   at open, or a write-back of the whole image, costs twice the
   capacity.  The persistency checker keeps a shadow word per heap word,
   so it is off for this test. *)
let restart_rss_gate () =
  let path = Filename.temp_file "ralloc" "heap" in
  Sys.remove path;
  let size = 128 * mb and budget = 16 * mb and n = 10_000 in
  let grows what f =
    let before = vm_rss () in
    let r = f () in
    let grew = vm_rss () - before in
    if grew >= budget then
      Alcotest.failf "%s grew RSS by %d KiB (budget %d KiB)" what
        (grew / 1024) (budget / 1024);
    r
  in
  let t, _ = Ralloc.init ~path ~size () in
  ignore (build_list t n);
  (* a crash: the handle is dropped without a close and the image reopened *)
  let t =
    grows "dirty init + recover" (fun () ->
        let t, status = Ralloc.init ~path ~size () in
        Alcotest.(check bool) "dirty restart" true
          (status = Ralloc.Dirty_restart);
        let stats = Ralloc.recover t in
        Alcotest.(check int) "live set recovered" n stats.reachable_blocks;
        t)
  in
  Ralloc.close t;
  let t =
    grows "clean init" (fun () ->
        let t, status = Ralloc.init ~path ~size () in
        Alcotest.(check bool) "clean restart" true
          (status = Ralloc.Clean_restart);
        t)
  in
  check_list t n;
  Ralloc.close t;
  List.iter Sys.remove [ path ^ ".meta"; path ^ ".desc"; path ^ ".sb" ]

let test_restart_rss_follows_live_set () =
  let checking = Pmem.Check.enabled () in
  Pmem.Check.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Pmem.Check.set_enabled checking)
    restart_rss_gate

let test_position_independence () =
  with_heap (fun t ->
      let n = 50 in
      let _ = build_list t n in
      let old_base = Ralloc.sb_base t in
      let t, _ = Ralloc.crash_and_reopen ~sb_base:(old_base + 0x2_0000_0000) t in
      ignore (Ralloc.recover t);
      check_list t n)

(* node: word 0 = next pointer, word 1 = an integer that looks exactly like
   a pptr to [decoy], word 2 = payload. *)
let build_decoy_list t n =
  let decoy = Ralloc.malloc t 64 in
  let head = ref 0 in
  for i = 1 to n do
    let node = Ralloc.malloc t 24 in
    Ralloc.write_ptr t ~at:node ~target:!head;
    Ralloc.store t (node + 8) (Pptr.encode ~holder:(node + 8) ~target:decoy);
    Ralloc.store t (node + 16) i;
    Ralloc.flush_block_range t node 24;
    head := node
  done;
  Ralloc.fence t;
  Ralloc.set_root t 0 !head

let test_filter_function () =
  with_heap (fun t ->
      let n = 20 in
      build_decoy_list t n;
      let t2, _ = Ralloc.crash_and_reopen t in
      (* the filter visits only word 0 (the real next pointer) *)
      let rec node_filter (gc : Ralloc.gc) va =
        gc.visit ~filter:node_filter (Ralloc.read_ptr t2 va)
      in
      ignore (Ralloc.get_root ~filter:node_filter t2 0);
      let stats = Ralloc.recover t2 in
      Alcotest.(check int) "filtered trace" n stats.reachable_blocks)

let test_conservative_follows_decoy () =
  with_heap (fun t ->
      let n = 20 in
      build_decoy_list t n;
      let t2, _ = Ralloc.crash_and_reopen t in
      ignore (Ralloc.get_root t2 0) (* no filter: conservative *);
      let stats = Ralloc.recover t2 in
      (* conservative scan treats the fake pointers as real: decoy kept *)
      Alcotest.(check int) "conservative trace" (n + 1) stats.reachable_blocks)

let test_flush_counts () =
  with_heap (fun t ->
      Ralloc.reset_stats t;
      ignore (Ralloc.malloc t 64);
      let warm = (Ralloc.stats t).flushes in
      for _ = 1 to 100 do
        let a = Ralloc.malloc t 64 in
        Ralloc.free t a
      done;
      let after = (Ralloc.stats t).flushes in
      Alcotest.(check int) "steady-state malloc/free flushes nothing" warm
        after)

let test_parallel_recovery_equivalent () =
  (* recovery with a parallel rebuild phase must produce the same heap
     state as the sequential one *)
  with_heap (fun t ->
      let n = 2000 in
      let _ = build_list t n in
      for _ = 1 to 500 do
        ignore (Ralloc.malloc t 3000) (* garbage across many superblocks *)
      done;
      let t, _ = Ralloc.crash_and_reopen t in
      let stats = Ralloc.recover ~domains:4 t in
      Alcotest.(check int) "reachable" n stats.reachable_blocks;
      check_list t n;
      (* heap fully usable: refill everything the GC reclaimed *)
      let rec fill k = if Ralloc.malloc t 3000 <> 0 then fill (k + 1) else k in
      Alcotest.(check bool) "capacity recovered" true (fill 0 >= 500))

let test_riv_cross_heap () =
  let a = Ralloc.create ~name:"heapA" ~heap_id:7 ~size:(2 * mb) () in
  let b = Ralloc.create ~name:"heapB" ~heap_id:9 ~size:(2 * mb) () in
  Alcotest.(check int) "heap id A" 7 (Ralloc.heap_id a);
  Alcotest.(check int) "heap id B" 9 (Ralloc.heap_id b);
  let home = Ralloc.malloc a 64 and remote = Ralloc.malloc b 64 in
  Ralloc.store b remote 4242;
  Ralloc.write_riv a ~at:home ~target_heap:b ~target:remote;
  (match Ralloc.read_riv a home with
  | Some (h, va) ->
    Alcotest.(check int) "resolves to heap B" 9 (Ralloc.heap_id h);
    Alcotest.(check int) "value through riv" 4242 (Ralloc.load h va)
  | None -> Alcotest.fail "riv did not resolve");
  (* a RIV word is not an off-holder: conservative GC will not chase it *)
  Alcotest.(check bool) "riv is not a pptr" false
    (Pptr.looks_like_pptr (Ralloc.load a home));
  (* null target *)
  Ralloc.write_riv a ~at:home ~target_heap:b ~target:0;
  Alcotest.(check bool) "null riv" true (Ralloc.read_riv a home = None);
  (* unmapped heap: close B and try to resolve a dangling riv *)
  Ralloc.write_riv a ~at:home ~target_heap:b ~target:remote;
  Ralloc.close b;
  Alcotest.(check bool) "unmapped heap yields None" true
    (Ralloc.read_riv a home = None)

let test_riv_survives_remap () =
  let a = Ralloc.create ~name:"rivA" ~heap_id:21 ~size:(2 * mb) () in
  let b = Ralloc.create ~name:"rivB" ~heap_id:22 ~size:(2 * mb) () in
  let home = Ralloc.malloc a 64 and remote = Ralloc.malloc b 64 in
  Ralloc.store b remote 99;
  Ralloc.flush_block_range b remote 64;
  Ralloc.write_riv a ~at:home ~target_heap:b ~target:remote;
  Ralloc.flush_block_range a home 64;
  Ralloc.fence a;
  Ralloc.fence b;
  Ralloc.set_root a 0 home;
  Ralloc.set_root b 0 remote;
  (* crash BOTH heaps; both remap at new bases; the riv still resolves *)
  let a, _ = Ralloc.crash_and_reopen a in
  let b, _ = Ralloc.crash_and_reopen b in
  ignore (Ralloc.get_root a 0);
  ignore (Ralloc.get_root b 0);
  ignore (Ralloc.recover a);
  ignore (Ralloc.recover b);
  let home = Ralloc.get_root a 0 in
  match Ralloc.read_riv a home with
  | Some (h, va) ->
    Alcotest.(check int) "value after double remap" 99 (Ralloc.load h va)
  | None -> Alcotest.fail "riv lost across remap"

let test_transient_mode_never_flushes () =
  let t = Ralloc.create ~name:"lrm" ~persist:false ~size:(4 * mb) () in
  for _ = 1 to 1000 do
    let a = Ralloc.malloc t 64 in
    Ralloc.free t a
  done;
  let s = Ralloc.stats t in
  Alcotest.(check int) "no flushes" 0 s.flushes;
  Alcotest.(check int) "no fences" 0 s.fences

(* ---------------- census and audit oracles ---------------- *)

(* A known allocation pattern whose census is exact from the geometry:
   100 x 64 B fills part of one size-8 superblock (64 KB / 64 B = 1024
   blocks, zero slack).  flush_thread_cache first so the anchor count,
   not the cache, owns the truth. *)
let test_census_oracle () =
  with_heap (fun t ->
      let vas = Array.init 100 (fun _ -> Ralloc.malloc t 64) in
      Array.iter (fun va -> assert (va <> 0)) vas;
      Ralloc.flush_thread_cache t;
      let c = Ralloc.census t in
      Alcotest.(check int) "allocated blocks" 100 c.Ralloc.Census.allocated_blocks;
      Alcotest.(check int) "allocated bytes" 6400 c.Ralloc.Census.allocated_bytes;
      Alcotest.(check int) "no large blocks" 0 c.Ralloc.Census.large_blocks;
      (match c.Ralloc.Census.classes with
      | [ r ] ->
        Alcotest.(check int) "block size" 64 r.Ralloc.Census.block_size;
        Alcotest.(check int) "one superblock" 1 r.Ralloc.Census.superblocks;
        Alcotest.(check int) "partial" 1 r.Ralloc.Census.partial;
        Alcotest.(check int) "full" 0 r.Ralloc.Census.full;
        Alcotest.(check int) "class allocated" 100 r.Ralloc.Census.allocated_blocks;
        Alcotest.(check int) "class free" 924 r.Ralloc.Census.free_blocks;
        Alcotest.(check int) "no slack at 64 B" 0 r.Ralloc.Census.slack_bytes
      | l -> Alcotest.failf "expected one active class, got %d" (List.length l));
      (* the census and the older Debug.report must tell the same story *)
      let r = Ralloc.Debug.report t in
      Alcotest.(check int) "report agrees" 100 r.Ralloc.Debug.total_allocated_blocks;
      (* occupancy/internal_frag relations hold by definition *)
      Alcotest.(check (float 1e-9)) "occupancy"
        (float_of_int c.Ralloc.Census.allocated_bytes
        /. float_of_int c.Ralloc.Census.provisioned_bytes)
        c.Ralloc.Census.occupancy;
      Alcotest.(check (float 1e-9)) "no internal frag" 0.
        c.Ralloc.Census.internal_frag)

let test_census_large_blocks () =
  with_heap (fun t ->
      let va = Ralloc.malloc t 100_000 in
      (* 100000 B -> two 64 KB superblocks *)
      assert (va <> 0);
      let c = Ralloc.census t in
      Alcotest.(check int) "one large block" 1 c.Ralloc.Census.large_blocks;
      Alcotest.(check int) "two superblocks" 2 c.Ralloc.Census.large_superblocks;
      Ralloc.free t va;
      let c = Ralloc.census t in
      Alcotest.(check int) "freed" 0 c.Ralloc.Census.large_blocks)

(* The audit against a known reachability pattern: a rooted list is
   reachable, stray mallocs are leaks; freeing them restores the
   recoverability criterion, and so does an actual recovery. *)
let test_audit_oracle () =
  with_heap (fun t ->
      let n = 50 in
      let _ = build_list t n in
      let leaks = Array.init 5 (fun _ -> Ralloc.malloc t 64) in
      Array.iter (fun va -> assert (va <> 0)) leaks;
      Ralloc.flush_thread_cache t;
      let a = Ralloc.audit t in
      Alcotest.(check int) "reachable" n a.Ralloc.Audit.reachable_blocks;
      Alcotest.(check int) "allocated" (n + 5) a.Ralloc.Audit.allocated_blocks;
      Alcotest.(check int) "leaked" 5 a.Ralloc.Audit.leaked_blocks;
      Alcotest.(check int) "leaked bytes" (5 * 64) a.Ralloc.Audit.leaked_bytes;
      Alcotest.(check int) "orphaned" 0 a.Ralloc.Audit.orphaned_blocks;
      Alcotest.(check bool) "recoverable" true a.Ralloc.Audit.recoverable;
      Alcotest.(check bool) "not consistent" false a.Ralloc.Audit.consistent;
      Alcotest.(check int) "leak list capped but complete here" 5
        (List.length a.Ralloc.Audit.leaked);
      Array.iter (Ralloc.free t) leaks;
      Ralloc.flush_thread_cache t;
      let a = Ralloc.audit t in
      Alcotest.(check bool) "consistent after frees" true
        a.Ralloc.Audit.consistent)

let test_audit_after_recovery () =
  with_heap (fun t ->
      let n = 80 in
      let _ = build_list t n in
      for _ = 1 to 30 do
        ignore (Ralloc.malloc t 64)
      done;
      let t, status = Ralloc.crash_and_reopen t in
      Alcotest.(check bool) "dirty" true (status = Ralloc.Dirty_restart);
      (* pre-recovery: read-only, must not touch the image, and must
         still be recoverable *)
      let pre = Ralloc.audit t in
      Alcotest.(check bool) "pre recoverable" true pre.Ralloc.Audit.recoverable;
      Alcotest.(check bool) "still dirty" true (Ralloc.is_dirty t);
      ignore (Ralloc.recover t);
      let post = Ralloc.audit t in
      Alcotest.(check bool) "post consistent" true post.Ralloc.Audit.consistent;
      Alcotest.(check int) "post reachable" n post.Ralloc.Audit.reachable_blocks;
      Alcotest.(check int) "post allocated" n post.Ralloc.Audit.allocated_blocks;
      (* census agrees with the audit after recovery *)
      let c = Ralloc.census t in
      Alcotest.(check int) "census agrees" n c.Ralloc.Census.allocated_blocks)

let test_audit_max_list_cap () =
  with_heap (fun t ->
      for _ = 1 to 20 do
        ignore (Ralloc.malloc t 64)
      done;
      Ralloc.flush_thread_cache t;
      let a = Ralloc.audit ~max_list:4 t in
      Alcotest.(check int) "counts exact" 20 a.Ralloc.Audit.leaked_blocks;
      Alcotest.(check int) "list capped" 4 (List.length a.Ralloc.Audit.leaked))

(* Model-based random testing: interpret a random malloc/free program
   against a reference model; the allocator must never hand out
   overlapping blocks, and writes through one block must never disturb
   another. *)
let prop_random_program =
  let gen =
    QCheck2.Gen.(list_size (int_range 10 400) (pair (int_range 0 14336) bool))
  in
  QCheck2.Test.make ~name:"random malloc/free program" ~count:40 gen
    (fun program ->
      let t = Ralloc.create ~name:"model" ~size:(16 * mb) () in
      let live : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
      (* va -> (stamp, size) *)
      let stamp = ref 0 in
      let ok = ref true in
      let check_no_overlap va size =
        Hashtbl.iter
          (fun va' (_, size') ->
            if va < va' + size' && va' < va + size then ok := false)
          live
      in
      List.iter
        (fun (size, do_free) ->
          if do_free && Hashtbl.length live > 0 then begin
            (* free the oldest live block, verifying its content first *)
            let victim, (st, _) =
              Hashtbl.fold
                (fun va (st, sz) (bva, (bst, bsz)) ->
                  if st < bst then (va, (st, sz)) else (bva, (bst, bsz)))
                live
                (0, (max_int, 0))
            in
            if Ralloc.load t victim <> st then ok := false;
            Hashtbl.remove live victim;
            Ralloc.free t victim
          end
          else begin
            let va = Ralloc.malloc t size in
            if va <> 0 then begin
              let usable = Ralloc.usable_size t va in
              if usable < size then ok := false;
              check_no_overlap va usable;
              incr stamp;
              Ralloc.store t va !stamp;
              Hashtbl.add live va (!stamp, usable)
            end
          end)
        program;
      (* all remaining contents intact *)
      Hashtbl.iter
        (fun va (st, _) -> if Ralloc.load t va <> st then ok := false)
        live;
      !ok)

(* The lazy-adoption accounting invariant: at any quiescent point, every
   block the metadata counts as allocated is either application-live or
   held by exactly ONE compartment of the calling domain's caches — the
   LIFO array, the owned chain, or the owned run ([Debug.cached_blocks]
   concatenates all three, so a duplicate there means a block is in two
   compartments at once).  And after [flush_thread_cache] the caches hold
   nothing and the metadata agrees with the application exactly. *)
let prop_adoption_invariant =
  let gen =
    QCheck2.Gen.(list_size (int_range 10 300) (pair (int_range 1 14336) bool))
  in
  QCheck2.Test.make ~name:"lazy-adoption accounting invariant" ~count:40 gen
    (fun program ->
      let t = Ralloc.create ~name:"adoptinv" ~size:(16 * mb) () in
      let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun (size, do_free) ->
          match (do_free, !order) with
          | true, va :: rest ->
            order := rest;
            Hashtbl.remove live va;
            Ralloc.free t va
          | _ ->
            let va = Ralloc.malloc t size in
            if va <> 0 then begin
              Hashtbl.add live va ();
              order := va :: !order
            end)
        program;
      let ok = ref true in
      let cached = Ralloc.Debug.cached_blocks t in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun va ->
          if Hashtbl.mem seen va then ok := false (* in two compartments *);
          Hashtbl.replace seen va ();
          if Hashtbl.mem live va then ok := false (* cached AND live *);
          if not (Ralloc.valid_block t va) then ok := false)
        cached;
      let c = Ralloc.census t in
      if
        c.Ralloc.Census.allocated_blocks
        <> Hashtbl.length live + List.length cached
      then ok := false (* a block in NO compartment (or double-counted) *);
      Ralloc.flush_thread_cache t;
      if Ralloc.Debug.cached_blocks t <> [] then ok := false;
      let c = Ralloc.census t in
      if c.Ralloc.Census.allocated_blocks <> Hashtbl.length live then
        ok := false;
      !ok)

let () =
  Alcotest.run "ralloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
          Alcotest.test_case "distinct addresses" `Quick test_distinct_addresses;
          Alcotest.test_case "no overlap mixed sizes" `Quick
            test_no_overlap_mixed_sizes;
          Alcotest.test_case "usable size" `Quick test_usable_size;
          Alcotest.test_case "free reuse" `Quick test_free_reuse;
          Alcotest.test_case "large alloc" `Quick test_large_alloc;
          Alcotest.test_case "out of memory" `Quick test_oom;
        ] );
      ( "roots",
        [
          Alcotest.test_case "set/get root" `Quick test_roots;
          Alcotest.test_case "pptr io" `Quick test_pptr_io;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recover after crash" `Quick
            test_recover_after_crash;
          Alcotest.test_case "live blocks not reallocated" `Quick
            test_recovered_blocks_not_reallocated;
          Alcotest.test_case "crash leak reclaimed" `Quick
            test_crash_leak_then_gc_reclaims;
          Alcotest.test_case "recovery with eviction noise" `Quick
            test_recovery_with_eviction_noise;
          Alcotest.test_case "clean restart via files" `Quick
            test_clean_restart_via_files;
          Alcotest.test_case "restart RSS follows the live set" `Quick
            test_restart_rss_follows_live_set;
          Alcotest.test_case "position independence" `Quick
            test_position_independence;
          Alcotest.test_case "filter function" `Quick test_filter_function;
          Alcotest.test_case "conservative follows decoy" `Quick
            test_conservative_follows_decoy;
          Alcotest.test_case "parallel recovery" `Quick
            test_parallel_recovery_equivalent;
        ] );
      ( "riv",
        [
          Alcotest.test_case "cross-heap pointers" `Quick test_riv_cross_heap;
          Alcotest.test_case "riv survives remap" `Quick test_riv_survives_remap;
        ] );
      ( "persistence-cost",
        [
          Alcotest.test_case "steady state flush-free" `Quick test_flush_counts;
          Alcotest.test_case "transient mode never flushes" `Quick
            test_transient_mode_never_flushes;
        ] );
      ( "census-audit",
        [
          Alcotest.test_case "census oracle 100x64B" `Quick test_census_oracle;
          Alcotest.test_case "census large blocks" `Quick
            test_census_large_blocks;
          Alcotest.test_case "audit oracle leaks" `Quick test_audit_oracle;
          Alcotest.test_case "audit after recovery" `Quick
            test_audit_after_recovery;
          Alcotest.test_case "audit max_list cap" `Quick test_audit_max_list_cap;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_random_program;
          QCheck_alcotest.to_alcotest prop_adoption_invariant;
        ] );
    ]
