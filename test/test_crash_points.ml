(* Failure-injection tests: crash the heap at randomized points (with and
   without cache-eviction noise) and verify that recovery restores exactly
   the durably published state; plus the partial-crash / quiescent-GC
   scenario of paper §4.5.2.  Every scenario runs on an in-memory heap
   and again on a file-backed one, whose crash drops the private volatile
   view's pages rather than copying the durable view back. *)

let mb = 1 lsl 20

(* How a scenario gets its heaps: [make] builds a fresh one and [finish]
   disposes of the scenario's last handle — for a file-backed heap a clean
   close, which exercises the bounded write-back too. *)
type backing = {
  label : string;
  make : name:string -> size:int -> Ralloc.t;
  finish : Ralloc.t -> unit;
}

let in_memory =
  {
    label = "";
    make = (fun ~name ~size -> Ralloc.create ~name ~size ());
    finish = ignore;
  }

(* The heap files live in one temporary directory, removed at exit. *)
let file_backed =
  let dir =
    lazy
      (let dir = Filename.temp_dir "crash_points" "" in
       at_exit (fun () ->
           Array.iter
             (fun f -> Sys.remove (Filename.concat dir f))
             (Sys.readdir dir);
           Sys.rmdir dir);
       dir)
  in
  let seq = ref 0 in
  {
    label = "file: ";
    make =
      (fun ~name ~size ->
        incr seq;
        let path =
          Filename.concat (Lazy.force dir) (Printf.sprintf "%s-%d" name !seq)
        in
        let heap, status = Ralloc.init ~path ~size () in
        assert (status = Ralloc.Fresh);
        heap);
    finish = Ralloc.close;
  }

(* Durably linearizable pushes: after a crash at ANY point, the recovered
   stack must contain exactly the pushes whose push() had returned. *)
let test_random_crash_points bk =
  let rng = Random.State.make [| 2026 |] in
  for round = 1 to 15 do
    let heap = bk.make ~name:"crashpt" ~size:(8 * mb) in
    if round mod 2 = 0 then Ralloc.set_eviction_rate heap 0.2;
    let stack = Dstruct.Pstack.create heap ~root:0 in
    let planned = 50 + Random.State.int rng 2000 in
    let completed = ref 0 in
    (try
       for i = 1 to planned do
         ignore (Dstruct.Pstack.push stack i);
         completed := i;
         if Random.State.int rng planned < 3 then raise Exit
       done
     with Exit -> ());
    let heap, status = Ralloc.crash_and_reopen heap in
    Alcotest.(check bool) "dirty" true (status = Ralloc.Dirty_restart);
    let stack = Dstruct.Pstack.attach heap ~root:0 in
    let stats = Ralloc.recover heap in
    Alcotest.(check int)
      (Printf.sprintf "round %d: %d completed pushes all recovered" round
         !completed)
      !completed
      (Dstruct.Pstack.length stack);
    Alcotest.(check int) "reachable = nodes + header" (!completed + 1)
      stats.reachable_blocks;
    (* contents are exactly 1..completed, top down *)
    let expect = ref !completed in
    Dstruct.Pstack.iter
      (fun v ->
        Alcotest.(check int) "payload" !expect v;
        decr expect)
      stack;
    bk.finish heap
  done

(* Crash between "allocate" and "attach": the block must be collected.
   Crash between "detach" and "free": the block must also be collected. *)
let test_alloc_attach_window bk =
  let heap = bk.make ~name:"window" ~size:(4 * mb) in
  (* attached block *)
  let attached = Ralloc.malloc heap 64 in
  Ralloc.store heap attached 1;
  Ralloc.flush_block_range heap attached 64;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 attached;
  (* allocated but never attached (crash hit before the attach) *)
  let dangling = Ralloc.malloc heap 64 in
  Ralloc.store heap dangling 2;
  Ralloc.flush_block_range heap dangling 64;
  Ralloc.fence heap;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root heap 0);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "only the attached block survives" 1
    stats.reachable_blocks;
  bk.finish heap

let test_detach_free_window bk =
  let heap = bk.make ~name:"window2" ~size:(4 * mb) in
  let a = Ralloc.malloc heap 64 and b = Ralloc.malloc heap 64 in
  (* a -> b, both attached *)
  Ralloc.write_ptr heap ~at:a ~target:b;
  Ralloc.flush_block_range heap a 64;
  Ralloc.flush_block_range heap b 64;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 a;
  (* detach b durably, then "crash" before free(b) runs *)
  Ralloc.write_ptr heap ~at:a ~target:0;
  Ralloc.flush heap a;
  Ralloc.fence heap;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root heap 0);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "detached block is collected" 1 stats.reachable_blocks;
  bk.finish heap

(* A crash exactly between the superblock-provisioning flush and any use:
   the freshly provisioned superblock is unreachable and must be
   reclaimed whole. *)
let test_crash_after_provisioning bk =
  let heap = bk.make ~name:"prov" ~size:(4 * mb) in
  (* provision superblocks for several classes, attach nothing *)
  List.iter (fun s -> ignore (Ralloc.malloc heap s)) [ 8; 100; 1000; 14000 ];
  let heap, _ = Ralloc.crash_and_reopen heap in
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "nothing reachable" 0 stats.reachable_blocks;
  Alcotest.(check bool) "all superblocks reclaimed" true
    (stats.reclaimed_superblocks >= 4);
  bk.finish heap

(* Per-class (allocated, free) block counts from the census, summed over
   every superblock of the class serving [size] — the oracle the adoption
   crash tests below check recovery against. *)
let class_counts heap size =
  let c = Ralloc.census heap in
  let cls = Ralloc.Size_class.of_size size in
  List.fold_left
    (fun (a, f) (r : Ralloc.Census.class_stats) ->
      if r.size_class = cls then (a + r.allocated_blocks, f + r.free_blocks)
      else (a, f))
    (0, 0) c.Ralloc.Census.classes

(* Crash while a refill's lazily-adopted chain is outstanding: the
   adopting domain holds a partial superblock's whole free list as a
   transient linked chain (the anchor says Full, count 0 — every block
   accounted to the owner).  The crash destroys the chain; recovery must
   hand every unreached block back to the superblock's free list. *)
let test_crash_with_adopted_chain bk =
  let heap = bk.make ~name:"adoptchain" ~size:(4 * mb) in
  (* build a partial superblock: 100 blocks out, 1 attached, 99 returned *)
  let blocks = Array.init 100 (fun _ -> Ralloc.malloc heap 512) in
  Ralloc.store heap blocks.(0) 1;
  Ralloc.flush_block_range heap blocks.(0) 512;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 blocks.(0);
  for i = 1 to 99 do
    Ralloc.free heap blocks.(i)
  done;
  Ralloc.flush_thread_cache heap;
  (* this malloc adopts the partial superblock's whole 127-block free
     list with one CAS; the chain is transient state *)
  let kept = Ralloc.malloc heap 512 in
  Ralloc.store heap kept 2;
  Ralloc.flush_block_range heap kept 512;
  Ralloc.fence heap;
  Ralloc.set_root heap 1 kept;
  let heap, status = Ralloc.crash_and_reopen heap in
  Alcotest.(check bool) "dirty" true (status = Ralloc.Dirty_restart);
  ignore (Ralloc.get_root heap 0);
  ignore (Ralloc.get_root heap 1);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "both attached blocks survive" 2
    stats.reachable_blocks;
  let alloc, free = class_counts heap 512 in
  Alcotest.(check int) "exactly the two attached blocks allocated" 2 alloc;
  Alcotest.(check int) "the lost chain is free again" 126 free;
  bk.finish heap

(* Crash while a freshly provisioned superblock is held as an owned
   sequential run (no link words were ever written): recovery must
   rebuild the free list the run never materialized. *)
let test_crash_with_owned_run bk =
  let heap = bk.make ~name:"ownrun" ~size:(4 * mb) in
  (* adopts a fresh 32-block superblock as a run; one block handed out *)
  let kept = Ralloc.malloc heap 2048 in
  Ralloc.store heap kept 1;
  Ralloc.flush_block_range heap kept 2048;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 kept;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root heap 0);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "attached block survives" 1 stats.reachable_blocks;
  let alloc, free = class_counts heap 2048 in
  Alcotest.(check int) "run blocks are not allocated" 1 alloc;
  Alcotest.(check int) "run blocks rebuilt as free" 31 free;
  bk.finish heap

(* Crash in a workload that constantly crosses the splice boundary: the
   14336 B class caches only 4 blocks, so every other free evicts half
   the cache and splices pre-linked chains back — the crash lands with
   splice-published free lists, a part-consumed adopted chain, and
   cached blocks all in flight at once. *)
let test_crash_under_eviction_churn bk =
  let heap = bk.make ~name:"splicechurn" ~size:(8 * mb) in
  let rng = Random.State.make [| 7 |] in
  let slots = Array.make 32 0 in
  for _ = 1 to 2000 do
    let i = Random.State.int rng 32 in
    if slots.(i) = 0 then slots.(i) <- Ralloc.malloc heap 14000
    else begin
      Ralloc.free heap slots.(i);
      slots.(i) <- 0
    end
  done;
  (* durably attach one survivor, then crash mid-churn *)
  let kept = ref 0 in
  Array.iter (fun va -> if !kept = 0 && va <> 0 then kept := va) slots;
  Alcotest.(check bool) "a live block exists" true (!kept <> 0);
  Ralloc.store heap !kept 42;
  Ralloc.flush_block_range heap !kept 14336;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 !kept;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root heap 0);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "only the attached block survives" 1
    stats.reachable_blocks;
  let post = Ralloc.audit heap in
  Alcotest.(check bool) "post-recovery audit consistent" true
    post.Ralloc.Audit.consistent;
  (* every unattached block is reusable again *)
  let alloc, _ = class_counts heap 14000 in
  Alcotest.(check int) "one block allocated" 1 alloc;
  bk.finish heap

(* Partial crash (paper §4.5.2): one "process" (domain) dies holding
   blocks in its thread cache; survivors quiesce (flush their caches) and
   run a stop-the-world GC on the LIVE heap, without a system crash.
   The dead domain's cached blocks must come back. *)
let test_partial_crash_quiescent_gc bk =
  let heap = bk.make ~name:"partial" ~size:(2 * mb) in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  (* the dying domain: allocates a lot, attaches some, dies without
     flushing its thread cache *)
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 200 do
          ignore (Dstruct.Pstack.push stack i)
        done;
        (* blocks mallocated and freed stay in this domain's cache *)
        let leaked = Array.init 500 (fun _ -> Ralloc.malloc heap 512) in
        Array.iter (Ralloc.free heap) leaked
        (* dies here: cached blocks are stranded *))
  in
  Domain.join d;
  (* survivor quiesces and garbage-collects in place *)
  Ralloc.flush_thread_cache heap;
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "stack survives in-place GC" 200
    (Dstruct.Pstack.length (Dstruct.Pstack.attach heap ~root:0));
  Alcotest.(check int) "reachable" 201 stats.reachable_blocks;
  (* full capacity is available again: fill the heap *)
  let rec fill n = if Ralloc.malloc heap 512 <> 0 then fill (n + 1) else n in
  Alcotest.(check bool) "stranded blocks recovered" true (fill 0 > 3000);
  bk.finish heap

(* Partial crash stranding an adoption: the dying domain holds a whole
   freshly provisioned superblock as its private run.  The survivor's
   quiescent GC must reclaim all of it — the anchor says Full, so only
   the trace knows the blocks are garbage. *)
let test_partial_crash_stranded_run bk =
  let heap = bk.make ~name:"strandedrun" ~size:(2 * mb) in
  let d =
    Domain.spawn (fun () ->
        (* adopts a 64-block superblock as an owned run, takes one block,
           frees it into the cache array, and dies flushing nothing *)
        let va = Ralloc.malloc heap 1024 in
        Ralloc.free heap va)
  in
  Domain.join d;
  Ralloc.flush_thread_cache heap;
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "nothing reachable" 0 stats.reachable_blocks;
  Alcotest.(check bool) "stranded superblock reclaimed" true
    (stats.reclaimed_superblocks >= 1);
  (* its capacity is fully available again *)
  let rec fill n = if Ralloc.malloc heap 1024 <> 0 then fill (n + 1) else n in
  Alcotest.(check bool) "all blocks reusable" true (fill 0 > 1500);
  bk.finish heap

(* Crash with posted-but-undrained flushes (pipelined pmem): a push is in
   flight — its node is written and its lines have been flushed (posted
   into the write-combining set) but no fence has drained them.  The
   crash must discard the posted write-backs: recovery sees only the 100
   durable pushes, collects the half-pushed node, and the heap stays
   fully usable. *)
let test_crash_mid_drain bk =
  let heap = bk.make ~name:"middrain" ~size:(4 * mb) in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  for i = 1 to 100 do
    ignore (Dstruct.Pstack.push stack i)
  done;
  (* half a push by hand: allocate, initialize, post the flush — and
     crash before any fence drains it or the root CAS happens *)
  let node = Ralloc.malloc heap 16 in
  Ralloc.store heap node 4242;
  Ralloc.flush_block_range heap node 16;
  (* NO fence: the lines sit in the domain's pending set *)
  let heap, status = Ralloc.crash_and_reopen heap in
  Alcotest.(check bool) "dirty" true (status = Ralloc.Dirty_restart);
  let stack = Dstruct.Pstack.attach heap ~root:0 in
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "only completed pushes recovered" 100
    (Dstruct.Pstack.length stack);
  Alcotest.(check int) "half-pushed node collected" 101
    stats.reachable_blocks;
  (* the heap still works after discarding the posted flushes *)
  ignore (Dstruct.Pstack.push stack 101);
  Alcotest.(check int) "push after recovery" 101
    (Dstruct.Pstack.length stack);
  bk.finish heap

(* Repeated crash/recover cycles must not corrupt or leak. *)
let test_repeated_crash_cycles bk =
  let heap = ref (bk.make ~name:"cycles" ~size:(4 * mb)) in
  let stack = ref (Dstruct.Pstack.create !heap ~root:0) in
  let total = ref 0 in
  for cycle = 1 to 10 do
    for i = 1 to 100 do
      ignore (Dstruct.Pstack.push !stack ((cycle * 1000) + i))
    done;
    total := !total + 100;
    (* leak some garbage every cycle *)
    for _ = 1 to 50 do
      ignore (Ralloc.malloc !heap 2048)
    done;
    let h, _ = Ralloc.crash_and_reopen !heap in
    heap := h;
    stack := Dstruct.Pstack.attach h ~root:0;
    ignore (Ralloc.recover h);
    Alcotest.(check int)
      (Printf.sprintf "cycle %d length" cycle)
      !total
      (Dstruct.Pstack.length !stack)
  done;
  bk.finish !heap

(* Recovery itself can crash; recovery must be idempotent. *)
let test_crash_during_recovery_retry bk =
  let heap = bk.make ~name:"recrash" ~size:(4 * mb) in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  for i = 1 to 300 do
    ignore (Dstruct.Pstack.push stack i)
  done;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Dstruct.Pstack.attach heap ~root:0);
  ignore (Ralloc.recover heap);
  (* crash again immediately after recovery (dirty flag is still set
     because close() never ran) and recover a second time *)
  let heap, status = Ralloc.crash_and_reopen heap in
  Alcotest.(check bool) "still dirty" true (status = Ralloc.Dirty_restart);
  let stack = Dstruct.Pstack.attach heap ~root:0 in
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "second recovery finds the same state" 301
    stats.reachable_blocks;
  Alcotest.(check int) "stack intact" 300 (Dstruct.Pstack.length stack);
  bk.finish heap

(* Runs last: under PCHECK=1 every crash scenario above executed with the
   persistency checker enabled, and recovery must never have read data
   that was not durable at its crash — zero violations, or the whole
   checker report goes to stderr.  A silent no-op in a plain run. *)
let test_pcheck_violation_free () =
  if Pmem.Check.enabled () then begin
    let t = Pmem.Check.totals () in
    if t.Pmem.Check.t_violations > 0 then begin
      Pmem.Check.report Format.err_formatter;
      Alcotest.failf "%d persistency violations across the crash suite"
        t.Pmem.Check.t_violations
    end
  end

(* Each scenario once per backing, named like test_server's per-backend
   evloop cases; the in-memory cases keep their plain names. *)
let cases group tests =
  ( group,
    List.concat_map
      (fun bk ->
        List.map
          (fun (name, speed, f) ->
            Alcotest.test_case (bk.label ^ name) speed (fun () -> f bk))
          tests)
      [ in_memory; file_backed ] )

let () =
  Alcotest.run "crash_points"
    [
      cases "random"
        [ ("randomized crash points", `Slow, test_random_crash_points) ];
      cases "windows"
        [
          ("alloc-attach window", `Quick, test_alloc_attach_window);
          ("detach-free window", `Quick, test_detach_free_window);
          ("crash after provisioning", `Quick, test_crash_after_provisioning);
          ("crash mid-drain", `Quick, test_crash_mid_drain);
        ];
      cases "adoption"
        [
          ("crash with adopted chain", `Quick, test_crash_with_adopted_chain);
          ("crash with owned run", `Quick, test_crash_with_owned_run);
          ( "crash under eviction churn",
            `Quick,
            test_crash_under_eviction_churn );
        ];
      cases "partial"
        [
          ( "quiescent stop-the-world GC",
            `Quick,
            test_partial_crash_quiescent_gc );
          ("stranded owned run", `Quick, test_partial_crash_stranded_run);
        ];
      cases "cycles"
        [
          ("repeated crash/recover", `Quick, test_repeated_crash_cycles);
          ("crash during recovery", `Quick, test_crash_during_recovery_retry);
        ];
      ( "pcheck",
        [
          Alcotest.test_case "suite is violation-free under PCHECK" `Quick
            test_pcheck_violation_free;
        ] );
    ]
