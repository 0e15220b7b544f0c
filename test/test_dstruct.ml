(* Tests for the data-structure layer: Treiber stack, M&S queues,
   Natarajan-Mittal BST, red-black tree, hash map — including crash
   recovery of the persistent structures and model-based property tests. *)

let mb = 1 lsl 20

let with_heap ?(size = 16 * mb) f = f (Ralloc.create ~name:"ds" ~size ())

(* ------------------------- Pstack ------------------------- *)

let test_pstack_basic () =
  with_heap (fun h ->
      let s = Dstruct.Pstack.create h ~root:0 in
      Alcotest.(check bool) "empty" true (Dstruct.Pstack.is_empty s);
      for i = 1 to 100 do
        Alcotest.(check bool) "push" true (Dstruct.Pstack.push s i)
      done;
      Alcotest.(check int) "length" 100 (Dstruct.Pstack.length s);
      Alcotest.(check (option int)) "peek" (Some 100) (Dstruct.Pstack.peek s);
      for i = 100 downto 1 do
        Alcotest.(check (option int)) "pop LIFO" (Some i)
          (Dstruct.Pstack.pop_free s)
      done;
      Alcotest.(check (option int)) "pop empty" None (Dstruct.Pstack.pop_free s))

let test_pstack_crash_recovery () =
  with_heap (fun h ->
      let s = Dstruct.Pstack.create h ~root:0 in
      for i = 1 to 1000 do
        ignore (Dstruct.Pstack.push s i)
      done;
      let h, _ = Ralloc.crash_and_reopen h in
      let s = Dstruct.Pstack.attach h ~root:0 in
      let stats = Ralloc.recover h in
      (* 1000 nodes + 1 header block *)
      Alcotest.(check int) "reachable" 1001 stats.reachable_blocks;
      Alcotest.(check int) "length preserved" 1000 (Dstruct.Pstack.length s);
      (* contents preserved in LIFO order *)
      for i = 1000 downto 990 do
        Alcotest.(check (option int)) "pop" (Some i) (Dstruct.Pstack.pop_free s)
      done)

let test_pstack_concurrent_push () =
  with_heap (fun h ->
      let s = Dstruct.Pstack.create h ~root:0 in
      let threads = 4 and per = 2000 in
      let ds =
        List.init threads (fun tid ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  ignore (Dstruct.Pstack.push s ((tid * per) + i))
                done;
                Ralloc.flush_thread_cache h))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "all pushed" (threads * per)
        (Dstruct.Pstack.length s);
      (* every element present exactly once *)
      let seen = Array.make (threads * per) false in
      Dstruct.Pstack.iter
        (fun v ->
          if seen.(v) then Alcotest.failf "duplicate element %d" v;
          seen.(v) <- true)
        s;
      Array.iteri
        (fun i b -> if not b then Alcotest.failf "missing element %d" i)
        seen)

(* ------------------------- Msqueue (SPSC) ------------------------- *)

let test_msqueue_spsc () =
  let a = Baselines.Allocators.make "ralloc" ~size:(16 * mb) in
  let q = Dstruct.Msqueue.create a in
  let n = 20_000 in
  let sum = ref 0 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Dstruct.Msqueue.enqueue q i) do
            Domain.cpu_relax ()
          done
        done;
        Alloc_iface.thread_exit a)
  in
  let got = ref 0 in
  while !got < n do
    match Dstruct.Msqueue.dequeue q with
    | Some v ->
      sum := !sum + v;
      incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check int) "sum of 1..n" (n * (n + 1) / 2) !sum;
  Alcotest.(check bool) "empty" true (Dstruct.Msqueue.is_empty q)

(* Every allocator the Prod-con benchmark runs the queue on keeps FIFO
   order, and recycles the nodes the consumer frees: 100k single-item
   round trips on a 1 MB heap would run out if dequeue leaked. *)
let test_msqueue_fifo name () =
  let a = Baselines.Allocators.make name ~size:mb in
  let q = Dstruct.Msqueue.create a in
  Alcotest.(check bool) "empty" true (Dstruct.Msqueue.is_empty q);
  for i = 1 to 200 do
    Alcotest.(check bool) "enqueue" true (Dstruct.Msqueue.enqueue q i)
  done;
  for i = 1 to 200 do
    Alcotest.(check (option int)) "dequeue FIFO" (Some i)
      (Dstruct.Msqueue.dequeue q)
  done;
  Alcotest.(check (option int)) "empty again" None (Dstruct.Msqueue.dequeue q);
  for i = 1 to 100_000 do
    if not (Dstruct.Msqueue.enqueue q i) then
      Alcotest.failf "out of memory at round trip %d" i;
    Alcotest.(check (option int)) "round trip" (Some i)
      (Dstruct.Msqueue.dequeue q)
  done;
  Alloc_iface.thread_exit a

(* ------------------------- Nmtree ------------------------- *)

let test_nmtree_basic () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create ~reclaim:true h ~root:0 in
      Alcotest.(check int) "empty" 0 (Dstruct.Nmtree.size t);
      Alcotest.(check bool) "insert 5" true (Dstruct.Nmtree.insert t 5 50);
      Alcotest.(check bool) "insert 3" true (Dstruct.Nmtree.insert t 3 30);
      Alcotest.(check bool) "insert 8" true (Dstruct.Nmtree.insert t 8 80);
      Alcotest.(check bool) "dup insert" false (Dstruct.Nmtree.insert t 5 99);
      Alcotest.(check (option int)) "find 3" (Some 30) (Dstruct.Nmtree.find t 3);
      Alcotest.(check (option int)) "find 9" None (Dstruct.Nmtree.find t 9);
      Alcotest.(check int) "size" 3 (Dstruct.Nmtree.size t);
      Dstruct.Nmtree.check_invariants t;
      Alcotest.(check bool) "delete 3" true (Dstruct.Nmtree.delete t 3);
      Alcotest.(check bool) "delete absent" false (Dstruct.Nmtree.delete t 3);
      Alcotest.(check int) "size after delete" 2 (Dstruct.Nmtree.size t);
      Dstruct.Nmtree.check_invariants t)

let test_nmtree_vs_model () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create ~reclaim:true h ~root:0 in
      let model = Hashtbl.create 256 in
      let rng = Random.State.make [| 42 |] in
      for i = 1 to 5000 do
        let k = Random.State.int rng 500 in
        match Random.State.int rng 4 with
        | 0 | 1 ->
          let added = Dstruct.Nmtree.insert t k k in
          Alcotest.(check bool) "insert agrees" (not (Hashtbl.mem model k)) added;
          if added then Hashtbl.replace model k k
        | 2 ->
          let added = Dstruct.Nmtree.set t k i in
          Alcotest.(check bool) "set agrees" (not (Hashtbl.mem model k)) added;
          Hashtbl.replace model k i
        | _ ->
          let removed = Dstruct.Nmtree.delete t k in
          Alcotest.(check bool) "delete agrees" (Hashtbl.mem model k) removed;
          Hashtbl.remove model k
      done;
      Dstruct.Nmtree.check_invariants t;
      Alcotest.(check int) "size agrees" (Hashtbl.length model)
        (Dstruct.Nmtree.size t);
      Hashtbl.iter
        (fun k v ->
          Alcotest.(check (option int))
            (Printf.sprintf "key %d" k)
            (Some v) (Dstruct.Nmtree.find t k))
        model)

let test_nmtree_concurrent_insert () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create h ~root:0 in
      let threads = 4 and per = 1000 in
      let ds =
        List.init threads (fun tid ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  ignore (Dstruct.Nmtree.insert t ((i * threads) + tid) i)
                done;
                Ralloc.flush_thread_cache h))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "all inserted" (threads * per)
        (Dstruct.Nmtree.size t);
      Dstruct.Nmtree.check_invariants t)

let test_nmtree_concurrent_mixed () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create h ~root:0 in
      (* pre-populate evens *)
      for i = 0 to 999 do
        ignore (Dstruct.Nmtree.insert t (2 * i) i)
      done;
      let ds =
        List.init 4 (fun tid ->
            Domain.spawn (fun () ->
                let rng = Random.State.make [| tid |] in
                for _ = 1 to 2000 do
                  let k = Random.State.int rng 2000 in
                  if Random.State.bool rng then
                    ignore (Dstruct.Nmtree.insert t k k)
                  else ignore (Dstruct.Nmtree.delete t k)
                done;
                Ralloc.flush_thread_cache h))
      in
      List.iter Domain.join ds;
      Dstruct.Nmtree.check_invariants t)

let test_nmtree_crash_recovery () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create h ~root:0 in
      let keys = List.init 800 (fun i -> (i * 37) mod 10_000) in
      let inserted =
        List.filter (fun k -> Dstruct.Nmtree.insert t k (k * 2)) keys
      in
      let h, _ = Ralloc.crash_and_reopen h in
      let t = Dstruct.Nmtree.attach h ~root:0 in
      ignore (Ralloc.recover h);
      Dstruct.Nmtree.check_invariants t;
      Alcotest.(check int) "size preserved"
        (List.length inserted)
        (Dstruct.Nmtree.size t);
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "key %d" k)
            (Some (k * 2))
            (Dstruct.Nmtree.find t k))
        inserted;
      (* tree still fully functional after recovery *)
      Alcotest.(check bool) "insert after recovery" true
        (Dstruct.Nmtree.insert t 10_001 1);
      Alcotest.(check bool) "delete after recovery" true
        (Dstruct.Nmtree.delete t 10_001))

(* A delete takes effect at its flag CAS.  Here the unlinking swing's
   release fence is deferred (group commit) and the crash lands before the
   drain, so recovery finds the leaf still linked behind a durable flag:
   the key must read as absent from the first lookup on, not linger until
   some later operation happens to finish the unlink.  The sibling edge's
   tag is never persisted, so the sweep also crashes random trees under
   EBR and eviction, then works the victim and both its neighbours: stale
   flagged or untagged edges left by the crash must clean up. *)
let crash_after_flag_fixed () =
  with_heap (fun h ->
      let t = Dstruct.Nmtree.create h ~root:0 in
      List.iter (fun k -> ignore (Dstruct.Nmtree.insert t k k)) [ 10; 20; 30 ];
      Pmem.set_fence_deferral true;
      Alcotest.(check bool) "delete 20" true (Dstruct.Nmtree.delete t 20);
      let h, _ = Ralloc.crash_and_reopen h in
      Pmem.set_fence_deferral false;
      let t = Dstruct.Nmtree.attach h ~root:0 in
      ignore (Ralloc.recover h);
      Alcotest.(check (option int)) "find 20" None (Dstruct.Nmtree.find t 20);
      Alcotest.(check int) "size" 2 (Dstruct.Nmtree.size t);
      Alcotest.(check bool) "insert 20" true (Dstruct.Nmtree.insert t 20 21);
      Alcotest.(check (option int)) "find 20 after insert" (Some 21)
        (Dstruct.Nmtree.find t 20);
      Alcotest.(check bool) "delete 20 again" true (Dstruct.Nmtree.delete t 20);
      Alcotest.(check (option int)) "find 10" (Some 10) (Dstruct.Nmtree.find t 10);
      Alcotest.(check (option int)) "find 30" (Some 30) (Dstruct.Nmtree.find t 30);
      Dstruct.Nmtree.check_invariants t)

let crash_after_flag_sweep ~seed ~evict =
  with_heap (fun h ->
      let rng = Random.State.make [| seed |] in
      Ralloc.set_eviction_rate h evict;
      let t = Dstruct.Nmtree.create ~smr:(Ebr.create h) h ~root:0 in
      let keys =
        List.init (20 + Random.State.int rng 200) (fun _ ->
            Random.State.int rng 10_000)
        |> List.sort_uniq compare
        |> Array.of_list
      in
      Array.iter (fun k -> ignore (Dstruct.Nmtree.insert t k (k + 1))) keys;
      let i = Random.State.int rng (Array.length keys) in
      let victim = keys.(i) in
      let what = Printf.sprintf "seed %d evict %.2f: key %d" seed evict victim in
      Pmem.set_fence_deferral true;
      Alcotest.(check bool) (what ^ " deleted") true
        (Dstruct.Nmtree.delete t victim);
      let h, _ = Ralloc.crash_and_reopen h in
      Pmem.set_fence_deferral false;
      let t = Dstruct.Nmtree.attach ~smr:(Ebr.create h) h ~root:0 in
      ignore (Ralloc.recover h);
      Dstruct.Nmtree.check_invariants t;
      Alcotest.(check (option int)) (what ^ " reads absent") None
        (Dstruct.Nmtree.find t victim);
      Alcotest.(check int) (what ^ ": other keys intact")
        (Array.length keys - 1) (Dstruct.Nmtree.size t);
      Array.iter
        (fun k ->
          if k <> victim then
            Alcotest.(check (option int)) (what ^ ": other key") (Some (k + 1))
              (Dstruct.Nmtree.find t k))
        keys;
      (* each neighbour goes and comes back, then the victim comes back and
         goes again, across the edges the crash left flagged or untagged *)
      List.iter
        (fun j ->
          if j >= 0 && j < Array.length keys then begin
            let k = keys.(j) in
            Alcotest.(check bool) (Printf.sprintf "%s: neighbour %d deleted" what k)
              true (Dstruct.Nmtree.delete t k);
            Alcotest.(check (option int)) "neighbour reads absent" None
              (Dstruct.Nmtree.find t k);
            Alcotest.(check bool) (Printf.sprintf "%s: neighbour %d reinserted" what k)
              true (Dstruct.Nmtree.insert t k (k + 1))
          end)
        [ i - 1; i + 1 ];
      Alcotest.(check (option int)) (what ^ " still absent") None
        (Dstruct.Nmtree.find t victim);
      Alcotest.(check bool) (what ^ " reinserted") true
        (Dstruct.Nmtree.insert t victim 7);
      Alcotest.(check (option int)) (what ^ " reads back") (Some 7)
        (Dstruct.Nmtree.find t victim);
      Alcotest.(check bool) (what ^ " deleted again") true
        (Dstruct.Nmtree.delete t victim);
      Alcotest.(check int) (what ^ ": size after the round trips")
        (Array.length keys - 1) (Dstruct.Nmtree.size t);
      Dstruct.Nmtree.check_invariants t)

let test_nmtree_crash_after_flag () =
  crash_after_flag_fixed ();
  List.iter
    (fun (seed, evict) -> crash_after_flag_sweep ~seed ~evict)
    (List.concat_map
       (fun seed -> [ (seed, 0.0); (seed, 0.25); (seed, 0.5) ])
       [ 1; 2; 3; 4; 5 ])

(* Post-crash reads of non-durable words, allowed or not: what the
   persistency checker tallies while PCHECK is set (0 otherwise). *)
let stale_reads () =
  let t = Pmem.Check.totals () in
  t.Pmem.Check.t_violations + t.Pmem.Check.t_allowed_violations

(* An overwrite takes effect at one aligned store into the leaf's value
   word.  Here its release fence is deferred (group commit) and the crash
   lands before the drain, so the overwrite was never acked: the key must
   read back as the old value or the new one, never as absent.  Without
   eviction the store is lost and the old value returns; at 0.5 the line
   may have been written back.  Under PCHECK the only non-durable word
   the recovered tree may read is that value word, and only when it reads
   old: structure (edges, keys) stays durable throughout. *)
let test_nmtree_crash_mid_overwrite () =
  List.iter
    (fun (seed, evict) ->
      with_heap (fun h ->
          let rng = Random.State.make [| seed |] in
          Ralloc.set_eviction_rate h evict;
          let t = Dstruct.Nmtree.create h ~root:0 in
          let keys =
            List.init (20 + Random.State.int rng 200) (fun _ ->
                Random.State.int rng 10_000)
            |> List.sort_uniq compare
          in
          List.iter (fun k -> ignore (Dstruct.Nmtree.insert t k (k + 1))) keys;
          let victim = List.nth keys (Random.State.int rng (List.length keys)) in
          let old_v = victim + 1 and new_v = -victim in
          Pmem.set_fence_deferral true;
          Alcotest.(check bool) "overwrite finds the key" false
            (Dstruct.Nmtree.set t victim new_v);
          let h, _ = Ralloc.crash_and_reopen h in
          Pmem.set_fence_deferral false;
          let stale0 = stale_reads () in
          let t = Dstruct.Nmtree.attach h ~root:0 in
          ignore (Ralloc.recover h);
          Dstruct.Nmtree.check_invariants t;
          let got = Dstruct.Nmtree.find t victim in
          let what = Printf.sprintf "seed %d evict %.1f: key %d" seed evict victim in
          if got <> Some old_v && got <> Some new_v then
            Alcotest.failf "%s reads %s, want %d or %d" what
              (match got with None -> "absent" | Some v -> string_of_int v)
              old_v new_v;
          if evict = 0.0 then
            Alcotest.(check (option int)) (what ^ " lost its unacked store")
              (Some old_v) got;
          Alcotest.(check int)
            (what ^ ": other keys intact")
            (List.length keys) (Dstruct.Nmtree.size t);
          List.iter
            (fun k ->
              if k <> victim then
                Alcotest.(check (option int)) "other key" (Some (k + 1))
                  (Dstruct.Nmtree.find t k))
            keys;
          if Pmem.Check.enabled () then
            Alcotest.(check int)
              (what ^ ": stale reads under PCHECK")
              (if got = Some old_v then 1 else 0)
              (stale_reads () - stale0)))
    (List.concat_map (fun seed -> [ (seed, 0.0); (seed, 0.5) ]) [ 1; 2; 3; 4; 5 ])

(* ------------------------- Rbtree ------------------------- *)

module RB = Dstruct.Rbtree.Make (Baselines.Allocators.Ralloc_alloc)

let test_rbtree_basic () =
  with_heap (fun h ->
      let t = RB.create h in
      Alcotest.(check bool) "insert" true (RB.insert t 10 100);
      Alcotest.(check bool) "update" false (RB.insert t 10 200);
      Alcotest.(check (option int)) "find" (Some 200) (RB.find t 10);
      Alcotest.(check (option int)) "absent" None (RB.find t 11);
      Alcotest.(check bool) "delete" true (RB.delete t 10);
      Alcotest.(check bool) "delete absent" false (RB.delete t 10);
      RB.check_invariants t)

let test_rbtree_vs_model () =
  with_heap (fun h ->
      let t = RB.create h in
      let module IM = Stdlib.Map.Make (Int) in
      let model = ref IM.empty in
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to 8000 do
        let k = Random.State.int rng 1000 in
        match Random.State.int rng 4 with
        | 0 | 1 ->
          let fresh = RB.insert t k (k * 3) in
          Alcotest.(check bool) "insert agrees" (not (IM.mem k !model)) fresh;
          model := IM.add k (k * 3) !model
        | 2 ->
          let removed = RB.delete t k in
          Alcotest.(check bool) "delete agrees" (IM.mem k !model) removed;
          model := IM.remove k !model
        | _ ->
          Alcotest.(check (option int)) "find agrees" (IM.find_opt k !model)
            (RB.find t k)
      done;
      RB.check_invariants t;
      Alcotest.(check int) "size agrees" (IM.cardinal !model) (RB.size t);
      (* in-order iteration must be sorted and match the model *)
      let prev = ref min_int in
      RB.iter
        (fun k v ->
          Alcotest.(check bool) "sorted" true (k > !prev);
          prev := k;
          Alcotest.(check (option int)) "value" (Some v) (IM.find_opt k !model))
        t)

let test_rbtree_sequential_inserts () =
  with_heap (fun h ->
      (* ascending inserts are the classic RB stress *)
      let t = RB.create h in
      for i = 1 to 5000 do
        ignore (RB.insert t i i)
      done;
      RB.check_invariants t;
      Alcotest.(check int) "size" 5000 (RB.size t);
      for i = 1 to 5000 do
        if i mod 2 = 0 then ignore (RB.delete t i)
      done;
      RB.check_invariants t;
      Alcotest.(check int) "half deleted" 2500 (RB.size t))

(* ------------------------- Hashmap ------------------------- *)

module HM = Dstruct.Hashmap.Make (Baselines.Allocators.Ralloc_alloc)

let test_hashmap_basic () =
  with_heap (fun h ->
      let m = HM.create h ~buckets:64 in
      Alcotest.(check bool) "set fresh" true (HM.set m "hello" "world");
      Alcotest.(check bool) "set update" false (HM.set m "hello" "there");
      Alcotest.(check (option string)) "get" (Some "there") (HM.get m "hello");
      Alcotest.(check (option string)) "absent" None (HM.get m "nope");
      Alcotest.(check bool) "delete" true (HM.delete m "hello");
      Alcotest.(check bool) "delete absent" false (HM.delete m "hello");
      Alcotest.(check int) "empty" 0 (HM.length m))

let test_hashmap_many () =
  with_heap (fun h ->
      let m = HM.create h ~buckets:256 in
      let n = 3000 in
      for i = 0 to n - 1 do
        ignore (HM.set m (Printf.sprintf "key-%d" i) (Printf.sprintf "value-%d" i))
      done;
      Alcotest.(check int) "length" n (HM.length m);
      for i = 0 to n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "key-%d" i)
          (Some (Printf.sprintf "value-%d" i))
          (HM.get m (Printf.sprintf "key-%d" i))
      done;
      for i = 0 to n - 1 do
        if i mod 3 = 0 then
          Alcotest.(check bool) "delete" true
            (HM.delete m (Printf.sprintf "key-%d" i))
      done;
      Alcotest.(check int) "after deletes" (n - ((n + 2) / 3)) (HM.length m))

let test_hashmap_long_strings () =
  with_heap (fun h ->
      let m = HM.create h ~buckets:16 in
      let v = String.init 5000 (fun i -> Char.chr (i mod 256)) in
      ignore (HM.set m "big" v);
      Alcotest.(check (option string)) "long value intact" (Some v)
        (HM.get m "big"))

let test_hashmap_concurrent () =
  with_heap (fun h ->
      let m = HM.create h ~buckets:1024 in
      let threads = 4 and per = 1000 in
      let ds =
        List.init threads (fun tid ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  ignore
                    (HM.set m
                       (Printf.sprintf "t%d-%d" tid i)
                       (Printf.sprintf "v%d" i))
                done;
                Ralloc.flush_thread_cache h))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "all present" (threads * per) (HM.length m);
      Alcotest.(check (option string)) "spot check" (Some "v500")
        (HM.get m "t2-500"))

let () =
  Alcotest.run "dstruct"
    [
      ( "pstack",
        [
          Alcotest.test_case "basic LIFO" `Quick test_pstack_basic;
          Alcotest.test_case "crash recovery" `Quick test_pstack_crash_recovery;
          Alcotest.test_case "concurrent push" `Slow test_pstack_concurrent_push;
        ] );
      ( "msqueue",
        [
          Alcotest.test_case "SPSC" `Slow test_msqueue_spsc;
        ]
        @ List.map
            (fun name ->
              Alcotest.test_case ("FIFO on " ^ name) `Quick
                (test_msqueue_fifo name))
            Baselines.Allocators.names );
      ( "nmtree",
        [
          Alcotest.test_case "basic" `Quick test_nmtree_basic;
          Alcotest.test_case "vs model" `Quick test_nmtree_vs_model;
          Alcotest.test_case "concurrent insert" `Slow
            test_nmtree_concurrent_insert;
          Alcotest.test_case "concurrent mixed" `Slow
            test_nmtree_concurrent_mixed;
          Alcotest.test_case "crash recovery" `Quick test_nmtree_crash_recovery;
          Alcotest.test_case "crash after delete flag" `Quick
            test_nmtree_crash_after_flag;
          Alcotest.test_case "crash mid overwrite" `Quick
            test_nmtree_crash_mid_overwrite;
        ] );
      ( "rbtree",
        [
          Alcotest.test_case "basic" `Quick test_rbtree_basic;
          Alcotest.test_case "vs model" `Quick test_rbtree_vs_model;
          Alcotest.test_case "sequential stress" `Quick
            test_rbtree_sequential_inserts;
        ] );
      ( "hashmap",
        [
          Alcotest.test_case "basic" `Quick test_hashmap_basic;
          Alcotest.test_case "many keys" `Quick test_hashmap_many;
          Alcotest.test_case "long strings" `Quick test_hashmap_long_strings;
          Alcotest.test_case "concurrent" `Slow test_hashmap_concurrent;
        ] );
    ]
