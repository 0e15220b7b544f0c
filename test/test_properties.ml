(* Cross-structure property tests: model conformance under random
   operation sequences, and durability of completed operations across
   crashes at random points under varying cache-eviction behaviour. *)

let mb = 1 lsl 20

(* ---------------- Pstack vs LIFO model ---------------- *)

let prop_pstack_lifo =
  QCheck2.Test.make ~name:"pstack behaves like a LIFO stack" ~count:30
    QCheck2.Gen.(list_size (int_range 10 300) (option (int_bound 10_000)))
    (fun program ->
      let heap = Ralloc.create ~name:"prop-s" ~size:(8 * mb) () in
      let s = Dstruct.Pstack.create heap ~root:0 in
      let model = Stack.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            Stack.push v model;
            Dstruct.Pstack.push s v
          | None -> (
            match (Dstruct.Pstack.pop_free s, Stack.pop_opt model) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false))
        program
      && Dstruct.Pstack.length s = Stack.length model)

(* ---------------- Msqueue vs FIFO model ---------------- *)

let prop_msqueue_fifo =
  QCheck2.Test.make ~name:"msqueue behaves like a FIFO queue" ~count:30
    QCheck2.Gen.(list_size (int_range 10 300) (option (int_bound 10_000)))
    (fun program ->
      (* Some v = enqueue v, None = dequeue *)
      let a = Baselines.Allocators.make "ralloc" ~size:(8 * mb) in
      let q = Dstruct.Msqueue.create a in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            Queue.add v model;
            Dstruct.Msqueue.enqueue q v
          | None -> (
            match (Dstruct.Msqueue.dequeue q, Queue.take_opt model) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false))
        program
      && Dstruct.Msqueue.is_empty q = Queue.is_empty model)

(* ------------- durability: completed sets survive crashes ------------- *)

let prop_phashmap_durable =
  QCheck2.Test.make ~name:"phashmap: completed sets survive any crash"
    ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 120) (pair (int_bound 30) (int_bound 1000)))
        (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-h" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:32 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = "key" ^ string_of_int k in
          ignore (Dstruct.Phashmap.set m key (string_of_int v));
          Hashtbl.replace model key (string_of_int v))
        ops;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let m = Dstruct.Phashmap.attach heap ~root:0 in
      ignore (Ralloc.recover heap);
      Hashtbl.fold
        (fun k v acc -> acc && Dstruct.Phashmap.get m k = Some v)
        model true)

let prop_nmtree_durable =
  QCheck2.Test.make ~name:"nmtree: contents identical after crash+recover"
    ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 200) (pair (int_bound 100) (option nat)))
        (int_bound 2))
    (fun (ops, noise) ->
      (* (k, Some v) = insert k v, (k, None) = delete k *)
      let heap = Ralloc.create ~name:"prop-t" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let t = Dstruct.Nmtree.create heap ~root:0 in
      List.iter
        (fun (k, op) ->
          match op with
          | Some v -> ignore (Dstruct.Nmtree.insert t k v)
          | None -> ignore (Dstruct.Nmtree.delete t k))
        ops;
      let contents t =
        let l = ref [] in
        Dstruct.Nmtree.iter (fun k v -> l := (k, v) :: !l) t;
        List.sort compare !l
      in
      let before = contents t in
      let heap, _ = Ralloc.crash_and_reopen heap in
      let t = Dstruct.Nmtree.attach heap ~root:0 in
      ignore (Ralloc.recover heap);
      Dstruct.Nmtree.check_invariants t;
      contents t = before)

let prop_pstack_durable =
  QCheck2.Test.make ~name:"pstack: completed pushes and pops survive any crash"
    ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 200) (option (int_bound 10_000)))
        (int_bound 2))
    (fun (program, noise) ->
      (* Some v = push v, None = pop *)
      let heap = Ralloc.create ~name:"prop-sd" ~size:(8 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let s = Dstruct.Pstack.create heap ~root:0 in
      let model = Stack.create () in
      List.iter
        (function
          | Some v ->
            ignore (Dstruct.Pstack.push s v);
            Stack.push v model
          | None ->
            ignore (Dstruct.Pstack.pop_free s);
            ignore (Stack.pop_opt model))
        program;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let s = Dstruct.Pstack.attach heap ~root:0 in
      ignore (Ralloc.recover heap);
      let rec drain acc =
        match Dstruct.Pstack.pop_free s with
        | Some v -> drain (v :: acc)
        | None -> List.rev acc
      in
      drain [] = List.of_seq (Stack.to_seq model))

(* -------- recovery is idempotent and eviction-rate independent -------- *)

let prop_recovery_idempotent =
  QCheck2.Test.make ~name:"recover twice finds the same state" ~count:15
    QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let heap = Ralloc.create ~name:"prop-r" ~size:(8 * mb) () in
      let s = Dstruct.Pstack.create heap ~root:0 in
      for i = 1 to n do
        ignore (Dstruct.Pstack.push s i)
      done;
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      let a = (Ralloc.recover heap).reachable_blocks in
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      let b = (Ralloc.recover heap).reachable_blocks in
      a = b && a = n + 1)

let test_eviction_rate_sweep () =
  (* recovery must reach the same answer whatever the cache decided to
     write back on its own *)
  List.iter
    (fun rate ->
      let heap = Ralloc.create ~name:"sweep" ~size:(8 * mb) () in
      Ralloc.set_eviction_rate heap rate;
      let s = Dstruct.Pstack.create heap ~root:0 in
      for i = 1 to 500 do
        ignore (Dstruct.Pstack.push s i)
      done;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let s = Dstruct.Pstack.attach heap ~root:0 in
      let stats = Ralloc.recover heap in
      Alcotest.(check int)
        (Printf.sprintf "rate %.2f: reachable" rate)
        501 stats.reachable_blocks;
      Alcotest.(check int)
        (Printf.sprintf "rate %.2f: length" rate)
        500 (Dstruct.Pstack.length s))
    [ 0.0; 0.05; 0.5; 1.0 ]

(* every persistent structure co-resident in one heap, one crash *)
let test_cohabiting_structures () =
  let heap = Ralloc.create ~name:"cohabit" ~size:(32 * mb) () in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  let tree = Dstruct.Nmtree.create heap ~root:1 in
  let map = Dstruct.Phashmap.create heap ~root:2 ~buckets:64 in
  for i = 1 to 200 do
    ignore (Dstruct.Pstack.push stack i);
    ignore (Dstruct.Nmtree.insert tree i i);
    ignore (Dstruct.Phashmap.set map (string_of_int i) (string_of_int (i * 2)))
  done;
  let heap, _ = Ralloc.crash_and_reopen heap in
  let stack = Dstruct.Pstack.attach heap ~root:0 in
  let tree = Dstruct.Nmtree.attach heap ~root:1 in
  let map = Dstruct.Phashmap.attach heap ~root:2 in
  ignore (Ralloc.recover heap);
  Alcotest.(check int) "stack" 200 (Dstruct.Pstack.length stack);
  Alcotest.(check int) "tree" 200 (Dstruct.Nmtree.size tree);
  Alcotest.(check int) "map" 200 (Dstruct.Phashmap.length map);
  Dstruct.Nmtree.check_invariants tree;
  Alcotest.(check (option string)) "map value" (Some "84")
    (Dstruct.Phashmap.get map "42")

let () =
  Alcotest.run "properties"
    [
      ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pstack_lifo; prop_msqueue_fifo ] );
      ( "durability",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_phashmap_durable;
            prop_recovery_idempotent;
            prop_nmtree_durable;
            prop_pstack_durable;
          ] );
      ( "sweeps",
        [
          Alcotest.test_case "eviction rate sweep" `Quick
            test_eviction_rate_sweep;
          Alcotest.test_case "cohabiting structures" `Quick
            test_cohabiting_structures;
        ] );
    ]
