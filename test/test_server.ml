(* pkvd server tests: wire-protocol round-trips (property-based), queue
   backpressure, the heap-path resolver, and the headline guarantee —
   crash during service loses no acked write and tears no value. *)

module Proto = Server.Proto
module Squeue = Server.Squeue
module Core = Server.Core

let mb = 1 lsl 20

(* ------------------------- protocol round-trip ------------------------- *)

(* Full-range ints: uniform ints plus the sign/overflow edge cases, so the
   i64 encoding's two's-complement wraparound is actually exercised.  They
   ride in values; int keys must lie in [0, Nmtree.max_key]. *)
let gen_int =
  QCheck2.Gen.(
    oneof [ int; oneofl [ min_int; max_int; -1; 0; 1; 1 lsl 62 ] ])

let max_key = Dstruct.Nmtree.max_key

let gen_key =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> k land max_int mod (max_key + 1)) int;
        oneofl [ 0; 1; max_key ];
      ])

let gen_bad_key =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> k lor min_int) int;
        oneofl [ min_int; -1; max_key + 1; max_int ];
      ])

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Proto.Get k) gen_key;
        map2 (fun k v -> Proto.Set (k, v)) gen_key gen_int;
        map (fun k -> Proto.Del k) gen_key;
        map (fun k -> Proto.Sget k) string;
        map2 (fun k v -> Proto.Sset (k, v)) string string;
        map (fun k -> Proto.Sdel k) string;
        oneofl [ Proto.Stats; Proto.Flush; Proto.Ping ];
      ])

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ Proto.Ok; Proto.Not_found; Proto.Busy ];
        map (fun v -> Proto.Value v) gen_int;
        map (fun s -> Proto.Svalue s) string;
        map (fun s -> Proto.Text s) string;
        map (fun s -> Proto.Error s) string;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request encode/decode round-trip" ~count:500
    gen_request (fun req ->
      Proto.decode_request (Proto.encode_request req) = Stdlib.Ok req)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response encode/decode round-trip" ~count:500
    gen_response (fun resp ->
      Proto.decode_response (Proto.encode_response resp) = Stdlib.Ok resp)

(* An int key the index cannot hold is a malformed request: decode refuses
   it, so no worker ever sees it. *)
let prop_request_bad_key =
  QCheck2.Test.make ~name:"out-of-range int key never decodes" ~count:200
    QCheck2.Gen.(pair gen_bad_key gen_int)
    (fun (k, v) ->
      List.for_all
        (fun req ->
          Result.is_error (Proto.decode_request (Proto.encode_request req)))
        [ Proto.Get k; Proto.Set (k, v); Proto.Del k ])

(* A mangled frame must produce [Error _], never an exception and never a
   silent wrong parse of a *different* payload length. *)
let prop_request_truncation =
  QCheck2.Test.make ~name:"truncated/extended request never crashes decode"
    ~count:500 gen_request (fun req ->
      let s = Proto.encode_request req in
      let chopped = String.sub s 0 (String.length s - 1) in
      let extended = s ^ "\xff" in
      (match Proto.decode_request chopped with
      | Stdlib.Ok r -> String.length s = 1 || r = req (* prefix can't equal *)
      | Stdlib.Error _ -> true)
      &&
      match Proto.decode_request extended with
      | Stdlib.Ok _ -> false
      | Stdlib.Error _ -> true)

(* ----------------------------- squeue ---------------------------------- *)

let test_squeue () =
  let q = Squeue.create 2 in
  Alcotest.(check bool) "push 1" true (Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.try_push q 2);
  Alcotest.(check bool) "push 3 over cap" false (Squeue.try_push q 3);
  Alcotest.(check int) "len" 2 (Squeue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1)
    (Squeue.pop_opt q ~timeout_s:1.);
  Alcotest.(check bool) "push 3 after pop" true (Squeue.try_push q 3);
  Alcotest.(check bool) "force over cap" true (Squeue.push_force q 4);
  Squeue.close q;
  Alcotest.(check bool) "push on closed" false (Squeue.try_push q 5);
  Alcotest.(check bool) "force on closed" false (Squeue.push_force q 5);
  Alcotest.(check (option int)) "drain 2" (Some 2)
    (Squeue.pop_opt q ~timeout_s:1.);
  Alcotest.(check (option int)) "drain 3" (Some 3)
    (Squeue.pop_opt q ~timeout_s:1.);
  Alcotest.(check (option int)) "drain 4" (Some 4)
    (Squeue.pop_opt q ~timeout_s:1.);
  Alcotest.(check (option int)) "closed+drained" None
    (Squeue.pop_opt q ~timeout_s:0.05)

let test_squeue_timeout () =
  let q : int Squeue.t = Squeue.create 4 in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (option int)) "timeout pop" None
    (Squeue.pop_opt q ~timeout_s:0.05);
  Alcotest.(check bool) "waited" true (Unix.gettimeofday () -. t0 >= 0.04)

(* --------------------------- heap path --------------------------------- *)

let test_heap_path () =
  Unix.putenv "PKV_HEAP" "/nvm/explicit-heap";
  Alcotest.(check string) "env override" "/nvm/explicit-heap"
    (Server.Heap_path.default_heap ());
  Unix.putenv "PKV_HEAP" "";
  let d = Server.Heap_path.default_heap () in
  (* never the historical world-shared fixed path *)
  Alcotest.(check bool) "not shared /tmp/pkv-heap" false (d = "/tmp/pkv-heap");
  (match Sys.getenv_opt "XDG_RUNTIME_DIR" with
  | Some x when x <> "" ->
    Alcotest.(check string) "runtime dir" (Filename.concat x "pkv-heap") d
  | _ ->
    let tag =
      match Sys.getenv_opt "USER" with
      | Some u when u <> "" -> u
      | _ -> string_of_int (Unix.getuid ())
    in
    Alcotest.(check bool)
      "per-user suffix" true
      (Filename.check_suffix d ("pkv-heap-" ^ tag)));
  Unix.putenv "PKV_SOCKET" "/run/pkvd.sock";
  Alcotest.(check string) "socket env override" "/run/pkvd.sock"
    (Server.Heap_path.default_socket ());
  Unix.putenv "PKV_SOCKET" ""

(* ------------------------- in-process clients --------------------------- *)

let temp_base () =
  let f = Filename.temp_file "pkvd-test" "" in
  Sys.remove f;
  f

let cleanup_heap base =
  List.iter
    (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
    [ ".sb"; ".meta"; ".desc" ]

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send fd req = Proto.write_frame fd (Proto.encode_request req)

let recv fd =
  match Proto.read_frame fd with
  | None -> Alcotest.fail "server closed the connection"
  | Some p -> (
    match Proto.decode_response p with
    | Stdlib.Ok r -> r
    | Stdlib.Error e -> Alcotest.fail ("bad response frame: " ^ e))

(* ------------------------ out-of-range int keys ------------------------ *)

(* A SET or DEL whose key the int index cannot hold is answered ERROR, and
   it harms neither its connection nor the worker behind it: later
   requests on the same connection are served and the server stops
   cleanly. *)
let test_out_of_range_key () =
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 1;
    }
  in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let fd = connect sock in
  (* a reply that never comes fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  List.iter
    (fun req ->
      send fd req;
      match recv fd with
      | Proto.Error _ -> ()
      | _ ->
        Alcotest.failf "%s of a bad key: expected ERROR" (Proto.op_name req))
    [
      Proto.Set (-1, 1); Proto.Del (-1); Proto.Set (max_int, 1); Proto.Del max_int;
    ];
  send fd (Proto.Set (7, 70));
  Alcotest.(check bool) "later SET answered" true (recv fd = Proto.Ok);
  send fd (Proto.Get 7);
  Alcotest.(check bool) "later GET answered" true (recv fd = Proto.Value 70);
  Unix.close fd;
  Core.stop srv;
  cleanup_heap base

(* ------------------------- BUSY backpressure ---------------------------- *)

(* A single worker with a 1-slot queue, hammered by pipelined producers:
   the shard must shed load with BUSY (and only with BUSY — every request
   still gets exactly one in-order reply), and the BUSY counter must match
   what the clients saw. *)
let test_busy_backpressure () =
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 1;
      batch = 8;
      batch_usec = 500;
      queue_cap = 1;
    }
  in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let conns = 4 and per_conn = 250 in
  let ok = Atomic.make 0 and busy = Atomic.make 0 in
  let client c =
    let fd = connect sock in
    let window = 50 in
    for round = 0 to (per_conn / window) - 1 do
      let base_k = (c * 1_000_000) + (round * window) in
      for i = 0 to window - 1 do
        send fd (Proto.Set (base_k + i, base_k + i))
      done;
      for _ = 1 to window do
        match recv fd with
        | Proto.Ok -> Atomic.incr ok
        | Proto.Busy -> Atomic.incr busy
        | _ -> Alcotest.fail "expected OK or BUSY"
      done
    done;
    Unix.close fd
  in
  let threads = List.init conns (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  Core.stop srv;
  Alcotest.(check int) "every request answered" (conns * per_conn)
    (Atomic.get ok + Atomic.get busy);
  Alcotest.(check bool) "saturated shard sheds load" true (Atomic.get busy > 0);
  Alcotest.(check bool) "some writes still land" true (Atomic.get ok > 0);
  cleanup_heap base

(* --------------------- crash during service ----------------------------- *)

(* The durability contract end-to-end: writes acked before a crash are all
   recovered with their exact values; writes in flight (sent, no ack read)
   are each either absent or have their exact value — never torn. *)
let test_crash_during_serve () =
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 2;
      batch = 64;
      (* long enough that the in-flight tail below is still uncommitted
         when the abrupt stop lands, short enough that a pipelined
         connection stalled on a parked ack always unsticks *)
      batch_usec = 200_000;
      queue_cap = 4096;
    }
  in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let fd = connect sock in
  let acked_n = 300 in
  (* phase 1: acked writes — pipeline them, then FLUSH (a commit barrier)
     so every parked ack is released before we count replies *)
  for k = 0 to acked_n - 1 do
    send fd (Proto.Set (k, (k * 3) + 1))
  done;
  for k = 0 to 49 do
    send fd (Proto.Sset (Printf.sprintf "s%d" k, Printf.sprintf "v%d" k))
  done;
  send fd Proto.Flush;
  for _ = 1 to acked_n + 50 do
    match recv fd with
    | Proto.Ok -> ()
    | _ -> Alcotest.fail "phase 1 write not acked OK"
  done;
  (match recv fd with
  | Proto.Ok -> ()
  | _ -> Alcotest.fail "flush not acked");
  (* phase 2: in-flight writes — sent, dispatched, never acked *)
  let inflight_lo = 1_000_000 in
  for k = inflight_lo to inflight_lo + 36 do
    send fd (Proto.Set (k, (k * 7) + 1))
  done;
  Unix.sleepf 0.05 (* parked in an uncommitted batch; < batch_usec *);
  Core.stop ~mode:`Abrupt srv;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* the crash proper: unfenced lines vanish, heap remaps dirty *)
  let st = Core.store srv in
  let heap, status = Ralloc.crash_and_reopen st.heap in
  Alcotest.(check bool) "dirty restart" true (status = Ralloc.Dirty_restart);
  let tree = Dstruct.Nmtree.attach ~reclaim:false heap ~root:0 in
  let smap = Dstruct.Phashmap.attach ~reclaim:false heap ~root:1 in
  let stats = Ralloc.recover heap in
  Alcotest.(check bool) "recovery found the store" true
    (stats.reachable_blocks > 0);
  Dstruct.Nmtree.check_invariants tree;
  for k = 0 to acked_n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "acked key %d survives" k)
      (Some ((k * 3) + 1))
      (Dstruct.Nmtree.find tree k)
  done;
  for k = 0 to 49 do
    Alcotest.(check (option string))
      (Printf.sprintf "acked skey s%d survives" k)
      (Some (Printf.sprintf "v%d" k))
      (Dstruct.Phashmap.get smap (Printf.sprintf "s%d" k))
  done;
  for k = inflight_lo to inflight_lo + 36 do
    match Dstruct.Nmtree.find tree k with
    | None -> () (* lost with the uncommitted batch: allowed *)
    | Some v ->
      Alcotest.(check int)
        (Printf.sprintf "in-flight key %d not torn" k)
        ((k * 7) + 1) v
  done;
  Ralloc.close heap;
  cleanup_heap base

(* ---------------------- graceful stop durability ------------------------ *)

(* SIGTERM-path: a graceful stop commits in-flight batches, so even writes
   whose acks were never read must all be present after a clean reopen. *)
let test_graceful_stop_commits () =
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 2;
      batch = 64;
      batch_usec = 30_000_000;
      queue_cap = 4096;
    }
  in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let fd = connect sock in
  for k = 0 to 99 do
    send fd (Proto.Set (k, k + 7))
  done;
  Unix.sleepf 0.3;
  Core.stop srv (* graceful: drains queues, commits, closes the heap *);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let st = Server.Store.open_store base in
  Alcotest.(check bool) "clean restart" true
    (st.status = Ralloc.Clean_restart);
  for k = 0 to 99 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d committed by graceful stop" k)
      (Some (k + 7))
      (Server.Store.iget st k)
  done;
  Server.Store.close st;
  cleanup_heap base

(* --------------------- stage breakdown attribution ---------------------- *)

(* Every acked op must carry a complete stage breakdown: per-class stage
   histogram counts advance by exactly the acked op count, and the
   per-stage nanosecond sums add up to the recorded total *exactly* (the
   total is defined as the fold of the clamped stage durations). *)
let test_stage_breakdown () =
  let module Rt = Server.Rtrace in
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 2;
      batch = 8;
      batch_usec = 500;
      queue_cap = 4096;
    }
  in
  let stage_counts cls = Array.init Rt.nstages (Rt.stage_count cls) in
  let stage_sums cls = Array.init Rt.nstages (Rt.sum_ns cls) in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let w_cnt0 = stage_counts `Write and r_cnt0 = stage_counts `Read in
  let w_sum0 = stage_sums `Write and r_sum0 = stage_sums `Read in
  let w_tot0 = Rt.total_sum_ns `Write and r_tot0 = Rt.total_sum_ns `Read in
  let w_ops0 = Rt.ops `Write and r_ops0 = Rt.ops `Read in
  let fd = connect sock in
  let nset = 200 and nget = 100 in
  for k = 0 to nset - 1 do
    send fd (Proto.Set (k, k * 2))
  done;
  send fd Proto.Flush;
  for _ = 1 to nset + 1 do
    match recv fd with
    | Proto.Ok -> ()
    | _ -> Alcotest.fail "set/flush not acked OK"
  done;
  for k = 0 to nget - 1 do
    send fd (Proto.Get k)
  done;
  for _ = 1 to nget do
    match recv fd with
    | Proto.Value _ -> ()
    | _ -> Alcotest.fail "get not answered with a value"
  done;
  Unix.close fd;
  Core.stop srv;
  Alcotest.(check int) "write ops counted" nset (Rt.ops `Write - w_ops0);
  Alcotest.(check int) "read ops counted" nget (Rt.ops `Read - r_ops0);
  let w_cnt = stage_counts `Write and r_cnt = stage_counts `Read in
  Array.iteri
    (fun s name ->
      Alcotest.(check int)
        (Printf.sprintf "every acked write recorded stage %s" name)
        nset
        (w_cnt.(s) - w_cnt0.(s));
      Alcotest.(check int)
        (Printf.sprintf "every acked read recorded stage %s" name)
        nget
        (r_cnt.(s) - r_cnt0.(s)))
    Rt.stages;
  let w_sum = stage_sums `Write and r_sum = stage_sums `Read in
  let dsum a0 a = Array.fold_left ( + ) 0 (Array.mapi (fun i v -> v - a0.(i)) a) in
  Alcotest.(check int) "write stages sum exactly to total"
    (Rt.total_sum_ns `Write - w_tot0)
    (dsum w_sum0 w_sum);
  Alcotest.(check int) "read stages sum exactly to total"
    (Rt.total_sum_ns `Read - r_tot0)
    (dsum r_sum0 r_sum);
  let stage_idx name =
    let i = ref (-1) in
    Array.iteri (fun j s -> if s = name then i := j) Rt.stages;
    !i
  in
  let wd name = w_sum.(stage_idx name) - w_sum0.(stage_idx name) in
  Alcotest.(check bool) "batched writes spent time parked or fencing" true
    (wd "park" + wd "fence" > 0);
  Alcotest.(check bool) "writes spent time allocating" true (wd "alloc" > 0);
  Alcotest.(check bool) "writes spent time flushing" true (wd "flush" > 0);
  cleanup_heap base

(* ------------------------------ slow log -------------------------------- *)

(* With --slow-us 1 every request trips the slow log: the hook must fire
   with a full stage breakdown, and the flight recorder must persist
   slow_op events. *)
let test_slow_log () =
  let module Rt = Server.Rtrace in
  let base = temp_base () in
  let sock = base ^ ".sock" in
  let lines = ref [] in
  Rt.set_slow_log (fun s -> lines := s :: !lines);
  Obs.Flight.set_enabled true;
  let config =
    {
      (Core.default_config ~heap_path:base ()) with
      heap_size = 32 * mb;
      workers = 1;
      batch = 4;
      batch_usec = 500;
      queue_cap = 4096;
      slow_us = 1;
    }
  in
  let srv = Core.start ~config (Unix.ADDR_UNIX sock) in
  let st = Core.store srv in
  let slow0 =
    match Ralloc.flight st.heap with
    | Some f -> Obs.Flight.kind_count f Obs.Flight.Kind.slow_op
    | None -> 0
  in
  let fd = connect sock in
  for k = 0 to 19 do
    send fd (Proto.Set (k, k))
  done;
  send fd Proto.Flush;
  for _ = 1 to 21 do
    match recv fd with
    | Proto.Ok -> ()
    | _ -> Alcotest.fail "write not acked"
  done;
  Unix.close fd;
  let slow_after =
    match Ralloc.flight st.heap with
    | Some f -> Obs.Flight.kind_count f Obs.Flight.Kind.slow_op
    | None -> 0
  in
  Core.stop srv;
  Obs.Flight.set_enabled false;
  Rt.set_slow_log prerr_endline;
  Alcotest.(check bool) "slow hook fired" true (List.length !lines > 0);
  let line = List.hd !lines in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "slow line carries %s" field)
        true (contains line field))
    [ "total="; "park="; "fence="; "alloc="; "flush=" ];
  Alcotest.(check bool) "flight recorded slow_op events" true
    (slow_after - slow0 > 0);
  cleanup_heap base

(* Rtrace context creation follows the span switch: under OBS_DISABLED
   (or with spans off) make returns the shared null context and the whole
   pipeline's marks are no-ops. *)
let test_rtrace_hard_off () =
  Obs.Span.set_enabled false;
  Alcotest.(check bool) "make is null with spans off" false
    (Server.Rtrace.is_live (Server.Rtrace.make ()));
  Unix.putenv "OBS_DISABLED" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "OBS_DISABLED" "0")
    (fun () ->
      Obs.Span.set_enabled true;
      Alcotest.(check bool) "make is null under OBS_DISABLED" false
        (Server.Rtrace.is_live (Server.Rtrace.make ())))

(* --------------------- conn state machine (qcheck) --------------------- *)

module Conn = Server.Conn

(* The wire form Conn parses: 4-byte big-endian payload length + payload,
   concatenated.  Built by hand so the test owns the framing, independent
   of Proto.write_frame. *)
let wire_frames payloads =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      let n = String.length p in
      Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
      Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
      Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
      Buffer.add_char b (Char.chr (n land 0xff));
      Buffer.add_string b p)
    payloads;
  Buffer.contents b

let parse_frames s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then List.rev acc
    else begin
      assert (pos + 4 <= n);
      let len =
        (Char.code s.[pos] lsl 24)
        lor (Char.code s.[pos + 1] lsl 16)
        lor (Char.code s.[pos + 2] lsl 8)
        lor Char.code s.[pos + 3]
      in
      assert (pos + 4 + len <= n);
      go (pos + 4 + len) (String.sub s (pos + 4) len :: acc)
    end
  in
  go 0 []

(* Any chunking of the byte stream — header split across reads, bodies
   arriving a byte at a time, several frames in one read — must reassemble
   exactly the frames that were sent, in order, leaving nothing behind. *)
let prop_conn_reassembly =
  QCheck2.Test.make ~name:"arbitrary chunking reassembles exact frames"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10) (string_size (int_range 0 64)))
        (list_size (int_range 0 30) (int_range 1 17)))
    (fun (payloads, cuts) ->
      let stream = wire_frames payloads in
      let c = Conn.create () in
      let out = ref [] in
      let rec drain () =
        match Conn.next_frame c with
        | `Frame p ->
          out := p :: !out;
          drain ()
        | `Need_more -> ()
        | `Error e -> Alcotest.failf "unexpected conn error: %s" e
      in
      let total = String.length stream in
      let pos = ref 0 and cuts = ref cuts in
      while !pos < total do
        let step =
          match !cuts with
          | [] -> total - !pos
          | s :: tl ->
            cuts := tl;
            min s (total - !pos)
        in
        Conn.feed c (Bytes.of_string (String.sub stream !pos step)) 0 step;
        drain ();
        pos := !pos + step
      done;
      List.rev !out = payloads && Conn.buffered_bytes c = 0)

(* Workers finish in any order and the event loop writes in arbitrarily
   short slices; the bytes that reach the wire must still spell the
   responses in ticket (request-arrival) order, exactly once each. *)
let prop_conn_ack_order =
  QCheck2.Test.make ~name:"partial-write resumption never reorders acks"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 24) (list_size (int_range 0 60) (int_range 0 1000)))
    (fun (n, seeds) ->
      let c = Conn.create () in
      let tks =
        Array.init n (fun _ -> Conn.enqueue c (Server.Rtrace.make ()))
      in
      (* a permutation of the fulfil order, derived from the seed list *)
      let order = Array.init n Fun.id in
      List.iteri
        (fun i s ->
          let a = i mod n and b = s mod n in
          let t = order.(a) in
          order.(a) <- order.(b);
          order.(b) <- t)
        seeds;
      let seeds = ref seeds in
      let next_seed () =
        match !seeds with
        | [] -> 7
        | s :: tl ->
          seeds := tl;
          s
      in
      let written = Buffer.create 256 in
      let write_some () =
        match Conn.write_chunk c with
        | None -> false
        | Some (buf, off, len) ->
          let k = 1 + (next_seed () mod len) in
          Buffer.add_subbytes written buf off k;
          ignore (Conn.advance_write c k);
          true
      in
      Array.iter
        (fun idx ->
          Conn.fulfil c tks.(idx) (Proto.Value idx);
          ignore (write_some ()))
        order;
      while write_some () do
        ()
      done;
      let resps =
        List.map Proto.decode_response (parse_frames (Buffer.contents written))
      in
      resps = List.init n (fun i -> Stdlib.Ok (Proto.Value i))
      && Conn.inflight c = 0
      && Conn.pending_write_bytes c = 0)

(* Deterministic backpressure edges: read interest must drop while the
   pipeline is full or the write backlog sits over the highwater mark,
   and return once both drain; a drained connection goes idle after EOF. *)
let test_conn_backpressure () =
  let c = Conn.create ~max_pipeline:4 ~write_highwater:16 () in
  Alcotest.(check bool) "fresh conn wants read" true (Conn.want_read c);
  let tks = List.init 4 (fun _ -> Conn.enqueue c (Server.Rtrace.make ())) in
  Alcotest.(check bool) "pipeline full" false (Conn.can_dispatch c);
  Alcotest.(check bool) "read off while pipeline full" false (Conn.want_read c);
  List.iter (fun tk -> Conn.fulfil c tk (Proto.Svalue (String.make 64 'x'))) tks;
  Alcotest.(check bool) "acks pending" true (Conn.want_write c);
  Alcotest.(check bool) "read off over highwater" false (Conn.want_read c);
  let rec drain () =
    match Conn.write_chunk c with
    | None -> ()
    | Some (_, _, len) ->
      ignore (Conn.advance_write c len);
      drain ()
  in
  drain ();
  Alcotest.(check bool) "read interest restored" true (Conn.want_read c);
  Alcotest.(check int) "write queue empty" 0 (Conn.pending_write_bytes c);
  Alcotest.(check bool) "double fulfil ignored" true
    (match Conn.write_chunk c with None -> true | Some _ -> false);
  Conn.set_eof c;
  Alcotest.(check bool) "idle after eof + drain" true (Conn.idle c)

(* ----------------------------- evloop --------------------------------- *)

(* One script per behaviour, each run on every backend.  Readiness comes
   from a socketpair: on the kernel backends a byte from the peer makes an
   end readable (and a socket end is always writable); on Sim the test
   latches the same readiness with [sim_mark].  Delivery consumes a Sim
   mark, while kernel readiness lasts until the byte is read, so [drain]
   reads it there.  On Sim nothing blocks and nothing touches the kernel —
   the deterministic substrate the conn / core tests build on. *)
type evloop_fixture = {
  ev : Server.Evloop.t;
  a : Unix.file_descr;
  b : Unix.file_descr;
  make_ready : Unix.file_descr -> peer:Unix.file_descr -> unit;
  drain : Unix.file_descr -> unit;
  wait : int -> (Unix.file_descr * bool * bool) list;
}

let with_evloop backend script () =
  let module Ev = Server.Evloop in
  let ev = Ev.create ~backend () in
  let sim = backend = Ev.Sim in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let make_ready fd ~peer =
    if sim then Ev.sim_mark ~readable:true ~writable:true ev fd
    else ignore (Unix.write_substring peer "x" 0 1)
  in
  let drain fd = if not sim then ignore (Unix.read fd (Bytes.create 8) 0 8) in
  let wait timeout_ms =
    let got = ref [] in
    let n =
      Ev.wait ev ~timeout_ms (fun fd ~readable ~writable ->
          got := (fd, readable, writable) :: !got)
    in
    Alcotest.(check int) "count = callbacks" (List.length !got) n;
    !got
  in
  Fun.protect
    ~finally:(fun () ->
      Ev.close ev;
      Unix.close a;
      Unix.close b)
    (fun () ->
      Alcotest.(check string) "backend name" (Ev.backend_name backend)
        (Ev.backend_name (Ev.backend ev));
      script { ev; a; b; make_ready; drain; wait })

let check_one what ~fd ~readable ~writable = function
  | [ (f, rd, wr) ] ->
    Alcotest.(check bool) (what ^ ": the ready fd") true (f = fd);
    Alcotest.(check bool) (what ^ ": readable") readable rd;
    Alcotest.(check bool) (what ^ ": writable") writable wr
  | evs -> Alcotest.failf "%s: %d events, expected 1" what (List.length evs)

let check_none what evs = Alcotest.(check int) what 0 (List.length evs)

(* add/remove keep the watched set, readiness is reported through the
   fd's interest, and a removed fd is not reported — re-adding it brings
   back nothing stale *)
let evloop_add_remove fx =
  let module Ev = Server.Evloop in
  Ev.add fx.ev fx.a ~read:true ~write:false;
  Alcotest.(check bool) "mem" true (Ev.mem fx.ev fx.a);
  Alcotest.(check int) "size" 1 (Ev.size fx.ev);
  check_none "nothing ready, no events" (fx.wait 0);
  fx.make_ready fx.a ~peer:fx.b;
  check_one "read interest" ~fd:fx.a ~readable:true ~writable:false
    (fx.wait 0);
  fx.drain fx.a;
  check_none "drained, no events" (fx.wait 0);
  fx.make_ready fx.a ~peer:fx.b;
  Ev.remove fx.ev fx.a;
  Alcotest.(check bool) "removed" false (Ev.mem fx.ev fx.a);
  Alcotest.(check int) "size after remove" 0 (Ev.size fx.ev);
  check_none "removed fd not reported" (fx.wait 0);
  fx.drain fx.a;
  Ev.add fx.ev fx.a ~read:true ~write:false;
  check_none "re-added, nothing stale" (fx.wait 0)

(* a read+write-ready fd gets one callback carrying both bits, and
   modifying the interest back drops the write readiness *)
let evloop_modify fx =
  let module Ev = Server.Evloop in
  Ev.add fx.ev fx.a ~read:true ~write:false;
  Ev.modify fx.ev fx.a ~read:true ~write:true;
  fx.make_ready fx.a ~peer:fx.b;
  check_one "read+write interest" ~fd:fx.a ~readable:true ~writable:true
    (fx.wait 0);
  fx.drain fx.a;
  Ev.modify fx.ev fx.a ~read:true ~write:false;
  check_none "modified back, no events" (fx.wait 0)

(* write-only interest reports only the write bit, even on an fd that
   is also readable *)
let evloop_write_only fx =
  let module Ev = Server.Evloop in
  Ev.add fx.ev fx.a ~read:false ~write:true;
  fx.make_ready fx.a ~peer:fx.b;
  check_one "write interest" ~fd:fx.a ~readable:false ~writable:true
    (fx.wait 0);
  fx.drain fx.a;
  Ev.modify fx.ev fx.a ~read:true ~write:false;
  check_none "read interest, drained, no events" (fx.wait 0)

(* readiness on an unwatched fd is reported once it is added *)
let evloop_ready_before_add fx =
  let module Ev = Server.Evloop in
  Ev.add fx.ev fx.a ~read:true ~write:false;
  fx.make_ready fx.b ~peer:fx.a;
  check_none "no interest, no delivery" (fx.wait 0);
  Ev.add fx.ev fx.b ~read:true ~write:false;
  check_one "ready before add" ~fd:fx.b ~readable:true ~writable:false
    (fx.wait 0);
  fx.drain fx.b;
  check_none "drained, no events" (fx.wait 0)

(* wakeups coalesce, and each makes even an infinite wait return *)
let evloop_wakeup fx =
  let module Ev = Server.Evloop in
  Ev.add fx.ev fx.a ~read:true ~write:false;
  Ev.wakeup fx.ev;
  Ev.wakeup fx.ev;
  check_none "wakeup returns" (fx.wait (-1));
  check_none "coalesced, none left" (fx.wait 0);
  let waker =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Ev.wakeup fx.ev)
      ()
  in
  check_none "cross-thread wakeup unblocks" (fx.wait (-1));
  Thread.join waker

let evloop_cases =
  let module Ev = Server.Evloop in
  let backends =
    (if Ev.default_backend () = Ev.Epoll then [ Ev.Epoll ] else [])
    @ [ Ev.Poll; Ev.Sim ]
  in
  List.concat_map
    (fun bk ->
      List.map
        (fun (what, script) ->
          Alcotest.test_case
            (Printf.sprintf "%s: %s" (Ev.backend_name bk) what)
            `Quick (with_evloop bk script))
        [
          ("add, remove", evloop_add_remove);
          ("read+write-ready fd, one callback", evloop_modify);
          ("write-only interest", evloop_write_only);
          ("ready before add", evloop_ready_before_add);
          ("wakeup unblocks an infinite wait", evloop_wakeup);
        ])
    backends

let () =
  Alcotest.run "server"
    [
      ( "proto",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_request_roundtrip;
            prop_response_roundtrip;
            prop_request_truncation;
            prop_request_bad_key;
          ] );
      ( "squeue",
        [
          Alcotest.test_case "bound, close, drain" `Quick test_squeue;
          Alcotest.test_case "pop timeout" `Quick test_squeue_timeout;
        ] );
      ( "paths",
        [ Alcotest.test_case "per-user resolver" `Quick test_heap_path ] );
      ( "conn",
        List.map QCheck_alcotest.to_alcotest
          [ prop_conn_reassembly; prop_conn_ack_order ]
        @ [
            Alcotest.test_case "pipeline + write backpressure" `Quick
              test_conn_backpressure;
          ] );
      ("evloop", evloop_cases);
      ( "service",
        [
          Alcotest.test_case "BUSY backpressure" `Quick test_busy_backpressure;
          Alcotest.test_case "crash during serve" `Quick
            test_crash_during_serve;
          Alcotest.test_case "graceful stop commits" `Quick
            test_graceful_stop_commits;
          Alcotest.test_case "out-of-range int key" `Quick
            test_out_of_range_key;
        ] );
      ( "rtrace",
        [
          Alcotest.test_case "every ack has a full stage breakdown" `Quick
            test_stage_breakdown;
          Alcotest.test_case "slow log + flight slow_op" `Quick test_slow_log;
          Alcotest.test_case "null ctx under OBS_DISABLED" `Quick
            test_rtrace_hard_off;
        ] );
    ]
