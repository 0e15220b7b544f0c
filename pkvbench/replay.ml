(* In-process replay of a workload's op stream through the same layer
   calls a pkvd worker makes: Proto.decode_request, the Store operation,
   and Pmem.drain_deferred once per full batch.  Each call is timed, and
   Gc.minor_words and the heap's flight-recorder count are read around
   it, so the per-op cost of one layer shows without socket or queueing
   noise. *)

module Proto = Server.Proto
module Store = Server.Store

let to_proto = function
  | Gen.Get k -> Proto.Get k
  | Gen.Set (k, v) -> Proto.Set (k, v)
  | Gen.Del k -> Proto.Del k
  | Gen.Sget i -> Proto.Sget (Gen.skey i)
  | Gen.Sset (i, v) -> Proto.Sset (Gen.skey i, Gen.sval v)

let kinds = [| "iget"; "iset"; "idel"; "sget"; "sset" |]

let kind = function
  | Gen.Get _ -> 0
  | Gen.Set _ -> 1
  | Gen.Del _ -> 2
  | Gen.Sget _ -> 3
  | Gen.Sset _ -> 4

(* replay spans for the Chrome trace: (name, start ns, duration ns) *)
type span = string * int * int

type result = {
  decode_ns : float;
  decode_words : float;
  store_words : float;
  flight_events : float;
  kind_ns : float array;  (** mean ns per call, indexed like [kinds] *)
  spans : span list;
}

let batch = 32
let stream_ops = 100_000
let probe_ops = 10_000
let span_cap = 20_000

let run (spec : Gen.spec) ~seed ~heap =
  Obs.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.Flight.set_enabled true;
  List.iter
    (fun ext -> try Sys.remove (heap ^ ext) with Sys_error _ -> ())
    [ ".meta"; ".desc"; ".sb" ];
  let st = Store.open_store ~concurrent:true heap in
  let flight = Option.get (Ralloc.flight st.heap) in
  Pmem.set_fence_deferral true;
  let pinned = ref false and parked = ref 0 in
  let commit () =
    if !parked > 0 then ignore (Pmem.drain_deferred ());
    parked := 0;
    if !pinned then Option.iter Ebr.unpin st.smr;
    pinned := false
  in
  let write f =
    if not !pinned then Option.iter Ebr.pin st.smr;
    pinned := true;
    f ();
    incr parked
  in
  let exec = function
    | Proto.Get k -> ignore (Store.iget st k)
    | Proto.Sget k -> ignore (Store.sget st k)
    | Proto.Set (k, v) -> write (fun () -> Store.iset st k v)
    | Proto.Del k -> write (fun () -> ignore (Store.idel st k))
    | Proto.Sset (k, v) -> write (fun () -> Store.sset st k v)
    | Proto.Sdel _ | Proto.Stats | Proto.Flush | Proto.Ping -> ()
  in
  let maybe_commit () = if !parked >= batch then commit () in
  Array.iter
    (List.iter (fun op ->
         exec (to_proto op);
         maybe_commit ()))
    (Gen.preload spec ~seed);
  commit ();
  (* Gc.minor_words boxes its result: measure what one read costs *)
  let gc_cost =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let now = Obs.now_ns in
  let kind_sum = Array.make 5 0 and kind_n = Array.make 5 0 in
  let decode_sum = ref 0 and decode_w = ref 0. and store_w = ref 0. in
  let spans = ref [] and nspans = ref 0 in
  let span name t0 t1 =
    if !nspans < span_cap then begin
      incr nspans;
      spans := (name, t0, t1 - t0) :: !spans
    end
  in
  let step op =
    let enc = Proto.encode_request (to_proto op) in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let req = Proto.decode_request enc in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let req = match req with Ok r -> r | Error e -> failwith e in
    let t2 = now () in
    exec req;
    let t3 = now () in
    let w2 = Gc.minor_words () in
    decode_sum := !decode_sum + (t1 - t0);
    decode_w := !decode_w +. (w1 -. w0 -. gc_cost);
    store_w := !store_w +. (w2 -. w1 -. gc_cost);
    let k = kind op in
    kind_sum.(k) <- kind_sum.(k) + (t3 - t2);
    kind_n.(k) <- kind_n.(k) + 1;
    span "proto.decode" t0 t1;
    span ("store." ^ kinds.(k)) t2 t3;
    if !parked >= batch then begin
      let t4 = now () in
      commit ();
      span "core.commit" t4 (now ())
    end
  in
  let streams = Array.init Gen.conns (fun conn -> Gen.stream spec ~seed ~conn) in
  let f0 = Obs.Flight.total_recorded flight in
  for i = 0 to stream_ops - 1 do
    step (streams.(i mod Gen.conns) ())
  done;
  commit ();
  let per_op x = x /. float_of_int stream_ops in
  let decode_ns = per_op (float_of_int !decode_sum)
  and decode_words = per_op !decode_w
  and store_words = per_op !store_w
  and flight_events = per_op (float_of_int (Obs.Flight.total_recorded flight - f0)) in
  (* time the store calls the stream never makes on this workload's heap:
     string writes before string reads, so the reads find their keys *)
  let rs = Random.State.make [| seed; 0x960be |] in
  let ikey () = Random.State.int rs spec.int_keys in
  let skey () = Random.State.int rs (max spec.str_keys 1_000) in
  let probe k =
    match k with
    | 0 -> Gen.Get (ikey ())
    | 1 -> Gen.Set (ikey (), Gen.value rs)
    | 2 -> Gen.Del (ikey ())
    | 3 -> Gen.Sget (skey ())
    | _ -> Gen.Sset (skey (), Gen.value rs)
  in
  List.iter
    (fun k ->
      if kind_n.(k) = 0 then
        for _ = 1 to probe_ops do
          step (probe k)
        done)
    [ 4; 3; 1; 0; 2 ];
  commit ();
  Pmem.set_fence_deferral false;
  Ralloc.flush_thread_cache st.heap;
  Option.iter Ebr.flush st.smr;
  Store.close st;
  List.iter
    (fun ext -> try Sys.remove (heap ^ ext) with Sys_error _ -> ())
    [ ".meta"; ".desc"; ".sb" ];
  {
    decode_ns;
    decode_words;
    store_words;
    flight_events;
    kind_ns =
      Array.init 5 (fun k -> float_of_int kind_sum.(k) /. float_of_int (max 1 kind_n.(k)));
    spans = List.rev !spans;
  }
