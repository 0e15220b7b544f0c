(* Server core: N event-loop systhreads own non-blocking connections and
   drive their Conn state machines from an Evloop readiness loop; decoded
   requests are dispatched to worker domains through key-sharded bounded
   queues; workers batch writes and commit them with one deferred-fence
   drain (group commit), handing acks back to the owning loop through a
   completion list + wakeup.  See core.mli for the contract. *)

type config = {
  heap_path : string;
  heap_size : int;
  workers : int;
  loops : int;
  max_conns : int;
  batch : int;
  batch_usec : int;
  queue_cap : int;
  slow_us : int;
  prof_rate : int;
  metrics_port : int option;
  slo : string;
  tick_s : float;
}

let default_config ?heap_path () =
  {
    heap_path =
      (match heap_path with Some p -> p | None -> Heap_path.default_heap ());
    heap_size = Store.default_size;
    workers = 2;
    loops = 1;
    max_conns = 8192;
    batch = 32;
    batch_usec = 500;
    queue_cap = 256;
    slow_us = 0;
    prof_rate = 0;
    metrics_port = None;
    slo = "";
    tick_s = 1.0;
  }

(* ------------------------------ telemetry ------------------------------ *)

let hist_op_ns = Obs.Histogram.make "server.op_ns"
let hist_ack_ns = Obs.Histogram.make "server.ack_ns"
let hist_batch = Obs.Histogram.make "server.batch_size"
let hist_wake_ns = Obs.Histogram.make "server.loop_wake_ns"
let hist_ready = Obs.Histogram.make "server.ready_batch"
let ctr_ops = Obs.Counter.make "server.ops"
let ctr_writes = Obs.Counter.make "server.writes"
let ctr_busy = Obs.Counter.make "server.busy"
let ctr_commits = Obs.Counter.make "server.commits"
let ctr_proto_errors = Obs.Counter.make "server.proto_errors"
let ctr_accepts = Obs.Counter.make "server.accepts"
let ctr_admission_busy = Obs.Counter.make "server.admission_busy"
let gauge_conns = Obs.Gauge.make "server.conns"

(* ---------------------------- SLO watchdog ----------------------------- *)

(* One rule per [--slo] clause.  [r_value] reads the current observable;
   it is built once the sampler exists, so it can resolve series by
   index.  Breach counts live in Obs counters ([server.slo_breach.<k>]),
   re-rendered as [slo_breach_total{rule="<k>"}] in the Prometheus text. *)
type slo_rule = {
  r_name : string;
  r_thresh : float;
  r_ctr : Obs.Counter.t;
  mutable r_value : unit -> float;
}

let slo_keys = [ "p99_us"; "queue_depth"; "ext_frag" ]

(* Grammar: comma-separated [key=threshold] clauses plus the bare flag
   [shed]; keys are {!slo_keys}.  Returns the rules and the shed flag.
   @raise Invalid_argument on an unknown key or unparsable threshold. *)
let parse_slo spec =
  let shed = ref false in
  let rules =
    String.split_on_char ',' spec
    |> List.filter_map (fun clause ->
           let clause = String.trim clause in
           if clause = "" then None
           else if clause = "shed" then begin
             shed := true;
             None
           end
           else
             match String.index_opt clause '=' with
             | None ->
               invalid_arg
                 (Printf.sprintf "--slo: expected key=value, got %S" clause)
             | Some i ->
               let k = String.sub clause 0 i
               and v = String.sub clause (i + 1) (String.length clause - i - 1)
               in
               if not (List.mem k slo_keys) then
                 invalid_arg (Printf.sprintf "--slo: unknown key %S" k);
               let thresh =
                 match float_of_string_opt v with
                 | Some f -> f
                 | None ->
                   invalid_arg
                     (Printf.sprintf "--slo: bad threshold %S for %s" v k)
               in
               Some
                 {
                   r_name = k;
                   r_thresh = thresh;
                   r_ctr = Obs.Counter.make ("server.slo_breach." ^ k);
                   r_value = (fun () -> 0.);
                 })
  in
  (Array.of_list rules, !shed)

(* ----------------------------- work items ------------------------------ *)

(* One item per in-flight request.  [reply] is how the worker hands the
   response back: it enqueues a completion on the owning event loop and
   wakes it — immediately for reads, at commit for writes.  (The old
   per-request mailbox blocked a connection thread; a state machine has
   nothing to block.) *)
type item = {
  req : Proto.request;
  reply : Proto.response -> unit;
  enq_ns : int;
  ctx : Rtrace.ctx;
}

(* ---------------------------- event loops ------------------------------ *)

external int_of_fd : Unix.file_descr -> int = "%identity"

(* One per accepted connection, owned by exactly one loop thread. *)
type conn_entry = {
  ce_fd : Unix.file_descr;
  ce_conn : Conn.t;
  mutable ce_closed : bool;
  (* trace context of the frame currently being assembled; born when its
     first bytes arrive, so the accept stage measures frame assembly *)
  mutable ce_ctx : Rtrace.ctx;
}

type loop_state = {
  l_id : int;
  l_ev : Evloop.t;
  l_conns : (int, conn_entry) Hashtbl.t;
  l_scratch : Bytes.t;
  l_gauge : Obs.Gauge.t;
  (* cross-thread inboxes, drained by the owner after every wait *)
  l_m : Mutex.t;
  mutable l_comps : (conn_entry * Conn.ticket * Proto.response) list;
  mutable l_newfds : Unix.file_descr list;
  mutable l_unlistened : bool; (* loop 0: listener deregistered on stop *)
}

type t = {
  cfg : config;
  st : Store.t;
  queues : item Squeue.t array;
  depth_gauges : Obs.Gauge.t array;
  batch_gauges : Obs.Gauge.t array;
  listen_fd : Unix.file_descr;
  addr : Unix.sockaddr;
  metrics_fd : Unix.file_descr option;
  mutable metrics_thread : Thread.t option;
  mutable domains : unit Domain.t array;
  loops : loop_state array;
  mutable loop_threads : Thread.t list;
  live_conns : int Atomic.t;
  next_loop : int Atomic.t;
  stopping : bool Atomic.t;
  abandon : bool Atomic.t; (* `Abrupt stop: skip the final commit *)
  drained : bool Atomic.t; (* workers joined; loops may exit once idle *)
  mutable drain_deadline : float;
  slo_rules : slo_rule array;
  slo_shed : bool; (* --slo ...,shed: breaches turn new requests BUSY *)
  shedding : bool Atomic.t; (* set while the last tick breached a rule *)
  mutable sampler_thread : Thread.t option;
  (* latest sampler snapshot for the [tsdb_*] Prometheus ride-along:
     series names parallel to the last tick's values (single writer —
     the sampler thread; readers tolerate a mid-tick mix) *)
  mutable series_names : string array;
  mutable series_latest : int array;
}

(* ------------------------------ workers -------------------------------- *)

(* Worker-side nested span: the group-commit drain, visible on the worker
   track in Chrome traces (request stages live on their own lanes). *)
let sp_commit = Obs.Span.stage "server.commit"

let worker_loop srv wid q =
  Pmem.set_fence_deferral true;
  let st = srv.st in
  let pending = ref [] (* parked write acks, newest first *)
  and batch_n = ref 0
  and pinned = ref false
  and deadline = ref infinity in
  let batch_g = srv.batch_gauges.(wid) in
  let ensure_pinned () =
    if not !pinned then begin
      (match st.smr with Some e -> Ebr.pin e | None -> ());
      pinned := true
    end
  in
  let release_acks to_resp =
    List.iter
      (fun (reply, resp, enq_ns, ctx) ->
        Obs.Histogram.record hist_ack_ns (Obs.now_ns () - enq_ns);
        Rtrace.mark_release ctx;
        reply (to_resp resp))
      (List.rev !pending);
    pending := [];
    batch_n := 0;
    Obs.Gauge.set batch_g 0;
    deadline := infinity
  in
  let commit () =
    if !batch_n > 0 || Pmem.deferred_fences () > 0 then begin
      if Obs.Span.on () then begin
        (* time the drain and credit every parked request with its
           amortized share — the batch pays one fence, each op owns
           drain/batch of it; the rest of the park interval is fill wait *)
        Obs.Span.enter sp_commit;
        let d0 = Obs.now_ns () in
        ignore (Pmem.drain_deferred ());
        let dur = Obs.now_ns () - d0 in
        Obs.Span.leave sp_commit;
        let share = dur / max 1 !batch_n in
        List.iter (fun (_, _, _, ctx) -> Rtrace.add_fence_share ctx share)
          !pending
      end
      else ignore (Pmem.drain_deferred ());
      Obs.Counter.incr ctr_commits;
      Obs.Histogram.record hist_batch !batch_n
    end;
    (* durability first, then let EBR recycle, then tell the clients *)
    if !pinned then begin
      (match st.smr with Some e -> Ebr.unpin e | None -> ());
      pinned := false
    end;
    release_acks Fun.id
  in
  let park item resp =
    (* service is over; sink must be closed before a batch-full commit
       drains fences that belong to the whole batch, not this op *)
    Rtrace.mark_service_end item.ctx;
    Rtrace.sink_close item.ctx;
    ensure_pinned ();
    pending := (item.reply, resp, item.enq_ns, item.ctx) :: !pending;
    incr batch_n;
    Obs.Gauge.set batch_g !batch_n;
    Obs.Counter.incr ctr_writes;
    if !batch_n = 1 then
      deadline :=
        Unix.gettimeofday () +. (float_of_int srv.cfg.batch_usec *. 1e-6);
    if !batch_n >= srv.cfg.batch then commit ()
  in
  let reply item resp =
    Rtrace.mark_service_end item.ctx;
    Rtrace.sink_close item.ctx;
    Rtrace.mark_release item.ctx;
    item.reply resp
  in
  let handle item =
    let t0 = Obs.now_ns () in
    Obs.Counter.incr ctr_ops;
    Rtrace.mark_dequeue item.ctx;
    Rtrace.sink_open item.ctx;
    (match item.req with
    | Proto.Get k ->
      reply item
        (match Store.iget st k with
        | Some v -> Proto.Value v
        | None -> Proto.Not_found)
    | Proto.Sget k ->
      reply item
        (match Store.sget st k with
        | Some v -> Proto.Svalue v
        | None -> Proto.Not_found)
    | Proto.Set (k, v) ->
      ensure_pinned ();
      Store.iset st k v;
      park item Proto.Ok
    | Proto.Del k ->
      ensure_pinned ();
      let existed = Store.idel st k in
      park item (if existed then Proto.Ok else Proto.Not_found)
    | Proto.Sset (k, v) ->
      ensure_pinned ();
      Store.sset st k v;
      park item Proto.Ok
    | Proto.Sdel k ->
      ensure_pinned ();
      let existed = Store.sdel st k in
      park item (if existed then Proto.Ok else Proto.Not_found)
    | Proto.Flush ->
      commit ();
      reply item Proto.Ok
    | Proto.Stats | Proto.Ping ->
      (* control requests are answered by the event-loop side *)
      reply item Proto.Ok);
    Obs.Histogram.record hist_op_ns (Obs.now_ns () - t0)
  in
  let rec loop () =
    let timeout_s =
      if !deadline = infinity then infinity
      else max 0. (!deadline -. Unix.gettimeofday ())
    in
    match Squeue.pop_opt q ~timeout_s with
    | Some item ->
      handle item;
      loop ()
    | None ->
      if Squeue.closed q then begin
        (* drained; final commit unless the stop abandoned the batch *)
        if Atomic.get srv.abandon then
          release_acks (fun _ -> Proto.Error "server shutting down")
        else begin
          commit ();
          Ralloc.flush_thread_cache st.heap;
          match st.smr with Some e -> Ebr.flush e | None -> ()
        end
      end
      else begin
        commit () (* batch deadline expired *);
        loop ()
      end
  in
  loop ();
  (* turning deferral off drains outstanding elided fences — exactly wrong
     for an abandoned (crash-modelling) batch, so skip it there; the domain
     is terminating either way *)
  if not (Atomic.get srv.abandon) then Pmem.set_fence_deferral false

(* ----------------------------- stats text ------------------------------ *)

let prom_sanitize s = String.map (fun c -> if c = '.' then '_' else c) s

let stats_text srv =
  Array.iteri
    (fun i q -> Obs.Gauge.set srv.depth_gauges.(i) (Squeue.length q))
    srv.queues;
  Obs.Gauge.set gauge_conns (Atomic.get srv.live_conns);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.prometheus ppf;
  Format.pp_print_flush ppf ();
  (* ride-alongs the generic registry cannot express: the black box's
     latest fine-ring sample per series, and labelled breach totals *)
  let names = srv.series_names and latest = srv.series_latest in
  Array.iteri
    (fun i name ->
      if i < Array.length latest then
        Buffer.add_string buf
          (Printf.sprintf "tsdb_%s %d\n" (prom_sanitize name) latest.(i)))
    names;
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "slo_breach_total{rule=\"%s\"} %d\n" r.r_name
           (Obs.Counter.read r.r_ctr)))
    srv.slo_rules;
  Buffer.contents buf

(* --------------------------- loop plumbing ----------------------------- *)

(* Completions cross the worker-domain → loop-thread boundary here: the
   producer appends under the loop's mutex and wakes it (the wakeup is
   coalesced inside Evloop, so releasing a 64-ack batch costs one pipe
   write, not 64). *)
let complete lp ce tk resp =
  Mutex.lock lp.l_m;
  lp.l_comps <- (ce, tk, resp) :: lp.l_comps;
  Mutex.unlock lp.l_m;
  Evloop.wakeup lp.l_ev

let close_conn srv lp ce =
  if not ce.ce_closed then begin
    ce.ce_closed <- true;
    Evloop.remove lp.l_ev ce.ce_fd;
    Hashtbl.remove lp.l_conns (int_of_fd ce.ce_fd);
    (try Unix.close ce.ce_fd with Unix.Unix_error _ -> ());
    Atomic.decr srv.live_conns;
    Obs.Gauge.set gauge_conns (Atomic.get srv.live_conns);
    Obs.Gauge.set lp.l_gauge (Hashtbl.length lp.l_conns)
  end

let update_interest srv lp ce =
  if not ce.ce_closed then
    Evloop.modify lp.l_ev ce.ce_fd
      ~read:(Conn.want_read ce.ce_conn && not (Atomic.get srv.stopping))
      ~write:(Conn.want_write ce.ce_conn)

(* Write as much of the encoded-ack backlog as the socket accepts;
   partial writes leave the remainder for the next writable event.  A
   frame's trace ends when its last byte reaches the kernel. *)
let rec flush_writes srv lp ce =
  if not ce.ce_closed then
    match Conn.write_chunk ce.ce_conn with
    | None -> ()
    | Some (buf, off, len) -> (
      match Unix.write ce.ce_fd buf off len with
      | n ->
        List.iter Rtrace.finish (Conn.advance_write ce.ce_conn n);
        if n = len then flush_writes srv lp ce
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_writes srv lp ce
      | exception Unix.Unix_error _ -> close_conn srv lp ce)

(* Route one decoded request.  Control requests resolve here, in the loop
   thread; keyed requests go to their shard's worker, which replies
   through [complete]. *)
let dispatch srv lp ce payload ctx =
  let conn = ce.ce_conn in
  let fulfil_now tk resp = Conn.fulfil conn tk resp in
  match Proto.decode_request payload with
  | Error msg ->
    Obs.Counter.incr ctr_proto_errors;
    fulfil_now (Conn.enqueue conn Rtrace.null) (Proto.Error msg)
  | Ok req -> (
    match req with
    | Proto.Ping -> fulfil_now (Conn.enqueue conn ctx) Proto.Ok
    | Proto.Stats ->
      fulfil_now (Conn.enqueue conn ctx) (Proto.Text (stats_text srv))
    | Proto.Flush ->
      (* commit barrier: every worker must drain its current batch; the
         ack resolves when the last worker reports in *)
      let tk = Conn.enqueue conn ctx in
      let left = Atomic.make (Array.length srv.queues) in
      let done_one _resp =
        if Atomic.fetch_and_add left (-1) = 1 then complete lp ce tk Proto.Ok
      in
      Array.iter
        (fun q ->
          if
            not
              (Squeue.push_force q
                 {
                   req = Proto.Flush;
                   reply = done_one;
                   enq_ns = Obs.now_ns ();
                   ctx = Rtrace.null;
                 })
          then done_one Proto.Ok)
        srv.queues
    | _ when Atomic.get srv.shedding ->
      (* SLO shedding: the watchdog saw a breach last tick; refuse keyed
         work up front instead of letting the queues amplify the overload *)
      Obs.Counter.incr ctr_busy;
      fulfil_now (Conn.enqueue conn ctx) Proto.Busy
    | _ -> (
      match Proto.shard_key req with
      | None -> fulfil_now (Conn.enqueue conn ctx) (Proto.Error "unroutable request")
      | Some h ->
        let q = srv.queues.(h mod Array.length srv.queues) in
        let tk = Conn.enqueue conn ctx in
        Rtrace.mark_enqueue ctx;
        let reply resp = complete lp ce tk resp in
        if Squeue.try_push q { req; reply; enq_ns = Obs.now_ns (); ctx }
        then
          (* classified only on successful enqueue: a BUSY reply has no
             worker-side stages and must not be attributed *)
          Rtrace.set_class ctx (if Proto.is_write req then `Write else `Read)
        else begin
          Obs.Counter.incr ctr_busy;
          Conn.fulfil conn tk Proto.Busy
        end))

(* Extract every complete frame the pipeline bound allows.  A frame's
   trace context is born when its first bytes arrive, so the accept
   stage covers frame assembly across however many readiness events it
   takes. *)
let rec parse srv lp ce =
  if not ce.ce_closed then begin
    let conn = ce.ce_conn in
    if Conn.buffered_bytes conn > 0 && not (Rtrace.is_live ce.ce_ctx) then begin
      let ctx = Rtrace.make () in
      Rtrace.mark_read_begin ctx;
      ce.ce_ctx <- ctx
    end;
    if Conn.can_dispatch conn && not (Atomic.get srv.stopping) then
      match Conn.next_frame conn with
      | `Frame payload ->
        let ctx = ce.ce_ctx in
        ce.ce_ctx <- Rtrace.null;
        Rtrace.mark_read_end ctx;
        dispatch srv lp ce payload ctx;
        parse srv lp ce
      | `Need_more -> ()
      | `Error _ ->
        Obs.Counter.incr ctr_proto_errors;
        close_conn srv lp ce
  end

(* Post-event settling: dispatch what became parseable, write what became
   writable, then either retire the drained connection or refresh its
   readiness interest.

   Parse and flush must run to a joint fixpoint, not once each: writing
   acks frees pipeline slots (inflight is decremented as ack bytes leave),
   and a deeply pipelined client may have more frames already buffered
   than [max_pipeline].  Those frames will never be re-announced by the
   poller — the socket is empty — so if this pass stops while capacity is
   free and frames are buffered, the connection wedges permanently.  The
   loop terminates because every iteration strictly shrinks the buffer or
   the in-flight count; when neither moves (partial frame, or the socket
   refused the backlog) progress can only come from a future readiness
   event, and we stop. *)
let service srv lp ce =
  let rec settle () =
    let b0 = Conn.buffered_bytes ce.ce_conn
    and i0 = Conn.inflight ce.ce_conn in
    parse srv lp ce;
    flush_writes srv lp ce;
    if
      (not ce.ce_closed)
      && Conn.buffered_bytes ce.ce_conn > 0
      && Conn.can_dispatch ce.ce_conn
      && (Conn.buffered_bytes ce.ce_conn < b0
         || Conn.inflight ce.ce_conn < i0)
    then settle ()
  in
  if not ce.ce_closed then settle ();
  if not ce.ce_closed then
    if Conn.eof ce.ce_conn && Conn.idle ce.ce_conn then close_conn srv lp ce
    else update_interest srv lp ce

(* One read per readiness event: the multiplexers are level-triggered, so
   a socket with more buffered bytes is re-reported on the next wait, and
   a single firehose connection cannot monopolize its loop. *)
let read_event srv lp ce =
  (match Unix.read ce.ce_fd lp.l_scratch 0 (Bytes.length lp.l_scratch) with
  | 0 -> Conn.set_eof ce.ce_conn
  | n -> Conn.feed ce.ce_conn lp.l_scratch 0 n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> close_conn srv lp ce);
  service srv lp ce

let attach _srv lp fd =
  let ce =
    { ce_fd = fd; ce_conn = Conn.create (); ce_closed = false; ce_ctx = Rtrace.null }
  in
  Hashtbl.replace lp.l_conns (int_of_fd fd) ce;
  Evloop.add lp.l_ev fd ~read:true ~write:false;
  Obs.Gauge.set lp.l_gauge (Hashtbl.length lp.l_conns)

(* Accept everything pending (the listener is level-triggered too, but
   draining it here keeps the accept backlog short under a connect
   storm).  Admission control: past [max_conns] the client gets one
   best-effort BUSY frame and an immediate close — the wire-visible
   analogue of queue-full backpressure. *)
let accept_burst srv lp =
  let rec go () =
    match Unix.accept ~cloexec:false srv.listen_fd with
    | fd, _ ->
      Obs.Counter.incr ctr_accepts;
      if Atomic.get srv.stopping then (
        try Unix.close fd with Unix.Unix_error _ -> ())
      else if Atomic.get srv.live_conns >= srv.cfg.max_conns then begin
        Obs.Counter.incr ctr_admission_busy;
        (try Proto.write_frame fd (Proto.encode_response Proto.Busy)
         with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end
      else begin
        Unix.set_nonblock fd;
        Atomic.incr srv.live_conns;
        Obs.Gauge.set gauge_conns (Atomic.get srv.live_conns);
        let li =
          Atomic.fetch_and_add srv.next_loop 1 mod Array.length srv.loops
        in
        let target = srv.loops.(li) in
        if li = lp.l_id then attach srv target fd
        else begin
          Mutex.lock target.l_m;
          target.l_newfds <- fd :: target.l_newfds;
          Mutex.unlock target.l_m;
          Evloop.wakeup target.l_ev
        end
      end;
      go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> () (* listener closed (stop) *)
  in
  go ()

let drain_inboxes srv lp =
  Mutex.lock lp.l_m;
  let comps = List.rev lp.l_comps and fds = List.rev lp.l_newfds in
  lp.l_comps <- [];
  lp.l_newfds <- [];
  Mutex.unlock lp.l_m;
  List.iter (fun fd -> attach srv lp fd) fds;
  (* fulfil first so consecutive acks for one connection coalesce into a
     single write burst, then settle each touched connection once *)
  List.iter
    (fun (ce, tk, resp) ->
      if not ce.ce_closed then Conn.fulfil ce.ce_conn tk resp)
    comps;
  let touched = Hashtbl.create 16 in
  List.iter
    (fun ((ce : conn_entry), _, _) ->
      if not ce.ce_closed then
        Hashtbl.replace touched (int_of_fd ce.ce_fd) ce)
    comps;
  Hashtbl.iter (fun _ ce -> service srv lp ce) touched

(* Stop condition for a loop: the server is stopping, the workers are
   drained (so no completion can still be in flight), both inboxes are
   empty and every connection has flushed its acks — or the drain
   deadline passed (a client that stops reading cannot wedge shutdown). *)
let loop_done srv lp =
  Atomic.get srv.stopping
  && Atomic.get srv.drained
  &&
  let idle =
    Mutex.lock lp.l_m;
    let inbox_empty = lp.l_comps = [] && lp.l_newfds = [] in
    Mutex.unlock lp.l_m;
    inbox_empty
    && Hashtbl.fold
         (fun _ ce acc -> acc && not (Conn.want_write ce.ce_conn))
         lp.l_conns true
  in
  idle || Unix.gettimeofday () > srv.drain_deadline

let loop_run srv lp =
  let listen_key = int_of_fd srv.listen_fd in
  if lp.l_id = 0 then Evloop.add lp.l_ev srv.listen_fd ~read:true ~write:false;
  let on_ready fd ~readable ~writable =
    let key = int_of_fd fd in
    if key = listen_key && lp.l_id = 0 then accept_burst srv lp
    else
      match Hashtbl.find_opt lp.l_conns key with
      | None -> ()
      | Some ce ->
        if writable then flush_writes srv lp ce;
        if readable && not ce.ce_closed then read_event srv lp ce
        else if not ce.ce_closed then service srv lp ce
  in
  let finished = ref false in
  while not !finished do
    let n = Evloop.wait lp.l_ev ~timeout_ms:200 on_ready in
    let t0 = Obs.now_ns () in
    if n > 0 then Obs.Histogram.record hist_ready n;
    if Atomic.get srv.stopping && lp.l_id = 0 && not lp.l_unlistened then begin
      lp.l_unlistened <- true;
      Evloop.remove lp.l_ev srv.listen_fd
    end;
    drain_inboxes srv lp;
    Obs.Histogram.record hist_wake_ns (Obs.now_ns () - t0);
    if loop_done srv lp then finished := true
  done;
  (* reap whatever is left (idle conns, or deadline-expired stragglers) *)
  let leftovers = Hashtbl.fold (fun _ ce acc -> ce :: acc) lp.l_conns [] in
  List.iter (fun ce -> close_conn srv lp ce) leftovers;
  Evloop.close lp.l_ev

(* ---------------------------- /metrics HTTP ---------------------------- *)

(* Minimal plain-HTTP exposition of the Prometheus dump (--metrics-port):
   scrapers should not need the binary STATS protocol.  Polling acceptor;
   each request is served inline — responses are one small text body and
   the socket carries a receive timeout, so a stalled scraper cannot
   wedge the loop for long. *)
let serve_metrics srv fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
  (* read (and ignore) the request head; GET /metrics and anything else
     get the same body, which is all a scraper needs from us *)
  (try ignore (Unix.read fd (Bytes.create 4096) 0 4096)
   with Unix.Unix_error _ -> ());
  let body = stats_text srv in
  let resp =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      (String.length body) body
  in
  try ignore (Unix.write_substring fd resp 0 (String.length resp))
  with Unix.Unix_error _ -> ()

let metrics_loop srv fd =
  let rec loop () =
    if Atomic.get srv.stopping then ()
    else
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept fd with
        | cfd, _ ->
          Unix.clear_nonblock cfd;
          (try serve_metrics srv cfd with _ -> ());
          (try Unix.close cfd with Unix.Unix_error _ -> ());
          loop ()
        | exception
            Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          loop ()
        | exception _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception _ -> ()
  in
  loop ()

(* ---------------------------- sampler thread --------------------------- *)

(* One systhread snapshots the declared series into the heap's metrics
   black box every [cfg.tick_s] seconds and evaluates the SLO rules
   against the tick.  A tick is bounded work — one census walk, a
   handful of counter reads, four line flushes and one fence — and the
   sleep is chopped into 50 ms naps so [stop] is honoured within one
   interval.  The allocator/pmem series come from the same
   [Ralloc.tsdb_sources] snapshot path the bench ticker uses; the server
   adds its own: per-class ops/s and p99 from [Rtrace], the live
   connection count, per-shard queue depth and batch fill. *)
let sampler_loop srv db =
  let rate read =
    let last = ref (read ()) in
    fun dt ->
      let v = read () in
      let d = v - !last in
      last := v;
      if dt <= 0. then 0 else int_of_float (float_of_int d /. dt)
  in
  (* the black box holds Obs.Tsdb.max_series slots; cap the per-shard
     series so a wide --workers cannot blow the budget *)
  let shards = min (Array.length srv.queues) 4 in
  let sources =
    Ralloc.tsdb_sources srv.st.heap
    @ [
        ("server.read_ops_s", rate (fun () -> Rtrace.ops `Read));
        ("server.write_ops_s", rate (fun () -> Rtrace.ops `Write));
        ("server.p99_read_us", fun _ -> Rtrace.total_quantile `Read 0.99 / 1000);
        ( "server.p99_write_us",
          fun _ -> Rtrace.total_quantile `Write 0.99 / 1000 );
        ("server.conns", fun _ -> Atomic.get srv.live_conns);
      ]
    @ List.concat
        (List.init shards (fun i ->
             [
               ( Printf.sprintf "server.queue_depth.w%d" i,
                 fun _ -> Squeue.length srv.queues.(i) );
               ( Printf.sprintf "server.batch_fill.w%d" i,
                 fun _ -> Obs.Gauge.read srv.batch_gauges.(i) );
             ]))
  in
  let sampler = Obs.Tsdb.Sampler.create db sources in
  srv.series_names <- Array.of_list (List.map fst sources);
  (* resolve each rule's observable against the sampler once; rules read
     the latest tick through [srv.series_latest] *)
  let latest name =
    match Obs.Tsdb.Sampler.index sampler name with
    | Some i when i < Array.length srv.series_latest ->
      float_of_int srv.series_latest.(i)
    | _ -> 0.
  in
  let max_of names () = List.fold_left (fun a n -> Float.max a (latest n)) 0. names in
  Array.iter
    (fun r ->
      match r.r_name with
      | "p99_us" ->
        r.r_value <- max_of [ "server.p99_read_us"; "server.p99_write_us" ]
      | "queue_depth" ->
        r.r_value <-
          max_of
            (List.init shards (fun i -> Printf.sprintf "server.queue_depth.w%d" i))
      | "ext_frag" -> r.r_value <- (fun () -> latest "alloc.ext_frag_pm" /. 1000.)
      | _ -> ())
    srv.slo_rules;
  let tick () =
    Array.iteri
      (fun i q -> Obs.Gauge.set srv.depth_gauges.(i) (Squeue.length q))
      srv.queues;
    Obs.Gauge.set gauge_conns (Atomic.get srv.live_conns);
    let values = Obs.Tsdb.Sampler.tick sampler in
    if Array.length values > 0 then srv.series_latest <- values;
    let breached = ref false in
    Array.iteri
      (fun ri r ->
        let v = r.r_value () in
        if v > r.r_thresh then begin
          breached := true;
          Obs.Counter.incr r.r_ctr;
          Ralloc.flight_record srv.st.heap ~kind:Obs.Flight.Kind.slo_breach
            ~a:ri ~b:(int_of_float v)
            ~c:(int_of_float r.r_thresh)
            ()
        end)
      srv.slo_rules;
    if srv.slo_shed then Atomic.set srv.shedding !breached
  in
  let rec loop next =
    if Atomic.get srv.stopping then ()
    else begin
      Thread.delay 0.05;
      let now = Unix.gettimeofday () in
      if now >= next then begin
        (try tick () with _ -> ());
        loop (now +. srv.cfg.tick_s)
      end
      else loop next
    end
  in
  loop (Unix.gettimeofday () +. srv.cfg.tick_s)

(* ------------------------------ lifecycle ------------------------------ *)

let start ?config addr =
  let cfg =
    match config with Some c -> c | None -> default_config ()
  in
  if cfg.workers < 1 then invalid_arg "Core.start: need at least one worker";
  if cfg.loops < 1 then invalid_arg "Core.start: need at least one event loop";
  if cfg.max_conns < 1 then invalid_arg "Core.start: need max_conns >= 1";
  (* a serving daemon always wants its telemetry (STATS replies would be
     empty otherwise) and its black boxes — the flight recorder and the
     metrics timeline are what the post-mortem tooling reads after a
     kill -9; OBS_DISABLED still hard-overrides all of it *)
  Obs.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.Flight.set_enabled true;
  Obs.Tsdb.set_enabled true;
  let slo_rules, slo_shed = parse_slo cfg.slo in
  if cfg.prof_rate > 0 then begin
    Obs.Prof.set_rate cfg.prof_rate;
    Obs.Prof.set_enabled true
  end;
  (* a dead client's closed socket must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st = Store.open_store ~concurrent:true ~size:cfg.heap_size cfg.heap_path in
  (* reported before the socket listens: a client may kill the server as
     soon as it answers, and must still find the report in its log *)
  (match st.recovery with
  | Some r ->
    Printf.eprintf "pkvd: dirty image recovered (%d blocks, %.3fs)\n%!"
      r.reachable_blocks
      (r.trace_seconds +. r.rebuild_seconds)
  | None -> ());
  let domain_of_sockaddr = function
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let listen_fd = Unix.socket (domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | _ -> ());
  Unix.bind listen_fd addr;
  Unix.listen listen_fd 1024;
  Unix.set_nonblock listen_fd;
  let queues = Array.init cfg.workers (fun _ -> Squeue.create cfg.queue_cap) in
  let depth_gauges =
    Array.init cfg.workers (fun i ->
        Obs.Gauge.make (Printf.sprintf "server.queue_depth.w%d" i))
  in
  Array.iteri (fun i q -> Squeue.set_gauge q depth_gauges.(i)) queues;
  let batch_gauges =
    Array.init cfg.workers (fun i ->
        Obs.Gauge.make (Printf.sprintf "server.batch_fill.w%d" i))
  in
  Rtrace.set_slow_us cfg.slow_us;
  Rtrace.set_flight (Ralloc.flight st.heap);
  let metrics_fd =
    match cfg.metrics_port with
    | None -> None
    | Some port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16;
      Unix.set_nonblock fd;
      Some fd
  in
  let loops =
    Array.init cfg.loops (fun i ->
        {
          l_id = i;
          l_ev = Evloop.create ();
          l_conns = Hashtbl.create 256;
          l_scratch = Bytes.create 65536;
          l_gauge = Obs.Gauge.make (Printf.sprintf "server.conns.l%d" i);
          l_m = Mutex.create ();
          l_comps = [];
          l_newfds = [];
          l_unlistened = false;
        })
  in
  let srv =
    {
      cfg;
      st;
      queues;
      depth_gauges;
      batch_gauges;
      listen_fd;
      addr = Unix.getsockname listen_fd;
      metrics_fd;
      metrics_thread = None;
      domains = [||];
      loops;
      loop_threads = [];
      live_conns = Atomic.make 0;
      next_loop = Atomic.make 0;
      stopping = Atomic.make false;
      abandon = Atomic.make false;
      drained = Atomic.make false;
      drain_deadline = infinity;
      slo_rules;
      slo_shed;
      shedding = Atomic.make false;
      sampler_thread = None;
      series_names = [||];
      series_latest = [||];
    }
  in
  Obs.register_derived "server.fences_per_op" (fun () ->
      let ops = Obs.Counter.read ctr_writes in
      if ops = 0 then 0.
      else
        let s = Ralloc.stats st.heap in
        float_of_int s.fences /. float_of_int ops);
  srv.domains <-
    Array.mapi (fun i q -> Domain.spawn (fun () -> worker_loop srv i q)) queues;
  srv.loop_threads <-
    Array.to_list
      (Array.map (fun lp -> Thread.create (fun () -> loop_run srv lp) ()) loops);
  (match metrics_fd with
  | Some fd -> srv.metrics_thread <- Some (Thread.create (fun () -> metrics_loop srv fd) ())
  | None -> ());
  (match Ralloc.tsdb st.heap with
  | Some db ->
    srv.sampler_thread <- Some (Thread.create (fun () -> sampler_loop srv db) ())
  | None -> ());
  srv

let sockaddr t = t.addr
let store t = t.st
let conns t = Atomic.get t.live_conns

let stop ?(mode = `Graceful) t =
  if not (Atomic.exchange t.stopping true) then begin
    if mode = `Abrupt then Atomic.set t.abandon true;
    (* loops see [stopping] on their next wake: loop 0 deregisters the
       listener, every loop stops dispatching new frames, but all of
       them keep pumping completions and ack writes *)
    Array.iter (fun lp -> Evloop.wakeup lp.l_ev) t.loops;
    (match t.metrics_thread with Some th -> Thread.join th | None -> ());
    (match t.sampler_thread with Some th -> Thread.join th | None -> ());
    (* workers: drain (or abandon) and exit; their release_acks feed the
       loops' completion inboxes, which are still being served *)
    Array.iter Squeue.close t.queues;
    Array.iter Domain.join t.domains;
    (* now nothing can produce another completion: let the loops flush
       the last acks and exit — bounded by the drain deadline so a
       client that stopped reading cannot wedge shutdown *)
    t.drain_deadline <- Unix.gettimeofday () +. 2.0;
    Atomic.set t.drained true;
    Array.iter (fun lp -> Evloop.wakeup lp.l_ev) t.loops;
    List.iter Thread.join t.loop_threads;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.metrics_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.addr with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ());
    if mode = `Graceful then Store.close t.st
  end
