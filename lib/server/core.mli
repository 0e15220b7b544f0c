(** The pkvd server core: event-loop threads, sharded worker domains, and
    group-fenced write batching.

    {2 Request pipeline}

    Connections are owned by a small pool of event-loop systhreads
    ([loops]), each running an {!Evloop} readiness loop (epoll-backed on
    Linux) over its own set of non-blocking sockets.  Readable bytes are
    fed into a per-connection {!Conn} state machine; each decoded
    request is dispatched by key hash to one of a fixed pool of worker
    {e domains} through a bounded {!Squeue} (full queue → immediate BUSY
    reply — backpressure, not buffering).  Equal keys always land on the
    same worker, so per-key operations stay FIFO, and each connection's
    responses are released in request order by its {!Conn} ticket queue.
    Workers hand finished responses back to the owning loop through a
    completion inbox plus a coalesced {!Evloop.wakeup}; the loop encodes
    and writes the ack frames, resuming partial writes on the next
    writable event.

    Past [max_conns] live connections, new arrivals get one BUSY frame
    and an immediate close (admission control); the accept backlog is
    shared round-robin across the loops.

    {2 Group commit}

    Workers run with {!Pmem.set_fence_deferral} on: every store operation's
    post-publish release fence is elided and the write's ack is parked.
    When the batch reaches [batch] writes — or the oldest parked ack is
    [batch_usec] old — the worker {e commits}: one {!Pmem.drain_deferred}
    makes the whole batch durable, then all parked acks are released.  A
    client that saw OK is therefore guaranteed durability; a client that
    had not yet seen OK may find the write absent after a crash, but never
    torn (ordering fences inside each operation remain synchronous).
    Parked acks live first in the worker's batch, then (after the commit
    fence) in the connection's write queue: an ack can be buffered but
    never precedes its fence onto the wire.

    Workers hold an {!Ebr} pin for the whole batch, so tree nodes retired
    by an elided-fence delete cannot be recycled before the commit fence —
    the invariant that makes deferral crash-safe (see {!Pmem.fence_release}).

    {2 Shutdown}

    [stop `Graceful] (the SIGTERM path) stops accepting and dispatching,
    closes the queues, lets every worker drain, commit and release its
    cache, lets the loops flush the final acks (bounded by a drain
    deadline so an unresponsive client cannot wedge shutdown), then
    closes the heap cleanly.  [stop `Abrupt] abandons in-flight batches
    without a commit — the in-process stand-in for SIGKILL used by crash
    tests. *)

type config = {
  heap_path : string;
  heap_size : int;
  workers : int;  (** worker domains (queue shards) *)
  loops : int;  (** event-loop threads, each owning a connection set *)
  max_conns : int;
      (** admission-control cap on live connections; a connection
          accepted past the cap is sent one BUSY frame and closed *)
  batch : int;  (** max writes per group commit *)
  batch_usec : int;  (** max age of an unacked write before a forced commit *)
  queue_cap : int;  (** per-worker queue bound; overflow replies BUSY *)
  slow_us : int;
      (** slow-request log threshold, microseconds; 0 disables (see
          {!Rtrace.set_slow_us}) *)
  prof_rate : int;
      (** heap-provenance sampling rate in bytes ({!Obs.Prof}); 0 leaves
          the profiler off *)
  metrics_port : int option;
      (** when set, serve the Prometheus exposition as plain HTTP on
          127.0.0.1:port (GET /metrics), so scrapers need not speak the
          binary STATS protocol *)
  slo : string;
      (** SLO watchdog rules, evaluated once per sampler tick:
          comma-separated [key=threshold] clauses over the keys [p99_us]
          (p99 request latency, either op class, microseconds),
          [queue_depth] (any shard's queue depth) and [ext_frag]
          (census external fragmentation, a fraction), plus the bare
          flag [shed] — while the last tick breached any rule, new
          keyed requests are refused with BUSY.  Each breach increments
          a per-rule counter (exported as
          [slo_breach_total{rule="<key>"}]) and records an
          [slo_breach] event in the heap's flight recorder.  [""]
          disables the watchdog. *)
  tick_s : float;
      (** metrics-sampler tick interval in seconds: every tick, one
          checksummed sample of the standard series is persisted into
          the heap's {!Obs.Tsdb} black box and the SLO rules are
          evaluated *)
}

val default_config : ?heap_path:string -> unit -> config
(** 2 workers, 1 event loop, 8192-connection admission cap, batch 32,
    500 us deadline, queue bound 256, slow log off, profiler off, no
    metrics port, no SLO rules, 1 s sampler tick, heap at
    {!Heap_path.default_heap}. *)

type t

val start : ?config:config -> Unix.sockaddr -> t
(** Open (and if needed recover) the store, bind and listen on the given
    address (an existing Unix-domain socket file is replaced), and spawn
    the event-loop threads and worker domains.  Returns once serving.  A
    recovery is reported on stderr
    (["pkvd: dirty image recovered (N blocks, Ss)"]) before the socket
    listens. *)

val sockaddr : t -> Unix.sockaddr
(** The bound address (useful with an ephemeral TCP port). *)

val store : t -> Store.t
(** The underlying store (bench/test access; live server reads are safe,
    writes bypass batching and must be avoided). *)

val conns : t -> int
(** Live accepted connections across all loops (the [server.conns]
    gauge, read directly). *)

val stop : ?mode:[ `Graceful | `Abrupt ] -> t -> unit
(** Stop serving.  [`Graceful] (default) drains, commits and closes the
    heap; [`Abrupt] abandons uncommitted batches (their clients get an
    ERROR reply) and leaves the heap dirty — pair with
    {!Ralloc.crash_and_reopen} to simulate a crash in-process. *)
