(* pkvd: the long-running pkv server daemon.

   Serves the persistent KV heap over a Unix-domain (default) or TCP
   socket with group-fenced write batching — see lib/server/core.mli for
   the pipeline and durability contract.  SIGTERM/SIGINT drain every
   worker's batch, commit it, and close the heap cleanly; a SIGKILL (or
   power loss) leaves a dirty image that the next open recovers. *)

let run heap size socket port workers loops max_conns batch batch_usec
    queue_cap slow_us trace prof_rate metrics_port slo tick_s =
  let addr =
    match port with
    | Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
    | None -> Unix.ADDR_UNIX socket
  in
  let config =
    {
      (Server.Core.default_config ~heap_path:heap ()) with
      heap_size = size;
      workers;
      loops;
      max_conns;
      batch;
      batch_usec;
      queue_cap;
      slow_us;
      prof_rate;
      metrics_port;
      slo;
      tick_s;
    }
  in
  (* request-span trace events only exist while Obs.Trace is buffering;
     the buffer is dumped as Chrome trace_event JSON at graceful stop.
     Size the ring up front: a wrapped ring drops the oldest events,
     which can orphan a request's stage spans from their op.* parent. *)
  if trace <> None then begin
    Obs.Trace.set_capacity 65_536;
    Obs.Trace.set_enabled true
  end;
  let srv = Server.Core.start ~config addr in
  Printf.eprintf
    "pkvd: serving %s on %s (%d workers, %d %s loop%s, max %d conns, batch %d, \
     %d us)\n\
     %!"
    heap
    (match addr with
    | Unix.ADDR_UNIX p -> p
    | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p)
    workers loops
    (Server.Evloop.backend_name (Server.Evloop.default_backend ()))
    (if loops = 1 then "" else "s")
    max_conns batch batch_usec;
  if prof_rate > 0 then
    Printf.eprintf "pkvd: heap profiler on (1 sample / %d bytes)\n%!" prof_rate;
  if slo <> "" then Printf.eprintf "pkvd: SLO watchdog on (%s)\n%!" slo;
  (match metrics_port with
  | Some p -> Printf.eprintf "pkvd: metrics on http://127.0.0.1:%d/metrics\n%!" p
  | None -> ());
  let quit = Atomic.make false in
  let request_stop _ = Atomic.set quit true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  while not (Atomic.get quit) do
    Unix.sleepf 0.05
  done;
  Printf.eprintf "pkvd: draining and closing\n%!";
  Server.Core.stop srv;
  match trace with
  | Some path ->
    Obs.Trace.write_chrome_trace path;
    Printf.eprintf "pkvd: wrote Chrome trace to %s\n%!" path
  | None -> ()

open Cmdliner

let heap_arg =
  Arg.(
    value
    & opt string (Server.Heap_path.default_heap ())
    & info [ "heap" ] ~docv:"PATH" ~doc:"Heap file path prefix.")

let size_arg =
  Arg.(
    value
    & opt int Server.Store.default_size
    & info [ "size" ] ~docv:"BYTES" ~doc:"Heap capacity for a fresh store.")

let socket_arg =
  Arg.(
    value
    & opt string (Server.Heap_path.default_socket ())
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on TCP 127.0.0.1:$(docv) instead of the Unix socket.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (queue shards).")

let loops_arg =
  Arg.(
    value & opt int 1
    & info [ "loops" ] ~docv:"N"
        ~doc:
          "Event-loop threads; each owns a share of the connections \
           (accepts are dealt round-robin).")

let max_conns_arg =
  Arg.(
    value & opt int 8192
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Admission-control cap on live connections: a connection accepted \
           past the cap is sent one BUSY frame and closed.")

let batch_arg =
  Arg.(
    value & opt int 32
    & info [ "batch" ] ~docv:"N"
        ~doc:"Writes per group commit: one fence makes $(docv) writes durable.")

let batch_usec_arg =
  Arg.(
    value & opt int 500
    & info [ "batch-usec" ] ~docv:"T"
        ~doc:"Max age of an unacked write before a forced commit.")

let queue_cap_arg =
  Arg.(
    value & opt int 256
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Per-worker queue bound; overflow returns BUSY.")

let slow_us_arg =
  Arg.(
    value & opt int 0
    & info [ "slow-us" ] ~docv:"T"
        ~doc:
          "Log any request slower than $(docv) microseconds to stderr (and \
           the flight recorder) with its full stage breakdown; 0 disables.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Buffer request-stage span events and write them as Chrome \
           trace_event JSON to $(docv) on graceful shutdown.")

let prof_rate_arg =
  Arg.(
    value & opt int 0
    & info [ "prof-rate" ] ~docv:"BYTES"
        ~doc:
          "Enable the sampling heap profiler: attribute roughly one \
           allocation per $(docv) allocated bytes to its store-operation \
           site, durably (survives SIGKILL; see rstat --prof).  0 \
           disables.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve the Prometheus exposition over plain HTTP on \
           127.0.0.1:$(docv) (GET /metrics).")

let slo_arg =
  Arg.(
    value & opt string ""
    & info [ "slo" ] ~docv:"RULES"
        ~doc:
          "SLO watchdog rules, e.g. $(b,p99_us=500,queue_depth=128): \
           comma-separated key=threshold clauses over p99_us, queue_depth \
           and ext_frag, checked once per metrics tick.  Breaches are \
           counted (slo_breach_total in /metrics) and recorded durably in \
           the flight recorder; add the bare flag $(b,shed) to refuse new \
           requests with BUSY while a rule is breached.")

let tick_arg =
  Arg.(
    value & opt float 1.0
    & info [ "tick" ] ~docv:"SECONDS"
        ~doc:
          "Metrics sampler cadence: every $(docv) seconds one fine sample \
           of every standard series is persisted to the heap's metrics \
           black box (see rstat --timeline) and the SLO rules are \
           evaluated.")

let () =
  let doc = "Crash-recoverable persistent KV server with group commit" in
  let info = Cmd.info "pkvd" ~doc in
  let term =
    Term.(
      const run $ heap_arg $ size_arg $ socket_arg $ port_arg $ workers_arg
      $ loops_arg $ max_conns_arg $ batch_arg $ batch_usec_arg $ queue_cap_arg
      $ slow_us_arg $ trace_arg $ prof_rate_arg $ metrics_port_arg $ slo_arg
      $ tick_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
