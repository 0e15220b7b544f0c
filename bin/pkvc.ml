(* pkvc: client CLI for pkvd.

     pkvc set 10 42            pkvc sset name ralloc
     pkvc get 10               pkvc sget name
     pkvc del 10               pkvc sdel name
     pkvc stats                # Prometheus exposition from the server
     pkvc flush                # force a group commit on every worker
     pkvc ping
     pkvc watch                # live metrics-black-box dashboard
     pkvc load 10000           # bulk load over --conns connections

   Exit codes: 0 ok, 1 not found, 2 busy (backpressure), 3 server error.
   --retry N retries the initial connect (server still starting up). *)

module Proto = Server.Proto

let addr_of socket port =
  match port with
  | Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
  | None -> Unix.ADDR_UNIX socket

let connect ?(retries = 0) addr =
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0 ->
      Unix.close fd;
      Unix.sleepf 0.1;
      go (n - 1)
  in
  go retries

(* The server went away mid-conversation: end of stream, or a reset or
   broken pipe on the socket. *)
exception Disconnected of string

let () =
  Printexc.register_printer (function
    | Disconnected why -> Some ("pkvc: " ^ why)
    | _ -> None)

let rpc fd req =
  match
    Proto.write_frame fd (Proto.encode_request req);
    Proto.read_frame fd
  with
  | exception Unix.Unix_error (((ECONNRESET | EPIPE) as e), _, _) ->
    raise (Disconnected (Unix.error_message e))
  | None -> raise (Disconnected "server closed the connection")
  | Some payload -> (
    match Proto.decode_response payload with
    | Ok r -> r
    | Error e -> failwith ("pkvc: " ^ e))

let finish = function
  | Proto.Ok -> ()
  | Proto.Value v -> Printf.printf "%d\n" v
  | Proto.Svalue s -> print_endline s
  | Proto.Text s -> print_string s
  | Proto.Not_found ->
    prerr_endline "not found";
    exit 1
  | Proto.Busy ->
    prerr_endline "busy (queue full): retry";
    exit 2
  | Proto.Error e ->
    prerr_endline ("server error: " ^ e);
    exit 3

let one_shot socket port retries req =
  let fd = connect ~retries (addr_of socket port) in
  let resp = rpc fd req in
  Unix.close fd;
  finish resp

(* A STATS reply's Prometheus text as a flat table: metric name (labels
   included) -> value. *)
let parse_prom text =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 0 && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
          let name = String.sub line 0 i in
          match
            float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> Hashtbl.replace tbl name v
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  tbl

(* Bulk load: [conns] threads, each sending its slice of [n] synchronous
   SETs (ints, or strings with [--strings]); BUSY replies are retried with
   a small backoff — the client-side half of the backpressure contract.
   If the server goes away, each thread stops, the disconnect is reported
   once, and the load exits 1. *)
let cmd_load socket port retries n start conns strings =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = addr_of socket port in
  let slice = (n + conns - 1) / conns in
  let done_count = Atomic.make 0 in
  let lost = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let load_slice c =
    let fd = connect ~retries addr in
    let lo = start + (c * slice) in
    let hi = min (start + n) (lo + slice) in
    for k = lo to hi - 1 do
      let req =
        if strings then
          Proto.Sset (Printf.sprintf "key%d" k, Printf.sprintf "val%d" k)
        else Proto.Set (k, k * 2)
      in
      let rec send backoff =
        match rpc fd req with
        | Proto.Ok -> Atomic.incr done_count
        | Proto.Busy ->
          Unix.sleepf backoff;
          send (min 0.05 (backoff *. 2.))
        | Proto.Error e -> failwith ("pkvc load: " ^ e)
        | _ -> failwith "pkvc load: unexpected reply"
      in
      send 0.001
    done;
    Unix.close fd
  in
  let worker c =
    try load_slice c
    with Disconnected why ->
      if not (Atomic.exchange lost true) then
        Printf.eprintf "pkvc load: %s\n%!" why
  in
  let threads = List.init conns (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "loaded %d keys in %.3fs (%.0f ops/s)\n"
    (Atomic.get done_count) dt
    (float_of_int (Atomic.get done_count) /. dt);
  if Atomic.get lost then exit 1

(* Connection-scale bench: hold [conns] open connections while [active]
   of them do synchronous SET/GET traffic — the client half of the
   server_scale story.  The idle majority proves the event loops carry a
   large connection set; the active minority measures what that does to
   latency.  Once every connection is open, and before the load, it
   reports the server's own [server_conns] count; then ops/s and latency
   quantiles, then it pings a few idle connections to prove they survived
   the load. *)
let cmd_bench socket port retries conns active n keys =
  (* connections refused by admission control (BUSY + close) must show up
     in the report, not kill the client with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = addr_of socket port in
  let active = min active conns in
  let idle_n = conns - active in
  let idle = Array.init idle_n (fun _ -> connect ~retries addr) in
  let fds = Array.init active (fun _ -> connect ~retries addr) in
  (* the server's accepts can trail our connects, so poll its count over
     one of the held connections until it sees them all (or 10 s pass) *)
  let server_conns () =
    match rpc (if idle_n > 0 then idle.(0) else fds.(0)) Proto.Stats with
    | Proto.Text text -> (
      match Hashtbl.find_opt (parse_prom text) "server_conns" with
      | Some v -> int_of_float v
      | None -> 0)
    | _ | (exception _) -> 0
  in
  let rec held tries =
    let c = server_conns () in
    if c >= conns || tries = 0 then c
    else begin
      Unix.sleepf 0.05;
      held (tries - 1)
    end
  in
  Printf.printf "bench: server_conns %d with %d conns open\n%!" (held 200)
    conns;
  let slice = (n + active - 1) / active in
  let lat = Array.make_matrix active slice 0 in
  let counts = Array.make active 0 in
  let t0 = Unix.gettimeofday () in
  let worker c =
    let fd = fds.(c) in
    for i = 0 to slice - 1 do
      let k = (c * slice) + i in
      let req =
        if i land 1 = 0 then Proto.Set (k mod keys, k) else Proto.Get (k mod keys)
      in
      let rec send backoff =
        let s = Obs.now_ns () in
        match rpc fd req with
        | Proto.Busy ->
          Unix.sleepf backoff;
          send (min 0.05 (backoff *. 2.))
        | Proto.Error e -> failwith ("pkvc bench: " ^ e)
        | _ ->
          lat.(c).(counts.(c)) <- Obs.now_ns () - s;
          counts.(c) <- counts.(c) + 1
      in
      send 0.001
    done;
    Unix.close fd
  in
  let threads =
    List.init active (fun c ->
        Thread.create (fun c -> try worker c with _ -> ()) c)
  in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  let all =
    Array.concat
      (List.init active (fun c -> Array.sub lat.(c) 0 counts.(c)))
  in
  Array.sort compare all;
  let total = Array.length all in
  let q p =
    if total = 0 then 0
    else all.(min (total - 1) (int_of_float (p *. float_of_int total)))
  in
  (* the held-open connections must still be live after the storm *)
  let survivors = ref 0 in
  Array.iteri
    (fun i fd ->
      if i < 8 then (
        match rpc fd Proto.Ping with
        | Proto.Ok -> incr survivors
        | _ | (exception _) -> ())
      else incr survivors)
    idle;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) idle;
  Printf.printf
    "bench: %d conns held (%d idle, %d active), %d ops in %.3fs\n\
     %.0f ops/s  p50 %.1f us  p99 %.1f us  max %.1f us\n\
     idle connections alive after load: %s\n"
    conns idle_n active total dt
    (float_of_int total /. dt)
    (float_of_int (q 0.50) /. 1e3)
    (float_of_int (q 0.99) /. 1e3)
    (float_of_int (q 1.0) /. 1e3)
    (if !survivors = idle_n then "ok" else Printf.sprintf "LOST %d" (idle_n - !survivors))

(* ------------------------------ pkvc top ------------------------------- *)
(* A polling live view over the STATS reply: parse the Prometheus text
   into a flat table (metric name incl. quantile label -> value), diff
   consecutive samples for rates and per-stage shares, and redraw. *)

(* worker-indexed gauge series like server_queue_depth_w0, _w1, ... *)
let indexed tbl prefix =
  let lp = String.length prefix in
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > lp && String.sub k 0 lp = prefix then
        (String.sub k lp (String.length k - lp), v) :: acc
      else acc)
    tbl []
  |> List.sort compare

let stage_names = Server.Rtrace.stages

let render ~raw prev cur dt =
  if not raw then print_string "\027[2J\027[H";
  let g k = match Hashtbl.find_opt cur k with Some v -> v | None -> 0.0 in
  let d k =
    match prev with
    | Some p ->
      g k -. (match Hashtbl.find_opt p k with Some v -> v | None -> 0.0)
    | None -> g k
  in
  let rate k = if dt > 0.0 then d k /. dt else 0.0 in
  (match prev with
  | None -> Printf.printf "pkvd top — first sample (lifetime totals)\n"
  | Some _ -> Printf.printf "pkvd top — %.1fs window\n" dt);
  if prev = None then
    Printf.printf "  ops %.0f  writes %.0f  busy %.0f  commits %.0f\n"
      (g "server_ops") (g "server_writes") (g "server_busy")
      (g "server_commits")
  else
    Printf.printf "  ops/s %.0f  writes/s %.0f  busy/s %.0f  commits/s %.0f\n"
      (rate "server_ops") (rate "server_writes") (rate "server_busy")
      (rate "server_commits");
  let series label prefix =
    match indexed cur prefix with
    | [] -> ()
    | l ->
      Printf.printf "  %s:" label;
      List.iter (fun (w, v) -> Printf.printf " w%s=%.0f" w v) l;
      print_newline ()
  in
  series "queue depth" "server_queue_depth_w";
  series "batch fill" "server_batch_fill_w";
  List.iter
    (fun cls ->
      let sum st = Printf.sprintf "server_span_%s_sum_%s_ns" cls st in
      let tail st = Printf.sprintf "server_span_%s_tail_%s_ns" cls st in
      let q st q =
        Printf.sprintf "span_server_%s_%s_ns{quantile=\"%s\"}" cls st q
      in
      let tot = d (sum "total") and ttot = d (tail "total") in
      if tot > 0.0 then begin
        Printf.printf
          "  %s ops — total p50=%.0fus p99=%.0fus — stage share%% (tail%%):\n"
          cls
          (g (q "total" "0.5") /. 1e3)
          (g (q "total" "0.99") /. 1e3);
        Printf.printf "   ";
        Array.iter
          (fun st ->
            let share = 100.0 *. d (sum st) /. tot in
            let tshare = if ttot > 0.0 then 100.0 *. d (tail st) /. ttot else 0.0 in
            if share >= 0.05 || tshare >= 0.05 then
              Printf.printf " %s %.1f%% (%.1f%%)" st share tshare)
          stage_names;
        print_newline ()
      end)
    [ "write"; "read" ];
  flush stdout

(* ------------------------------ pkvc prof ------------------------------ *)
(* Top allocation sites from the server's heap profiler: pull STATS and
   pivot the prof_* families (one line per site per family) into a table
   sorted by estimated live bytes. *)

let cmd_prof socket port retries top =
  let fd = connect ~retries (addr_of socket port) in
  let text =
    match rpc fd Proto.Stats with
    | Proto.Text s -> s
    | _ -> failwith "pkvc prof: unexpected STATS reply"
  in
  Unix.close fd;
  let sites = Hashtbl.create 32 in
  (* family -> (site -> value), parsed from lines like
     prof_live_bytes{site="store.iset"} 123456 *)
  let scan line =
    let line = String.trim line in
    let take family =
      let pre = family ^ "{site=\"" in
      let lp = String.length pre in
      if String.length line > lp && String.sub line 0 lp = pre then
        match String.index_from_opt line lp '"' with
        | Some q ->
          let site = String.sub line lp (q - lp) in
          (match String.rindex_opt line ' ' with
          | Some i -> (
            match
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            with
            | Some v ->
              let row =
                match Hashtbl.find_opt sites site with
                | Some r -> r
                | None ->
                  let r = Hashtbl.create 4 in
                  Hashtbl.replace sites site r;
                  r
              in
              Hashtbl.replace row family v
            | None -> ())
          | None -> ())
        | None -> ()
    in
    List.iter take
      [ "prof_live_bytes"; "prof_live_blocks"; "prof_cum_bytes_total";
        "prof_cum_blocks_total" ]
  in
  List.iter scan (String.split_on_char '\n' text);
  if Hashtbl.length sites = 0 then
    print_endline
      "no profile data (start pkvd with --prof-rate, then apply some load)"
  else begin
    let rows =
      Hashtbl.fold
        (fun site row acc ->
          let g f =
            match Hashtbl.find_opt row f with Some v -> v | None -> 0.0
          in
          ( site,
            g "prof_live_bytes",
            g "prof_live_blocks",
            g "prof_cum_bytes_total",
            g "prof_cum_blocks_total" )
          :: acc)
        sites []
      |> List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare b a)
    in
    Printf.printf "%-28s %14s %12s %14s %12s\n" "site" "live_bytes"
      "live_blocks" "cum_bytes" "cum_blocks";
    List.iteri
      (fun i (site, lb, lk, cb, ck) ->
        if top = 0 || i < top then
          Printf.printf "%-28s %14.0f %12.0f %14.0f %12.0f\n" site lb lk cb ck)
      rows
  end

(* ----------------------------- pkvc watch ------------------------------ *)
(* Live dashboard over the metrics black box: poll STATS, pick out the
   tsdb_* ride-along gauges (the sampler's latest fine-ring sample per
   series) and the slo_breach_total counters, keep a short client-side
   history per series and redraw with sparklines — the online
   counterpart of rstat --timeline. *)

let spark_levels =
  [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left min (List.hd values) values
    and hi = List.fold_left max (List.hd values) values in
    String.concat ""
      (List.map
         (fun v ->
           let i =
             if hi = lo then 0
             else
               int_of_float
                 ((v -. lo) /. (hi -. lo)
                 *. float_of_int (Array.length spark_levels - 1))
           in
           spark_levels.(i))
         values)

let cmd_watch socket port retries interval count raw =
  if interval <= 0.0 then failwith "pkvc watch: interval must be positive";
  let fd = connect ~retries (addr_of socket port) in
  let raw = raw || not (Unix.isatty Unix.stdout) in
  let fetch () =
    match rpc fd Proto.Stats with
    | Proto.Text s -> parse_prom s
    | _ -> failwith "pkvc watch: unexpected STATS reply"
  in
  let history : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  let push name v =
    let h =
      match Hashtbl.find_opt history name with
      | Some h -> h
      | None ->
        let h = ref [] in
        Hashtbl.replace history name h;
        h
    in
    h := v :: !h;
    if List.length !h > 40 then h := List.filteri (fun i _ -> i < 40) !h
  in
  let i = ref 0 in
  while count = 0 || !i < count do
    let cur = fetch () in
    let series =
      Hashtbl.fold
        (fun k v acc ->
          if String.length k > 5 && String.sub k 0 5 = "tsdb_" then
            (String.sub k 5 (String.length k - 5), v) :: acc
          else acc)
        cur []
      |> List.sort compare
    in
    List.iter (fun (name, v) -> push name v) series;
    if not raw then print_string "\027[2J\027[H";
    if series = [] then
      print_endline
        "pkvd watch — no black-box series yet (sampler warming up?)"
    else begin
      Printf.printf "pkvd watch — metrics black box, latest sample per tick\n";
      List.iter
        (fun (name, v) ->
          let h =
            match Hashtbl.find_opt history name with
            | Some h -> List.rev !h
            | None -> []
          in
          Printf.printf "  %-26s %12.0f %s\n" name v (sparkline h))
        series
    end;
    let breaches =
      Hashtbl.fold
        (fun k v acc ->
          let pre = "slo_breach_total{rule=\"" in
          let lp = String.length pre in
          if String.length k > lp && String.sub k 0 lp = pre then
            match String.index_from_opt k lp '"' with
            | Some q -> (String.sub k lp (q - lp), v) :: acc
            | None -> acc
          else acc)
        cur []
      |> List.sort compare
    in
    if breaches <> [] then begin
      Printf.printf "  SLO breaches:";
      List.iter (fun (rule, v) -> Printf.printf " %s=%.0f" rule v) breaches;
      print_newline ()
    end;
    flush stdout;
    incr i;
    if count = 0 || !i < count then Unix.sleepf interval
  done;
  Unix.close fd

let cmd_top socket port retries interval count raw =
  if interval <= 0.0 then failwith "pkvc top: interval must be positive";
  let fd = connect ~retries (addr_of socket port) in
  let raw = raw || not (Unix.isatty Unix.stdout) in
  let fetch () =
    match rpc fd Proto.Stats with
    | Proto.Text s -> parse_prom s
    | _ -> failwith "pkvc top: unexpected STATS reply"
  in
  let prev = ref None in
  let i = ref 0 in
  while count = 0 || !i < count do
    let cur = fetch () in
    let now = Unix.gettimeofday () in
    (match !prev with
    | None -> render ~raw None cur 0.0
    | Some (p, t) -> render ~raw (Some p) cur (now -. t));
    prev := Some (cur, now);
    incr i;
    if count = 0 || !i < count then Unix.sleepf interval
  done;
  Unix.close fd

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string (Server.Heap_path.default_socket ())
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Connect to TCP 127.0.0.1:$(docv).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:"Retry a refused connect $(docv) times (0.1s apart).")

let key_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"KEY")
let value_arg = Arg.(required & pos 1 (some int) None & info [] ~docv:"VALUE")
let skey_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY")

let svalue_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE")

let common = Term.(const (fun s p r -> (s, p, r)) $ socket_arg $ port_arg $ retry_arg)

let cmds =
  [
    Cmd.v (Cmd.info "get" ~doc:"Fetch an int binding.")
      Term.(
        const (fun (s, p, r) k -> one_shot s p r (Proto.Get k))
        $ common $ key_arg);
    Cmd.v (Cmd.info "set" ~doc:"Store KEY -> VALUE durably (acked after commit).")
      Term.(
        const (fun (s, p, r) k v -> one_shot s p r (Proto.Set (k, v)))
        $ common $ key_arg $ value_arg);
    Cmd.v (Cmd.info "del" ~doc:"Delete an int binding.")
      Term.(
        const (fun (s, p, r) k -> one_shot s p r (Proto.Del k))
        $ common $ key_arg);
    Cmd.v (Cmd.info "sget" ~doc:"Fetch a string binding.")
      Term.(
        const (fun (s, p, r) k -> one_shot s p r (Proto.Sget k))
        $ common $ skey_arg);
    Cmd.v (Cmd.info "sset" ~doc:"Store a string binding durably.")
      Term.(
        const (fun (s, p, r) k v -> one_shot s p r (Proto.Sset (k, v)))
        $ common $ skey_arg $ svalue_arg);
    Cmd.v (Cmd.info "sdel" ~doc:"Delete a string binding.")
      Term.(
        const (fun (s, p, r) k -> one_shot s p r (Proto.Sdel k))
        $ common $ skey_arg);
    Cmd.v (Cmd.info "stats" ~doc:"Print server metrics (Prometheus format).")
      Term.(const (fun (s, p, r) -> one_shot s p r Proto.Stats) $ common);
    Cmd.v (Cmd.info "flush" ~doc:"Force a group commit on every worker.")
      Term.(const (fun (s, p, r) -> one_shot s p r Proto.Flush) $ common);
    Cmd.v (Cmd.info "ping" ~doc:"Check the server is up.")
      Term.(const (fun (s, p, r) -> one_shot s p r Proto.Ping) $ common);
    Cmd.v (Cmd.info "load" ~doc:"Bulk-load N keys over several connections.")
      Term.(
        const (fun (s, p, r) n start conns strings ->
            cmd_load s p r n start conns strings)
        $ common
        $ Arg.(value & pos 0 int 1000 & info [] ~docv:"N")
        $ Arg.(value & opt int 0 & info [ "start" ] ~docv:"K" ~doc:"First key.")
        $ Arg.(
            value & opt int 4
            & info [ "conns" ] ~docv:"C" ~doc:"Client connections.")
        $ Arg.(
            value & flag
            & info [ "strings" ] ~doc:"Load string bindings instead of ints."));
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "Connection-scale bench: hold $(b,--conns) open connections while \
            $(b,--active) of them run a 50/50 SET/GET load, then report \
            ops/s and latency quantiles and check the idle connections \
            survived.")
      Term.(
        const (fun (s, p, r) conns active n keys ->
            cmd_bench s p r conns active n keys)
        $ common
        $ Arg.(
            value & opt int 1024
            & info [ "conns" ] ~docv:"C"
                ~doc:"Connections to hold open (idle + active).")
        $ Arg.(
            value & opt int 64
            & info [ "active" ] ~docv:"A"
                ~doc:"Connections that actually send traffic.")
        $ Arg.(value & pos 0 int 50_000 & info [] ~docv:"N")
        $ Arg.(
            value & opt int 4096
            & info [ "keys" ] ~docv:"K" ~doc:"Key-space size."));
    Cmd.v
      (Cmd.info "prof"
         ~doc:
           "Top allocation sites from the server's sampling heap profiler \
            (pkvd --prof-rate), by estimated live bytes.")
      Term.(
        const (fun (s, p, r) top -> cmd_prof s p r top)
        $ common
        $ Arg.(
            value & opt int 20
            & info [ "top" ] ~docv:"N"
                ~doc:"Show only the $(docv) largest sites (0 = all)."));
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Live server view: ops/s, per-shard queue depths, batch fill, and \
            the request-stage latency breakdown, polled from STATS.")
      Term.(
        const (fun (s, p, r) interval count raw -> cmd_top s p r interval count raw)
        $ common
        $ Arg.(
            value & opt float 1.0
            & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling interval.")
        $ Arg.(
            value & opt int 0
            & info [ "count" ] ~docv:"N"
                ~doc:"Stop after $(docv) samples (0 = run until ^C).")
        $ Arg.(
            value & flag
            & info [ "raw" ]
                ~doc:"Append samples instead of redrawing (default off a tty)."));
    Cmd.v
      (Cmd.info "watch"
         ~doc:
           "Live dashboard over the server's metrics black box: the latest \
            persisted sample of every series (sparklined over the poll \
            history) plus SLO breach totals, polled from STATS.")
      Term.(
        const (fun (s, p, r) interval count raw ->
            cmd_watch s p r interval count raw)
        $ common
        $ Arg.(
            value & opt float 1.0
            & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling interval.")
        $ Arg.(
            value & opt int 0
            & info [ "count" ] ~docv:"N"
                ~doc:"Stop after $(docv) samples (0 = run until ^C).")
        $ Arg.(
            value & flag
            & info [ "raw" ]
                ~doc:"Append samples instead of redrawing (default off a tty)."));
  ]

let () =
  let info = Cmd.info "pkvc" ~doc:"pkvd client" in
  exit (Cmd.eval (Cmd.group info cmds))
