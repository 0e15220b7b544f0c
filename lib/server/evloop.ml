(* Readiness-notification event loop: three backends (epoll / poll /
   simulated) behind one interface.  See evloop.mli for the
   contract.  The C stubs release the OCaml runtime lock around the
   blocking syscalls and report errors as -errno (EINTR reads as "no
   events"); event entries are packed int64s: (fd << 2) | read | write. *)

type backend = Epoll | Poll | Sim

let backend_name = function
  | Epoll -> "epoll"
  | Poll -> "poll"
  | Sim -> "sim"

(* fds are small ints on Unix; the identity casts let us key hash tables
   and pack event words without a syscall (same idiom as the stdlib's
   internals; pkvd does not target Windows) *)
external int_of_fd : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

type evbuf =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external ep_create : unit -> int = "evl_epoll_create"
external ep_ctl : int -> int -> int -> int -> int = "evl_epoll_ctl"
external ep_wait : int -> evbuf -> int -> int -> int = "evl_epoll_wait"
external poll_fds : evbuf -> int -> int -> int = "evl_poll"

let mask_read = 1
let mask_write = 2

type t = {
  bk : backend;
  (* fd -> interest mask; the source of truth for poll/sim set
     construction and for [modify]'s change detection under epoll *)
  interest : (int, int) Hashtbl.t;
  epfd : int; (* Epoll only, else -1 *)
  mutable buf : evbuf;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;
  (* Sim only: latched readiness, produced by [sim_mark] from any
     thread, consumed (and cleared) by [wait] in the owner thread *)
  sim_m : Mutex.t;
  sim_ready : (int, int) Hashtbl.t;
}

let epoll_available =
  lazy
    (let fd = ep_create () in
     if fd >= 0 then begin
       (try Unix.close (fd_of_int fd) with Unix.Unix_error _ -> ());
       true
     end
     else false)

let default_backend () = if Lazy.force epoll_available then Epoll else Poll

let mkbuf n = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n

let create ?backend () =
  let bk = match backend with Some b -> b | None -> default_backend () in
  let epfd =
    match bk with
    | Epoll ->
      let fd = ep_create () in
      if fd < 0 then
        failwith (Printf.sprintf "Evloop: epoll_create failed (errno %d)" (-fd));
      fd
    | _ -> -1
  in
  let wake_r, wake_w =
    match bk with
    | Sim -> (Unix.stdin, Unix.stdin) (* unused: Sim wakes via the flag *)
    | _ ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      (r, w)
  in
  let t =
    {
      bk;
      interest = Hashtbl.create 64;
      epfd;
      buf = mkbuf 256;
      wake_r;
      wake_w;
      wake_pending = Atomic.make false;
      sim_m = Mutex.create ();
      sim_ready = Hashtbl.create 16;
    }
  in
  if bk = Epoll then begin
    let r = ep_ctl epfd 0 (int_of_fd wake_r) mask_read in
    if r < 0 then
      failwith (Printf.sprintf "Evloop: epoll_ctl(wakeup) failed (errno %d)" (-r))
  end;
  t

let backend t = t.bk

let mask ~read ~write =
  (if read then mask_read else 0) lor if write then mask_write else 0

let ctl_check r =
  if r < 0 then
    failwith (Printf.sprintf "Evloop: epoll_ctl failed (errno %d)" (-r))

let add t fd ~read ~write =
  let m = mask ~read ~write in
  Hashtbl.replace t.interest (int_of_fd fd) m;
  if t.bk = Epoll then ctl_check (ep_ctl t.epfd 0 (int_of_fd fd) m)

let modify t fd ~read ~write =
  let m = mask ~read ~write in
  let key = int_of_fd fd in
  match Hashtbl.find_opt t.interest key with
  | Some old when old = m -> ()
  | Some _ ->
    Hashtbl.replace t.interest key m;
    if t.bk = Epoll then ctl_check (ep_ctl t.epfd 1 key m)
  | None -> add t fd ~read ~write

let remove t fd =
  let key = int_of_fd fd in
  if Hashtbl.mem t.interest key then begin
    Hashtbl.remove t.interest key;
    if t.bk = Epoll then ignore (ep_ctl t.epfd 2 key 0);
    if t.bk = Sim then begin
      Mutex.lock t.sim_m;
      Hashtbl.remove t.sim_ready key;
      Mutex.unlock t.sim_m
    end
  end

let mem t fd = Hashtbl.mem t.interest (int_of_fd fd)
let size t = Hashtbl.length t.interest

let wakeup t =
  match t.bk with
  | Sim -> Atomic.set t.wake_pending true
  | _ ->
    (* coalesced: only the first wakeup since the last wait pays the
       pipe write; the flag is cleared by the waiter before draining *)
    if not (Atomic.exchange t.wake_pending true) then (
      try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
      with Unix.Unix_error _ -> ())

let drain_wake t =
  (* drain first, clear the flag after: the reverse order can consume a
     byte written by a producer that latched the flag between the two
     steps, leaving the flag stuck true with an empty pipe — every later
     wakeup would then skip its write and the loop would sleep a full
     timeout with work pending *)
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Atomic.set t.wake_pending false

let sim_mark ?(readable = false) ?(writable = false) t fd =
  if t.bk <> Sim then failwith "Evloop.sim_mark: not a Sim loop";
  let m = mask ~read:readable ~write:writable in
  Mutex.lock t.sim_m;
  let key = int_of_fd fd in
  let old = Option.value (Hashtbl.find_opt t.sim_ready key) ~default:0 in
  Hashtbl.replace t.sim_ready key (old lor m);
  Mutex.unlock t.sim_m;
  Atomic.set t.wake_pending true

(* deliver one packed event word to the callback; the wakeup channel is
   drained, not delivered *)
let deliver t cb word =
  let m = Int64.to_int (Int64.logand word 3L) in
  let fdi = Int64.to_int (Int64.shift_right_logical word 2) in
  if t.bk <> Sim && fdi = int_of_fd t.wake_r then begin
    drain_wake t;
    0
  end
  else begin
    cb (fd_of_int fdi)
      ~readable:(m land mask_read <> 0)
      ~writable:(m land mask_write <> 0);
    1
  end

let wait_epoll t ~timeout_ms cb =
  let n = ep_wait t.epfd t.buf 256 timeout_ms in
  if n < 0 then
    failwith (Printf.sprintf "Evloop: epoll_wait failed (errno %d)" (-n));
  let delivered = ref 0 in
  for i = 0 to n - 1 do
    delivered := !delivered + deliver t cb (Bigarray.Array1.get t.buf i)
  done;
  !delivered

let wait_poll t ~timeout_ms cb =
  let n = Hashtbl.length t.interest + 1 in
  if Bigarray.Array1.dim t.buf < n then
    t.buf <- mkbuf (max (2 * Bigarray.Array1.dim t.buf) n);
  let buf = t.buf in
  Bigarray.Array1.set buf 0
    (Int64.of_int ((int_of_fd t.wake_r lsl 2) lor mask_read));
  let i = ref 1 in
  Hashtbl.iter
    (fun fd m ->
      Bigarray.Array1.set buf !i (Int64.of_int ((fd lsl 2) lor m));
      incr i)
    t.interest;
  let r = poll_fds buf !i timeout_ms in
  if r < 0 then
    failwith (Printf.sprintf "Evloop: poll failed (errno %d)" (-r));
  let delivered = ref 0 in
  for j = 0 to r - 1 do
    delivered := !delivered + deliver t cb (Bigarray.Array1.get buf j)
  done;
  !delivered

let wait_sim t ~timeout_ms cb =
  let take () =
    Mutex.lock t.sim_m;
    let out = ref [] in
    Hashtbl.iter
      (fun fd m ->
        match Hashtbl.find_opt t.interest fd with
        | Some want ->
          let hit = m land want in
          if hit <> 0 then out := (fd, hit) :: !out
        | None -> ())
      t.sim_ready;
    List.iter (fun (fd, _) -> Hashtbl.remove t.sim_ready fd) !out;
    Mutex.unlock t.sim_m;
    !out
  in
  (* nap-poll until something is latched, a wakeup arrives, or the
     timeout passes; deterministic tests mark before waiting, so the
     first [take] already returns their events *)
  let deadline =
    if timeout_ms < 0 then infinity
    else Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.)
  in
  let rec go () =
    let evs = take () in
    if evs <> [] then begin
      List.iter
        (fun (fd, m) ->
          cb (fd_of_int fd)
            ~readable:(m land mask_read <> 0)
            ~writable:(m land mask_write <> 0))
        evs;
      List.length evs
    end
    else if Atomic.exchange t.wake_pending false then 0
    else if Unix.gettimeofday () >= deadline then 0
    else begin
      Thread.delay 0.001;
      go ()
    end
  in
  go ()

let wait t ~timeout_ms cb =
  match t.bk with
  | Epoll -> wait_epoll t ~timeout_ms cb
  | Poll -> wait_poll t ~timeout_ms cb
  | Sim -> wait_sim t ~timeout_ms cb

let close t =
  if t.bk = Epoll then (
    try Unix.close (fd_of_int t.epfd) with Unix.Unix_error _ -> ());
  if t.bk <> Sim then begin
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end;
  Hashtbl.reset t.interest
