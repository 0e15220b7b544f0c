(* Pipelined pkvd client: one thread drives every connection, writing a
   batch of frames per connection and reading whatever replies are ready.
   A phase feeds requests on its own schedule (closed window or open-loop
   arrivals); each reply is checked against the model's prediction. *)

let now_ns = Obs.now_ns

type resp =
  | R_ok
  | R_value of int
  | R_svalue of string
  | R_missing
  | R_busy
  | R_text of string
  | R_error of string

type req = {
  op : Gen.op;
  expect : Gen.reply;
  prev : int;  (** model value of the op's slot before it (writes) *)
  due : int;  (** when the request was due to be sent, ns *)
  mutable sent : int;
}

type conn = {
  fd : Unix.file_descr;
  pending : req Queue.t;
  mutable fresh : req list;  (** queued in [out], not yet sent *)
  out : Buffer.t;
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Some
      {
        fd;
        pending = Queue.create ();
        fresh = [];
        out = Buffer.create 4096;
        rbuf = Bytes.create 65536;
        rpos = 0;
        rlen = 0;
      }
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ------------------------------- framing ------------------------------- *)

let frame b op body_len =
  Buffer.add_int32_be b (Int32.of_int (1 + body_len));
  Buffer.add_uint8 b op

let add_str b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

let encode b = function
  | Gen.Get k ->
    frame b 1 8;
    Buffer.add_int64_be b (Int64.of_int k)
  | Gen.Set (k, v) ->
    frame b 2 16;
    Buffer.add_int64_be b (Int64.of_int k);
    Buffer.add_int64_be b (Int64.of_int v)
  | Gen.Del k ->
    frame b 3 8;
    Buffer.add_int64_be b (Int64.of_int k)
  | Gen.Sget i ->
    let k = Gen.skey i in
    frame b 4 (4 + String.length k);
    add_str b k
  | Gen.Sset (i, v) ->
    let k = Gen.skey i and v = Gen.sval v in
    frame b 5 (8 + String.length k + String.length v);
    add_str b k;
    add_str b v

let flush c =
  let n = Buffer.length c.out in
  if n > 0 then begin
    let s = Buffer.contents c.out in
    Buffer.clear c.out;
    let sent = ref 0 in
    while !sent < n do
      sent := !sent + Unix.write_substring c.fd s !sent (n - !sent)
    done
  end

(* Pull whatever bytes are ready; false on EOF. *)
let fill c =
  if c.rpos > 0 && c.rpos = c.rlen then begin
    c.rpos <- 0;
    c.rlen <- 0
  end;
  if Bytes.length c.rbuf - c.rlen < 4096 then begin
    let live = c.rlen - c.rpos in
    let buf =
      if live + 4096 > Bytes.length c.rbuf then Bytes.create (2 * Bytes.length c.rbuf)
      else c.rbuf
    in
    Bytes.blit c.rbuf c.rpos buf 0 live;
    c.rbuf <- buf;
    c.rpos <- 0;
    c.rlen <- live
  end;
  let n = Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) in
  c.rlen <- c.rlen + n;
  n > 0

(* The next complete reply frame in the buffer, if any. *)
let next_reply c =
  let avail = c.rlen - c.rpos in
  if avail < 4 then None
  else
    let len = Int32.to_int (Bytes.get_int32_be c.rbuf c.rpos) in
    if avail < 4 + len then None
    else begin
      let p = c.rpos + 4 in
      let str () = Bytes.sub_string c.rbuf (p + 5) (Int32.to_int (Bytes.get_int32_be c.rbuf (p + 1))) in
      let r =
        match Bytes.get_uint8 c.rbuf p with
        | 0 -> R_ok
        | 1 -> R_value (Int64.to_int (Bytes.get_int64_be c.rbuf (p + 1)))
        | 2 -> R_svalue (str ())
        | 3 -> R_missing
        | 4 -> R_busy
        | 5 -> R_text (str ())
        | 6 -> R_error (str ())
        | n -> R_error (Printf.sprintf "unknown reply opcode %d" n)
      in
      c.rpos <- c.rpos + 4 + len;
      Some r
    end

(* A reply's value in model terms, for the post-crash read-back. *)
let observed = function
  | R_value v -> Some v
  | R_svalue s -> Some (Gen.sval_index s)
  | R_missing -> Some Gen.absent
  | R_ok | R_busy | R_text _ | R_error _ -> None

let matches (expect : Gen.reply) r =
  match (expect, r) with
  | Ok, R_ok | Missing, R_missing -> true
  | Value v, R_value w -> v = w
  | Svalue v, R_svalue s -> s = Gen.sval v
  | _ -> false

(* STATS on an idle connection: pkvd's Prometheus exposition. *)
let stats c =
  frame c.out 7 0;
  flush c;
  let rec wait () =
    match next_reply c with
    | Some (R_text s) -> s
    | Some _ -> failwith "STATS: unexpected reply"
    | None -> if fill c then wait () else failwith "pkvd closed the connection"
  in
  wait ()

(* ------------------------------- phases -------------------------------- *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let concat vs = { a = Array.concat (List.map (fun v -> Array.sub v.a 0 v.n) vs); n = List.fold_left (fun n v -> n + v.n) 0 vs }

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort (fun (x : int) y -> compare x y) a;
    a
end

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

type span = { s_op : Gen.op; s_conn : int; s_due : int; s_sent : int; s_done : int }

type phase = {
  mutable attempted : int;
  mutable acked : int;
  mutable failed : int;  (** no success reply, or a wrong one *)
  mutable wrong : int;  (** a success reply the model did not predict *)
  t_first : int;
  mutable t_last : int;  (** arrival of the last reply *)
  replies : Ivec.t;  (** arrival time of each reply *)
  lat : Ivec.t;  (** ns from due to reply, same order; failures count as max_int *)
  lag : Ivec.t;  (** ns from due to the write that sent it *)
  mutable spans : span list;
  mutable span_room : int;  (** spans still kept: 0 unless traced *)
  mutable accept : req -> resp -> bool;
}

let phase ?(trace = false) () =
  {
    attempted = 0;
    acked = 0;
    failed = 0;
    wrong = 0;
    t_first = now_ns ();
    t_last = 0;
    replies = Ivec.create ();
    lat = Ivec.create ();
    lag = Ivec.create ();
    spans = [];
    span_room = (if trace then 10_000 else 0);
    accept = (fun q r -> matches q.expect r);
  }

let push ph model c op ~due =
  let prev = Gen.read model (Gen.slot op) in
  let expect = Gen.apply model op in
  encode c.out op;
  ph.attempted <- ph.attempted + 1;
  let q = { op; expect; prev; due; sent = 0 } in
  Queue.push q c.pending;
  c.fresh <- q :: c.fresh

(* Write every connection's queued frames and stamp their send time. *)
let send ph conns =
  Array.iter
    (fun c ->
      if Buffer.length c.out > 0 then begin
        flush c;
        let t = now_ns () in
        List.iter
          (fun q ->
            q.sent <- t;
            Ivec.push ph.lag (t - q.due))
          c.fresh;
        c.fresh <- []
      end)
    conns

let settle ph ci c =
  let rec go () =
    match next_reply c with
    | None -> ()
    | Some r ->
      let q = Queue.pop c.pending in
      let t = now_ns () in
      ph.t_last <- t;
      Ivec.push ph.replies t;
      let success = match r with R_busy | R_error _ | R_text _ -> false | _ -> true in
      if success && ph.accept q r then begin
        ph.acked <- ph.acked + 1;
        Ivec.push ph.lat (t - q.due)
      end
      else begin
        if success then begin
          ph.wrong <- ph.wrong + 1;
          Printf.eprintf "pkvbench: wrong reply to %s\n%!" (Gen.op_name q.op)
        end;
        ph.failed <- ph.failed + 1;
        Ivec.push ph.lat max_int
      end;
      if ph.span_room > 0 then begin
        ph.span_room <- ph.span_room - 1;
        ph.spans <- { s_op = q.op; s_conn = ci; s_due = q.due; s_sent = q.sent; s_done = t } :: ph.spans
      end;
      go ()
  in
  go ()

(* Run one phase to completion.  [feed now] queues every request due at
   [now] and returns when the next one falls due: [max_int] while it
   waits on replies (closed loop), a negative number once it is done.
   Returns after the last queued request is answered. *)
let drive ph conns ~feed =
  let idle_limit = 10_000_000_000 in
  let rec go last_progress =
    let now = now_ns () in
    let next = feed now in
    send ph conns;
    let waiting = List.filter (fun (_, c) -> not (Queue.is_empty c.pending))
        (Array.to_list (Array.mapi (fun i c -> (i, c)) conns)) in
    if next < 0 && waiting = [] then ()
    else if now - last_progress > idle_limit then failwith "pkvd stopped answering"
    else begin
      let timeout =
        if next < 0 || next = max_int then 0.5
        else float_of_int (max 0 (next - now)) *. 1e-9
      in
      let fds = List.map (fun (_, c) -> c.fd) waiting in
      let ready, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun (i, c) ->
          if List.memq c.fd ready then begin
            if not (fill c) then failwith "pkvd closed the connection";
            settle ph i c
          end)
        waiting;
      go (if ready = [] then last_progress else now_ns ())
    end
  in
  go (now_ns ())

(* Closed loop: keep [window] requests in flight per connection, drawn
   from [next conn], until [stop_at] or until every source runs dry. *)
let closed ph model conns ~window ~next ~stop_at now =
  if now >= stop_at then -1
  else begin
    let live = ref false in
    Array.iteri
      (fun i c ->
        let rec top () =
          if Queue.length c.pending < window then
            match next i with
            | Some op ->
              push ph model c op ~due:now;
              live := true;
              top ()
            | None -> ()
          else live := true
        in
        top ())
      conns;
    if !live then max_int else -1
  end

(* Open loop: send each arrival at its scheduled time until [stop_at]. *)
let open_loop ph model conns ~gaps ~streams ~stop_at =
  let first_gap, first_conn = gaps () in
  let due = ref (ph.t_first + first_gap) and conn = ref first_conn in
  fun now ->
    while !due <= now && !due < stop_at do
      push ph model conns.(!conn) (streams.(!conn) ()) ~due:!due;
      let g, c = gaps () in
      due := !due + g;
      conn := c
    done;
    if !due >= stop_at then -1 else !due

(* Queue the ops of finite per-connection lists (preload, read-back). *)
let of_lists lists =
  let rest = Array.copy lists in
  fun i ->
    match rest.(i) with
    | [] -> None
    | op :: tl ->
      rest.(i) <- tl;
      Some op
