type request =
  | Get of int
  | Set of int * int
  | Del of int
  | Sget of string
  | Sset of string * string
  | Sdel of string
  | Stats
  | Flush
  | Ping

type response =
  | Ok
  | Value of int
  | Svalue of string
  | Not_found
  | Busy
  | Text of string
  | Error of string

let max_frame = 16 * 1024 * 1024

(* ------------------------------ encoding ------------------------------- *)

let put_i64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v asr (i * 8)) land 0xff))
  done

let put_str buf s =
  let n = String.length s in
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (i * 8)) land 0xff))
  done;
  Buffer.add_string buf s

let with_op op fill =
  let buf = Buffer.create 32 in
  Buffer.add_char buf (Char.chr op);
  fill buf;
  Buffer.contents buf

let encode_request = function
  | Get k -> with_op 1 (fun b -> put_i64 b k)
  | Set (k, v) ->
    with_op 2 (fun b ->
        put_i64 b k;
        put_i64 b v)
  | Del k -> with_op 3 (fun b -> put_i64 b k)
  | Sget k -> with_op 4 (fun b -> put_str b k)
  | Sset (k, v) ->
    with_op 5 (fun b ->
        put_str b k;
        put_str b v)
  | Sdel k -> with_op 6 (fun b -> put_str b k)
  | Stats -> with_op 7 (fun _ -> ())
  | Flush -> with_op 8 (fun _ -> ())
  | Ping -> with_op 9 (fun _ -> ())

let encode_response = function
  | Ok -> with_op 0 (fun _ -> ())
  | Value v -> with_op 1 (fun b -> put_i64 b v)
  | Svalue s -> with_op 2 (fun b -> put_str b s)
  | Not_found -> with_op 3 (fun _ -> ())
  | Busy -> with_op 4 (fun _ -> ())
  | Text s -> with_op 5 (fun b -> put_str b s)
  | Error s -> with_op 6 (fun b -> put_str b s)

(* ------------------------------ decoding ------------------------------- *)

(* A tiny cursor over the payload; every read is bounds-checked so a
   malformed frame yields [Error], never an exception. *)
type cursor = { s : string; mutable pos : int }

exception Malformed of string

let need c n =
  if c.pos + n > String.length c.s then
    raise (Malformed (Printf.sprintf "truncated payload at byte %d" c.pos))

let get_i64 c =
  need c 8;
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor Char.code c.s.[c.pos];
    c.pos <- c.pos + 1
  done;
  (* the shifts wrap modulo 2^63, which maps the 64-bit two's-complement
     pattern back onto the OCaml int that produced it *)
  !v

(* int keys index a [Dstruct.Nmtree], which holds [0, max_key] only; an
   out-of-range key is refused here rather than raising in a worker *)
let get_key c =
  let k = get_i64 c in
  if k < 0 || k > Dstruct.Nmtree.max_key then
    raise (Malformed (Printf.sprintf "int key %d out of range" k));
  k

let get_str c =
  need c 4;
  let n = ref 0 in
  for _ = 1 to 4 do
    n := (!n lsl 8) lor Char.code c.s.[c.pos];
    c.pos <- c.pos + 1
  done;
  if !n > max_frame then raise (Malformed "string length exceeds max_frame");
  need c !n;
  let s = String.sub c.s c.pos !n in
  c.pos <- c.pos + !n;
  s

let finish c v =
  if c.pos <> String.length c.s then
    raise (Malformed "trailing bytes after payload")
  else v

let decode : type a. what:string -> (int -> cursor -> a) -> string -> (a, string) result =
 fun ~what f s ->
  if s = "" then Stdlib.Error (what ^ ": empty payload")
  else
    let c = { s; pos = 1 } in
    match
      let v = f (Char.code s.[0]) c in
      finish c v
    with
    | v -> Stdlib.Ok v
    | exception Malformed m -> Stdlib.Error (what ^ ": " ^ m)

let decode_request =
  decode ~what:"request" (fun op c ->
      match op with
      | 1 -> Get (get_key c)
      | 2 ->
        let k = get_key c in
        Set (k, get_i64 c)
      | 3 -> Del (get_key c)
      | 4 -> Sget (get_str c)
      | 5 ->
        let k = get_str c in
        Sset (k, get_str c)
      | 6 -> Sdel (get_str c)
      | 7 -> Stats
      | 8 -> Flush
      | 9 -> Ping
      | n -> raise (Malformed (Printf.sprintf "unknown opcode %d" n)))

let decode_response =
  decode ~what:"response" (fun op c ->
      match op with
      | 0 -> Ok
      | 1 -> Value (get_i64 c)
      | 2 -> Svalue (get_str c)
      | 3 -> Not_found
      | 4 -> Busy
      | 5 -> Text (get_str c)
      | 6 -> Error (get_str c)
      | n -> raise (Malformed (Printf.sprintf "unknown opcode %d" n)))

(* ------------------------------ dispatch ------------------------------- *)

let is_write = function
  | Set _ | Del _ | Sset _ | Sdel _ -> true
  | Get _ | Sget _ | Stats | Flush | Ping -> false

let shard_key = function
  | Get k | Set (k, _) | Del k -> Some (Hashtbl.hash k)
  | Sget k | Sset (k, _) | Sdel k -> Some (Hashtbl.hash k)
  | Stats | Flush | Ping -> None

let op_name = function
  | Get _ -> "GET"
  | Set _ -> "SET"
  | Del _ -> "DEL"
  | Sget _ -> "SGET"
  | Sset _ -> "SSET"
  | Sdel _ -> "SDEL"
  | Stats -> "STATS"
  | Flush -> "FLUSH"
  | Ping -> "PING"

(* ------------------------------ framing -------------------------------- *)

let really_read fd buf off len =
  let got = ref 0 in
  while !got < len do
    let n = Unix.read fd buf (off + !got) (len - !got) in
    if n = 0 then failwith "pkvd protocol: truncated frame";
    got := !got + n
  done

let read_frame fd =
  let hdr = Bytes.create 4 in
  (* EOF is only clean at a frame boundary: read the first header byte
     separately so mid-header EOF is reported as truncation *)
  match Unix.read fd hdr 0 1 with
  | 0 -> None
  | _ ->
    really_read fd hdr 1 3;
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then failwith "pkvd protocol: frame exceeds max_frame";
    let payload = Bytes.create len in
    really_read fd payload 0 len;
    Some (Bytes.unsafe_to_string payload)

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Proto.write_frame: payload too large";
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 buf 4 len;
  let sent = ref 0 in
  let total = 4 + len in
  while !sent < total do
    sent := !sent + Unix.write fd buf !sent (total - !sent)
  done
