(** pkvd wire protocol: length-prefixed binary frames.

    Every message (either direction) is one {e frame}: a 4-byte big-endian
    payload length followed by the payload.  The payload's first byte is an
    opcode; integers are 8-byte big-endian two's complement, strings are a
    4-byte big-endian length followed by that many bytes.

    Requests:
    {v
      op  name   body
      1   GET    key:i64
      2   SET    key:i64 value:i64
      3   DEL    key:i64
      4   SGET   key:str
      5   SSET   key:str value:str
      6   SDEL   key:str
      7   STATS  (empty)          -> Text (Prometheus exposition)
      8   FLUSH  (empty)          -> Ok after every worker committed
      9   PING   (empty)          -> Ok
    v}

    Responses:
    {v
      op  name       body
      0   OK         (empty)
      1   VALUE      value:i64
      2   SVALUE     value:str
      3   NOT_FOUND  (empty)
      4   BUSY       (empty)      worker queue full: retry later
      5   TEXT       text:str
      6   ERROR      message:str
    v}

    Write acks ([OK] for SET/SSET, [OK]/[NOT_FOUND] for DEL/SDEL) are sent
    only after the enclosing group commit's fence — a client that saw the
    ack is guaranteed the write survives any crash. *)

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

val max_frame : int
(** Maximum accepted payload length (16 MiB); larger frames are a protocol
    error and close the connection. *)

val encode_request : request -> string
(** Serialize a request payload (without the length prefix). *)

val decode_request : string -> (request, string) result
(** Parse a request payload; [Error] describes the malformation.  A
    GET/SET/DEL key outside [\[0, Dstruct.Nmtree.max_key\]] is one: the
    int-keyed index cannot hold it. *)

val encode_response : response -> string
(** Serialize a response payload (without the length prefix). *)

val decode_response : string -> (response, string) result
(** Parse a response payload. *)

val is_write : request -> bool
(** Whether the request mutates the store (its ack must wait for the group
    commit). *)

val shard_key : request -> int option
(** Dispatch hash for keyed requests — equal keys always map to the same
    worker, preserving per-key FIFO order (read-your-writes within a
    connection).  [None] for control requests (STATS/FLUSH/PING). *)

val op_name : request -> string
(** Wire name of the request's opcode ([GET], [SET], ...), for logs and
    trace labels. *)

val read_frame : Unix.file_descr -> string option
(** Read one frame payload; [None] on clean EOF at a frame boundary.
    @raise Failure on oversized frames or truncated input. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (length prefix + payload), handling short writes. *)
