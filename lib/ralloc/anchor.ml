type state = Empty | Partial | Full
type t = { avail : int; count : int; state : state; tag : int }

let no_block = 0xFFFF
let max_count = 0xFFFF
let tag_bits = 28
let tag_mask = (1 lsl tag_bits) - 1
let int_of_state = function Empty -> 0 | Partial -> 1 | Full -> 2
let state_of_int = function 0 -> Empty | 1 -> Partial | _ -> Full

let word_count w = (w lsr 16) land 0xFFFF
let word_state w = state_of_int ((w lsr 32) land 3)

let pack { avail; count; state; tag } =
  assert (avail >= 0 && avail <= 0xFFFF);
  assert (count >= 0 && count <= max_count);
  ((tag land tag_mask) lsl 34)
  lor (int_of_state state lsl 32)
  lor (count lsl 16) lor avail

let unpack w =
  {
    avail = w land 0xFFFF;
    count = word_count w;
    state = word_state w;
    tag = (w lsr 34) land tag_mask;
  }

let pp ppf { avail; count; state; tag } =
  Format.fprintf ppf "{avail=%d; count=%d; state=%s; tag=%d}"
    (if avail = no_block then -1 else avail)
    count
    (match state with Empty -> "EMPTY" | Partial -> "PARTIAL" | Full -> "FULL")
    tag
