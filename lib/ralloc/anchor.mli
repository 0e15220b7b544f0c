(** Packed superblock anchors (paper §4.2).

    The anchor is the single word of a descriptor on which all
    synchronization for the corresponding superblock happens, updated
    atomically with CAS.  It packs:

    - [avail]: index of the first block on the superblock's free list
      ({!no_block} if none);
    - [count]: number of free blocks on that list;
    - [state]: [Empty] (entirely free), [Partial], or [Full] (no free
      blocks — including the case where all free blocks currently sit in
      thread-local caches). *)

type state = Empty | Partial | Full

type t = { avail : int; count : int; state : state; tag : int }
(** [tag] is an ABA-avoidance version (28 bits, wraps), needed only by
    code paths that dereference a block's free-list link {e before} the
    anchor CAS — i.e. the no-thread-cache ("Michael's allocator") mode.
    The normal reserve-whole-list paths are ABA-safe regardless. *)

val no_block : int
(** Sentinel [avail] value meaning "free list is empty" (0xFFFF). *)

val pack : t -> int
(** Pack an anchor into one word for the descriptor's anchor slot. *)

val unpack : int -> t
(** Inverse of {!pack}. *)

val word_count : int -> int
(** [word_count w] is [(unpack w).count], read without building a record. *)

val word_state : int -> state
(** [word_state w] is [(unpack w).state], read without building a record. *)

val max_count : int
(** Largest representable [count] (65535 ≥ blocks per superblock). *)

val tag_mask : int
(** Mask of the ABA tag field (28 bits). *)

val pp : Format.formatter -> t -> unit
(** Human-readable anchor, for debug dumps and test failures. *)
