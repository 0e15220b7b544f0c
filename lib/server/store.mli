(** The pkv/pkvd store: one persistent heap holding an ordered int map
    (Natarajan-Mittal tree at root 0) and a string map (persistent hash
    map at root 1), with open/recover/close shared between the one-shot
    CLI and the server.

    Reclamation mode is chosen at open:

    - [concurrent:false] (the CLI): single-domain use, removed nodes are
      freed immediately ([~reclaim:true]);
    - [concurrent:true] (the server): tree nodes are retired through EBR
      and string-map nodes are leaked to the post-crash GC — the modes
      under which the group-commit fence deferral ({!Pmem.fence_release})
      is crash-safe. *)

type t = {
  heap : Ralloc.t;
  tree : Dstruct.Nmtree.t;  (** ordered int map, root 0 *)
  smap : Dstruct.Phashmap.t;  (** string map, root 1 *)
  smr : Ebr.t option;  (** present iff opened [concurrent] *)
  status : Ralloc.status;  (** what {!open_store} found at [path] *)
  recovery : Ralloc.recovery_stats option;
      (** recovery report when [status] was [Dirty_restart] *)
}

val default_size : int
(** Default heap capacity (64 MiB). *)

val open_store : ?concurrent:bool -> ?size:int -> string -> t
(** [open_store path] creates or re-opens the heap at [path], running
    {!Ralloc.recover} first when the previous process died dirty.
    [concurrent] (default [false]) selects the reclamation mode above. *)

val close : t -> unit
(** Graceful close ({!Ralloc.close}); callers must have quiesced and
    drained worker domains first ({!Ralloc.flush_thread_cache}). *)

val iset : t -> int -> int -> unit
(** Bind an int key, replacing any existing binding ({!Dstruct.Nmtree.set}:
    an overwrite is one in-place store).  Crash invariant: an overwrite
    cut short before its batch's fence reads back as the old value or the
    new one, never as absent. *)

val iget : t -> int -> int option
(** Look up an int key in the ordered map. *)

val idel : t -> int -> bool
(** Remove an int key; [true] if it was bound. *)

val sset : t -> string -> string -> unit
(** Bind a string key, replacing any existing binding. *)

val sget : t -> string -> string option
(** Look up a string key in the string map. *)

val sdel : t -> string -> bool
(** Remove a string key; [true] if it was bound. *)
