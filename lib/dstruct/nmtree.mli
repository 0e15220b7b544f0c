(** A lock-free, leaf-oriented (external) binary search tree after
    Natarajan & Mittal (PPoPP'14), persistent on Ralloc with
    position-independent edges (paper §6.4, Fig. 6b).

    Internal nodes route; leaves hold key/value pairs.  Deletion marks
    {e edges} rather than nodes: a {b flag} bit on the edge to the leaf
    under deletion, a {b tag} bit on its sibling edge; both live in the
    spare bits of the off-holder word and are CASed together with the
    pointer.  The tree contains three sentinel keys larger than any client
    key.

    Reclamation: nodes detached by a delete are freed only when [reclaim]
    was set at creation (safe for single-domain use); otherwise they are
    leaked and reclaimed by the next post-crash GC — the paper's
    recommended division of labour between allocator and SMR. *)

type t

val max_key : int
(** Largest client key (sentinels occupy the three ints above it). *)

val create : ?reclaim:bool -> ?smr:Ebr.t -> Ralloc.t -> root:int -> t
(** With [smr], detached nodes are retired through epoch-based
    reclamation and every operation runs epoch-protected: full lock-free
    concurrency {e with} memory reuse.  [reclaim] without [smr] frees
    immediately (single-domain use only); neither leaks to the GC. *)

val attach : ?reclaim:bool -> ?smr:Ebr.t -> Ralloc.t -> root:int -> t
(** Re-attach to a tree previously created at [root] (e.g. after a
    restart).  Registers the tree's filter function for recovery, so call
    this {e before} {!Ralloc.recover} on a dirty heap. *)

val insert : t -> int -> int -> bool
(** [insert t key value]: false if [key] was already present.
    @raise Invalid_argument on keys above {!max_key}
    @raise Failure when the heap is exhausted. *)

val delete : t -> int -> bool
(** False if [key] was absent. *)

val find : t -> int -> int option
(** [find t key] is the value bound to [key], if any.  A delete takes
    effect at its flag: a flagged leaf reads as absent even while it is
    still linked, as after a crash between a delete's flag and its
    unlinking. *)

val mem : t -> int -> bool
(** Membership test. *)

val iter : (int -> int -> unit) -> t -> unit
(** In-order traversal of live client leaves (quiescent use only). *)

val size : t -> int
(** Number of client bindings (O(n) walk; quiescent use). *)

val check_invariants : t -> unit
(** Walk the tree verifying BST ordering and leaf-orientation; raises
    [Failure] on violation.  For tests. *)

val filter : Ralloc.t -> Ralloc.filter
(** The recovery filter for this structure's node graph (paper §4.5.1). *)
