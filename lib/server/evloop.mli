(** Readiness-notification event loop: one watched-fd set, one waiter.

    This is the I/O multiplexer under the pkvd connection layer.  A loop
    owns a set of file descriptors with per-fd read/write interest and
    blocks in {!wait} until some are ready, invoking a callback per ready
    descriptor.  Three backends hide behind the same interface:

    - [Epoll] — epoll(7) via C stubs, O(ready) wakeups, the production
      backend on Linux;
    - [Poll] — poll(2) via a C stub, O(watched) per wait; the fallback
      where epoll is missing, and the only backend a non-Linux build
      can run;
    - [Sim] — simulated readiness: nothing blocks, descriptors become
      ready only when a test calls {!sim_mark}.  Deterministic unit
      tests for the connection state machine drive this backend.

    Threading contract: {!add}, {!modify}, {!remove} and {!wait} belong
    to the single owner thread of the loop; {!wakeup} and {!sim_mark}
    may be called from any thread (that is their point — worker domains
    use {!wakeup} to hand completions back to a parked loop). *)

type t
(** An event loop: watched-descriptor set, backend state, and the
    self-wakeup channel. *)

type backend =
  | Epoll  (** epoll(7); Linux only *)
  | Poll  (** poll(2) C stub; portable *)
  | Sim  (** simulated readiness for deterministic tests *)
(** Multiplexer implementations selectable at {!create} time. *)

val default_backend : unit -> backend
(** The backend {!create} picks when none is forced: [Epoll] where a
    probe [epoll_create1] succeeds, otherwise [Poll].  Tests reach the
    other backends through [create ~backend]. *)

val backend_name : backend -> string
(** Lower-case name of a backend ([{"epoll"|"poll"|"sim"}]), as printed
    in the pkvd banner. *)

val create : ?backend:backend -> unit -> t
(** Create an empty loop.  [?backend] forces an implementation (raises
    [Failure] if [Epoll] is forced on a platform without it); the
    default is {!default_backend}[ ()]. *)

val backend : t -> backend
(** The backend this loop actually runs on. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Start watching a descriptor with the given interest.  The fd must
    not already be in the set (remove first). *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change the interest of a watched descriptor.  No-op if the interest
    is unchanged, so callers can re-assert it unconditionally. *)

val remove : t -> Unix.file_descr -> unit
(** Stop watching a descriptor.  Safe to call for an fd that is not in
    the set (close paths race benignly). *)

val mem : t -> Unix.file_descr -> bool
(** Whether the descriptor is currently watched. *)

val size : t -> int
(** Number of watched descriptors (the wakeup channel is not counted). *)

val wait :
  t ->
  timeout_ms:int ->
  (Unix.file_descr -> readable:bool -> writable:bool -> unit) ->
  int
(** Block until at least one watched descriptor is ready, {!wakeup} is
    called, or [timeout_ms] elapses ([-1] blocks forever, [0] polls).
    The callback runs once per ready descriptor, in the owner thread,
    with error/hangup conditions folded into [readable]; the callback
    may {!add}/{!modify}/{!remove} freely (interest changes take effect
    the next wait).  Returns the number of ready descriptors reported —
    [0] for a timeout or a bare wakeup.  EINTR is absorbed and reads as
    a timeout. *)

val wakeup : t -> unit
(** Make a concurrent (or the next) {!wait} return promptly.  Coalescing
    and thread-safe: any number of wakeups between two waits cost one
    pipe write, so completion producers can call it unconditionally. *)

val sim_mark : ?readable:bool -> ?writable:bool -> t -> Unix.file_descr -> unit
(** [Sim] backend only: latch readiness for a watched descriptor (both
    flags default to [false]).  The marks are intersected with the fd's
    interest at the next {!wait} and cleared once delivered.  Raises
    [Failure] on other backends — tests that forget to force [Sim]
    should fail loudly, not block. *)

val close : t -> unit
(** Release the loop's own resources (backend fd, wakeup pipe).  Watched
    descriptors are the caller's to close; the loop must not be used
    afterwards. *)
