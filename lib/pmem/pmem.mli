(** Simulated byte-addressable persistent memory (NVM).

    A {e region} models a DAX-mapped persistent memory segment.  It has two
    views:

    - the {b volatile view}: what CPUs observe through loads, stores and CAS.
      It plays the role of (memory as seen through) the cache hierarchy and
      is lost on a crash;
    - the {b persistent view}: the durable medium.  It receives data only
      when a cache line is explicitly {!flush}ed (modeling [clwb]+[sfence])
      or, if {!set_eviction_rate} is nonzero, when the simulated cache
      spontaneously evicts a dirty line.  For a file-backed region it
      {e is} the mapped image file (see {!open_file}).

    Memory is word-addressable: a word is 8 bytes and holds a 62-bit OCaml
    [int] payload (every encoding in this library is designed to fit).
    Write-back happens at cache-line (64 B = 8 words) granularity and is
    never torn within a line, matching the failure model of the paper
    (Cai et al., §2.1).

    All word operations are sequentially-consistent-enough atomics
    implemented in C, safe to call concurrently from any number of OCaml 5
    domains. *)

type t

val words_per_line : int
(** Words per simulated cache line (8). *)

val line_bytes : int
(** Bytes per simulated cache line (64). *)

(** {1 Region lifecycle} *)

val create : ?name:string -> size_bytes:int -> unit -> t
(** [create ~size_bytes ()] makes a fresh zeroed region.  [size_bytes] is
    rounded up to a whole number of cache lines.  [name] is used in error
    messages and file headers. *)

val size_bytes : t -> int
(** Region capacity in bytes (after line rounding). *)

val size_words : t -> int
(** Region capacity in 8-byte words. *)

val name : t -> string
(** The name given at creation ([""] if none). *)

(** {1 Word operations (volatile view)} *)

val load : t -> int -> int
(** [load t w] atomically reads word index [w]. *)

val store : t -> int -> int -> unit
(** [store t w v] atomically writes [v] to word index [w].  If the eviction
    rate is nonzero, the containing line may spontaneously reach the
    persistent view. *)

val cas : t -> int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap on word [w]; true iff the swap happened. *)

val fetch_add : t -> int -> int -> int
(** [fetch_add t w d] atomically adds [d] to word [w], returning the
    previous value. *)

(** {1 Persistence primitives}

    The default {!Pipelined} mode models [clwb] the way the hardware
    implements it: {!flush} {e posts} the line into a per-domain
    write-combining set (repeated flushes of the same line between fences
    dedup — clwb is idempotent) and charges only a small issue cost; the
    next {!fence} drains the set — copies the posted lines to the
    persistent view — and charges [max(fence_ns, k * drain_ns)] for [k]
    drained lines, modeling overlapped write-backs.  A line that has been
    flushed but not yet fenced is {e not} guaranteed durable at {!crash}
    (it may still persist probabilistically under the eviction model).

    {!Synchronous} mode retains the legacy semantics — every flush copies
    its line and pays the full write-back latency inline — for ablations.
    Flush and fence {e counts} are identical in both modes. *)

type mode = Synchronous | Pipelined

val set_mode : mode -> unit
(** Select the persistence cost model (global to all regions; default
    {!Pipelined}). *)

val current_mode : unit -> mode
(** The persistence cost model currently in effect. *)

val flush : t -> int -> unit
(** [flush t w] writes the cache line containing word [w] back to the
    persistent view (the paper's "flush", normally a [clwb]).  In
    {!Pipelined} mode the write-back is posted and completes at the next
    {!fence} on the calling domain. *)

val fence : t -> unit
(** Store fence ordering preceding flushes ([sfence]): drains the calling
    domain's posted flushes in {!Pipelined} mode.  Counted: the {e number}
    of fences is the persistence cost a real machine would pay. *)

val fence_release : t -> unit
(** A {e release} fence: identical to {!fence} unless the calling domain is
    inside a fence-deferral section (see {!set_fence_deferral}), in which
    case it is elided and merely records that region [t] has an outstanding
    drain obligation.  Use it only for post-publish durability fences — the
    ones whose sole purpose is to bound {e when} an already-published
    operation becomes durable.  Ordering fences (persist content {e before}
    publishing a pointer to it) must keep using {!fence}: a {!crash} keeps
    any subset of the posted lines, so eliding an ordering fence can
    persist a publish edge without its payload. *)

(** {2 Group commit (per-domain fence deferral)}

    A server batching writes can enter a deferral section, run many
    operations whose release fences are elided, then pay {e one} real fence
    per region with {!drain_deferred} — amortizing the stall over the batch
    exactly like write-ahead-log group commit.  All state is per-domain
    ({!Domain.DLS}); other domains are unaffected.

    Safety: while elided release fences are outstanding, freed-and-reused
    blocks may still be reachable from durable pointers, so deferral
    requires structures that either leak removed nodes to a post-crash GC
    ([~reclaim:false]) or use SMR with the pin held across the whole batch
    (retired nodes then cannot be recycled before the drain). *)

val set_fence_deferral : bool -> unit
(** Enable/disable release-fence deferral on the calling domain.  Turning
    it {e off} first drains any outstanding deferred fences. *)

val fence_deferral_active : unit -> bool
(** Whether the calling domain is inside a deferral section. *)

val drain_deferred : unit -> int
(** Issue one real {!fence} per region that had a release fence elided on
    the calling domain since the last drain; returns the number of fences
    issued (0 when nothing was deferred).  Client acks must be withheld
    until this returns. *)

val deferred_fences : unit -> int
(** Number of release fences elided on the calling domain since the last
    {!drain_deferred} (statistics / tests). *)

val flush_range : t -> int -> int -> unit
(** [flush_range t w n] flushes the lines covering words [w .. w+n-1]. *)

val flush_prefix : t -> words:int -> unit
(** [flush_prefix t ~words] writes the lines covering words
    [0 .. words-1] back in one copy — how format, recovery and clean
    shutdown persist the part of a region they have ever stored to
    ([Pmem.size_words t] writes back all of it).  Synchronously durable;
    posted-but-undrained lines in the prefix are subsumed, posted lines
    above it stay posted.  Not counted as flushes.
    @raise Invalid_argument if [words] is outside [0, size_words t]. *)

val pending_lines : t -> int
(** Number of lines the calling domain has flushed but not yet fenced
    (always 0 in {!Synchronous} mode).  Test/debug introspection. *)

val set_latency :
  ?issue_ns:int -> ?drain_ns:int -> flush_ns:int -> fence_ns:int -> unit -> unit
(** Configure the simulated NVM's persistence costs: [flush_ns] per
    synchronously written-back line, [fence_ns] per fence, and for
    {!Pipelined} mode [issue_ns] per posted flush (default [flush_ns / 6])
    and [drain_ns] per line drained at a fence (default [flush_ns / 3] —
    overlapped write-backs are bandwidth-limited, so they retire faster
    than serial ones).  Charged as a calibrated busy-wait.  The defaults
    (90/140 ns) approximate Optane DC in App Direct mode; set flush and
    fence to 0 to make persistence free (useful in unit tests).  Global to
    all regions. *)

(** {1 Failure injection} *)

val crash : t -> unit
(** Simulate a full-system crash: the volatile view is discarded and
    re-initialized from the persistent view.  Anything not flushed-and-
    fenced (or evicted) since creation/last crash is lost.  Lines posted
    by an un-fenced {!flush} are discarded — or, when the eviction rate is
    nonzero, independently applied with that probability, modeling
    write-backs that happened to complete before the failure.  On a
    {!open_file} region the volatile view's private pages are dropped
    ([madvise(MADV_DONTNEED)]), so the next access re-reads the file;
    other regions copy the persistent view back.
    @raise Failure if the kernel refuses to drop the pages. *)

val set_eviction_rate : t -> float -> unit
(** With rate [p > 0], each store additionally writes its line back with
    probability [p] — modeling uncontrolled cache evictions.  Recovery code
    must be correct for any interleaving of evictions; tests use this
    adversarially.  Default 0. *)

(** {1 Byte / string helpers (non-atomic, volatile view)} *)

val load_byte : t -> int -> int
(** [load_byte t off] reads the byte at byte-offset [off]. *)

val store_byte : t -> int -> int -> unit
(** [store_byte t off v] writes byte [v land 0xff] at byte-offset [off]. *)

val store_string : t -> int -> string -> unit
(** [store_string t off s] copies [s] to byte-offset [off].  Bytes within a
    word are packed little-endian; not atomic with respect to concurrent
    word access to the same words. *)

val load_string : t -> int -> int -> string
(** [load_string t off len] reads [len] bytes at byte-offset [off]. *)

(** {1 File backing (the DAX file)}

    A file-backed region's persistent view is a shared mapping of its image
    file past a 4096 B header, so every line written back — at the draining
    {!fence} in {!Pipelined} mode, per {!flush} in {!Synchronous} mode, and
    per eviction — lands in the file with no system call, as on a DAX
    mapping.  The file therefore always equals the durable medium: a process
    that dies without closing leaves exactly its fenced state behind in the
    page cache.  A line is copied word by word, so a [kill -9] that lands
    inside a copy can tear that one line in the file; only a fence still
    in progress can be cut short that way, so no fenced data is exposed.
    The volatile view is a {e private} mapping of the same file: nothing
    is zero-filled or copied at open, a page costs memory only once it is
    touched, and a store copies its page on write, so it never reaches the
    file except through a write-back.  In-memory regions ({!create}) have
    no file and keep an anonymous volatile view. *)

val open_file : ?name:string -> path:string -> size_bytes:int -> unit -> t * bool
(** [open_file ~path ~size_bytes ()] opens (or creates) the region backed
    by [path] and maps its data area twice: shared as the persistent view,
    privately as the volatile view.  Returns [(region, existed)].  When
    the file existed, its stored size wins over [size_bytes] and the
    volatile view starts as the durable contents.
    @raise Failure if an existing file is not a pmem image or is shorter
    than its header's word count (it is never grown). *)

val load_image : path:string -> t
(** [load_image ~path] maps a pmem image {e privately} into a fresh
    region — the volatile view starts as the durable contents, exactly as
    {!open_file} would see them — so nothing the caller does to the region
    (stores, flushes, fences, {!flush_prefix}) can reach the file: written
    pages are copied on write.  Its volatile view is an anonymous copy of
    the image.  This is how an offline inspector ([bin/rstat]) examines, and even trial-recovers, a heap image without
    mutating it.  The file is opened read-only and closed before returning.
    @raise Failure if the file is missing, not a pmem image, or shorter
    than its header's word count. *)

val flight_backend : t -> first_word:int -> words:int -> Obs.Flight.backend
(** [flight_backend t ~first_word ~words] exposes the word window
    [first_word, first_word + words) of the region as an
    {!Obs.Flight.backend} — the reserved-region carve-out the persistent
    flight recorder writes through.  Indices passed to the backend are
    window-relative and bounds-checked; flush and fence go through the
    normal persistence pipeline, so flight-recorder traffic is counted,
    latency-charged, crash-simulated and written back to any mapped image
    like the allocator's own.
    @raise Invalid_argument if the window is out of bounds or
    [first_word] is not cache-line aligned. *)

val close_file : t -> unit
(** Drain every domain's outstanding posted flushes, [fsync] and close the
    image file (a no-op for in-memory and {!load_image} regions).  The
    persistent view stays mapped until the region is garbage-collected, so
    any later write-back would still reach the file: a closed region must
    not be flushed, fenced, evicted into or crashed again. *)

(** {1 Statistics} *)

module Stats : sig
  type snapshot = {
    flushes : int;  (** explicit line write-backs *)
    fences : int;
    cas_ops : int;
    evictions : int;  (** spontaneous write-backs *)
  }

  val read : t -> snapshot
  (** Counts accumulated by the region since creation or {!reset}. *)

  val reset : t -> unit
  (** Zero the region's counters. *)

  val diff : snapshot -> snapshot -> snapshot
  (** [diff after before]: field-wise subtraction, for timed windows. *)

  val global : unit -> snapshot
  (** Process-wide totals across every region, read from the [Obs]
      registry counters — so they advance only while [Obs] metrics are
      enabled.  Useful for interval monitors that have no region handle. *)
end

(** {1 Write amplification} *)

val logical_bytes : unit -> int
(** Process-wide bytes the application asked to store: 8 per word
    {!store}/{!fetch_add}/successful {!cas}, 1 per {!store_byte}.  Read
    from the [Obs] registry counters, so it advances only while [Obs]
    metrics are enabled. *)

val physical_bytes : unit -> int
(** Process-wide bytes actually written back to the durable medium at
    cache-line granularity: 64 per line drained at a fence (Pipelined),
    flushed ({!Synchronous}) or evicted.  The {!flush_prefix} copies at
    format, recovery and close are deliberately excluded — they would
    swamp the steady-state ratio.  Advances only while [Obs] metrics are enabled. *)

val write_amp : unit -> float
(** [physical_bytes () / logical_bytes ()] — the write amplification of
    the persistence pipeline (0. before any logical store).  Values near
    1 mean flushes coalesce neighbouring stores into shared lines;
    values near 8 mean every stored word costs its whole line.  Also
    registered as the derived [Obs] metric ["pmem.write_amp"], so it
    rides along in Prometheus dumps as [pmem_write_amp]. *)

(** {1 Persistency checking} *)

(** A pmemcheck-style durability tracer over the simulated NVM.  When
    enabled, every word of every region carries a shadow persistency
    state (clean/durable -> dirty -> posted -> durable, epoch-numbered
    by fence) that mirrors the write-combining pipeline exactly — and
    does so in {e both} pmem modes, so findings are mode-invariant like
    the flush/fence counts themselves.  Three finding classes, each
    attributed to a caller-registered site:

    - {b durability violations}: a word read after {!crash} whose last
      store was never drained durable by a fence — the read observes
      pre-crash stale data.  One finding per torn line, attributed to
      the site of the lost store.
    - {b wasted flushes}: flushes of lines with no dirty words, or of
      lines already posted by the calling domain (absorbed by the
      pipeline's dedup) — the paper's direct "optimize persistence"
      metric, per site.
    - {b wasted fences}: fences draining an empty pending set.

    Disabled (the default), the only cost is one flag test per pmem
    primitive and no shadow memory exists.  Setting the [PCHECK]
    environment variable (to anything but [""] or ["0"]) enables the
    checker at load, so [PCHECK=1 dune runtest] runs the crash suites
    under it. *)
module Check : sig
  val set_enabled : bool -> unit
  (** Turn the checker on or off.  Enabling allocates shadow state for
      regions lazily on their next persistence operation. *)

  val enabled : unit -> bool
  (** Whether the checker is currently on. *)

  val on : unit -> bool
  (** Alias of {!enabled} for hot call sites. *)

  (** {2 Sites} *)

  val site : string -> int
  (** [site "ralloc.sb_provision"] interns a site name to a dense id.
      Registration is cheap but lock-taking: do it at module or heap
      init, not on the hot path. *)

  val site_name : int -> string
  (** The name a site id was interned under (["?"] if invalid). *)

  val set_site : int -> unit
  (** Make a site the calling domain's ambient owner: subsequent
      stores/flushes/fences from this domain are attributed to it until
      the next [set_site] (pmemcheck-style region ownership).  A no-op
      while the checker is disabled. *)

  val with_site : int -> (unit -> 'a) -> 'a
  (** Run a thunk with the ambient site set, restoring the previous
      owner afterwards.  Calls the thunk directly when disabled. *)

  val allow : string -> reason:string -> int
  (** Register a site whose durability violations are by design (e.g. a
      checksummed ring read torn on purpose).  Its violations are
      tallied separately and never counted as findings. *)

  (** {2 Findings} *)

  type totals = {
    t_flushes : int;
    t_fences : int;
    t_wasted_flush_clean : int;  (** flushes of lines with no dirty word *)
    t_wasted_flush_dup : int;  (** flushes absorbed by the pipeline dedup *)
    t_wasted_fences : int;
    t_violations : int;
    t_allowed_violations : int;
  }

  val totals : unit -> totals
  (** Process-wide tallies since load or {!reset}. *)

  val diff : totals -> totals -> totals
  (** [diff after before]: field-wise subtraction, for timed windows. *)

  val wasted_flushes : totals -> int
  (** [t_wasted_flush_clean + t_wasted_flush_dup]. *)

  type violation = {
    v_site : string;  (** site of the store that was lost *)
    v_region : string;
    v_line : int;
    v_word : int;  (** first lost word read on the line *)
    v_crash_epoch : int;
    v_read_epoch : int;
    v_allowed : bool;
  }

  val violations : unit -> violation list
  (** Chronological; capped at 512 entries (the totals keep counting). *)

  val current_epoch : unit -> int
  (** Fence epochs number durable transitions, starting at 1. *)

  val reset : unit -> unit
  (** Zero every per-site tally and drop recorded violations.  Sites,
      allowlist entries and per-region shadow state survive. *)

  (** {2 Reports} *)

  val report : Format.formatter -> unit
  (** Human-readable per-site table plus the recorded violations. *)

  val prometheus : Format.formatter -> unit
  (** Prometheus exposition: [pcheck_*_total{site="..."}] samples. *)

  val trace_report : unit -> unit
  (** Emit per-site waste as {!Obs.Trace.counter} tracks (violations
      already emit trace instants at detection time), so a Chrome trace
      written afterwards carries the checker findings. *)
end
