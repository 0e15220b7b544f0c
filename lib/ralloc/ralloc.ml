module Size_class = Size_class
module Anchor = Anchor
module Layout = Layout
module Tcache = Tcache

type gc = { visit : ?filter:filter -> int -> unit }
and filter = gc -> int -> unit

(* Per-domain allocator state, one DLS fetch per malloc: the thread
   caches plus the profiler's byte countdown, which rides along so the
   sampling hook costs a decrement rather than a second DLS lookup.
   [prof_gen] revalidates the budget against Obs.Prof.generation (rate
   changes, resets and re-enables restart it from zero = sample now). *)
type dls_state = {
  tcs : Tcache.set;
  mutable prof_budget : int;
  mutable prof_gen : int;
}

type t = {
  meta : Pmem.t;
  desc : Pmem.t;
  sb : Pmem.t;
  sb_base : int;
  persist : bool;
  path : string option;
  nsb : int;
  expansion_sbs : int;
  tcache_key : dls_state Domain.DLS.key;
  use_tcache : bool;
  filters : filter option array;
  heap_name : string;
  flight : Obs.Flight.t option;
      (* the persistent flight recorder in the metadata region's reserved
         window; None only for images formatted before the window existed *)
  prov : Obs.Prof.Ring.t option;
      (* the persistent provenance ring (sampled allocations and their
         frees) right after the flight window; None for pre-v2 images *)
  ptab : Obs.Prof.Ptab.t option;
      (* persistent interned site-name table resolving the ring's ids *)
  ptab_persisted : Bytes.t;
      (* one byte per persistable site id: nonzero once this handle wrote
         the name to [ptab].  Racy duplicate persists are idempotent. *)
  tsdb : Obs.Tsdb.t option;
      (* the metrics time-series black box at the metadata tail; None
         for pre-v3 images *)
  hid : int; (* cached meta_heap_id; keys provenance samples per heap *)
  mutable closed : bool;
}

type status = Fresh | Clean_restart | Dirty_restart

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(*                                                                    *)
(* Module-level, not per-heap: the Obs registry aggregates over every  *)
(* heap in the process, which is what one metrics dump wants.  All     *)
(* recording is gated on the runtime Obs flag; the fast path pays one  *)
(* flag read when telemetry is off.                                   *)
(* ------------------------------------------------------------------ *)

let obs_alloc_class =
  Array.init
    (Size_class.count + 1)
    (fun c ->
      Obs.Counter.make
        (if c = 0 then "ralloc.alloc.large"
         else Printf.sprintf "ralloc.alloc.class_%02d" c))

let obs_free_class =
  Array.init
    (Size_class.count + 1)
    (fun c ->
      Obs.Counter.make
        (if c = 0 then "ralloc.free.large"
         else Printf.sprintf "ralloc.free.class_%02d" c))

let obs_malloc_ns = Obs.Histogram.make "ralloc.malloc_ns"
let obs_free_ns = Obs.Histogram.make "ralloc.free_ns"
let obs_tcache_hit = Obs.Counter.make "ralloc.tcache.hit"
let obs_tcache_miss = Obs.Counter.make "ralloc.tcache.miss"
let obs_slow_path = Obs.Counter.make "ralloc.slow_path"
let obs_sb_provisioned = Obs.Counter.make "ralloc.superblock.provisioned"
let obs_sb_acquire = Obs.Counter.make "ralloc.superblock.acquire"
let obs_sb_retire = Obs.Counter.make "ralloc.superblock.retire"

(* Constant-time fast-path telemetry: reserve-CAS retries during refill
   (bounded, see [max_reserve_retries]), blocks evicted by the hysteresis
   overflow flush, and splice CASes — the per-superblock batched returns
   that replace per-block frees.  evicted_blocks / splice_cas is the
   batching factor the eviction achieves. *)
let obs_refill_retries = Obs.Counter.make "ralloc.refill.retries"
let obs_tcache_evict = Obs.Counter.make "ralloc.tcache.evicted_blocks"
let obs_splice = Obs.Counter.make "ralloc.tcache.splice_cas"
let obs_recover_runs = Obs.Counter.make "ralloc.recover.runs"

(* Slow-path boundary stages for the span profiler: time spent inside a
   cache refill or an overflow eviction, separated from the malloc/free
   histograms that blend fast and slow paths. *)
let span_refill = Obs.Span.stage "ralloc.refill"
let span_cache_flush = Obs.Span.stage "ralloc.cache_flush"

(* Histograms, not last-value gauges: crash loops and tests run recovery
   many times, and the p50/p99 across runs is the interesting number —
   a gauge would overwrite all but the last. *)
let obs_recover_trace_ns = Obs.Histogram.make "ralloc.recover.trace_ns"
let obs_recover_rebuild_ns = Obs.Histogram.make "ralloc.recover.rebuild_ns"
let obs_recover_reachable = Obs.Gauge.make "ralloc.recover.reachable_blocks"

let () =
  Obs.register_derived "ralloc.tcache.hit_rate" (fun () ->
      let h = Obs.Counter.read obs_tcache_hit
      and m = Obs.Counter.read obs_tcache_miss in
      if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m))

(* Persistency-checker sites: one per flush/fence cluster, registered
   once at module load.  [Pmem.Check.set_site] is a no-op while the
   checker is disabled, so the hot paths pay one flag read. *)
module CK = Pmem.Check

let site_expand = CK.site "ralloc.expand"
let site_provision = CK.site "ralloc.sb_provision"
let site_malloc_large = CK.site "ralloc.malloc_large"
let site_free_large = CK.site "ralloc.free_large"
let site_set_root = CK.site "ralloc.set_root"
let site_mark_dirty = CK.site "ralloc.mark_dirty"
let site_format = CK.site "ralloc.format"
let site_close = CK.site "ralloc.close"
let site_recover = CK.site "ralloc.recover"

let max_roots = Layout.max_roots
let name t = t.heap_name
let persist_enabled t = t.persist
let sb_base t = t.sb_base
let capacity_bytes t = t.nsb * Layout.superblock_bytes

let check_open t =
  if t.closed then invalid_arg "Ralloc: heap handle has been closed"

(* ------------------------------------------------------------------ *)
(* Flight recorder plumbing                                           *)
(*                                                                    *)
(* The persistent event ring lives in the metadata region's reserved  *)
(* tail window (Layout.flight_base/words) through the abstract        *)
(* Obs.Flight backend; see lib/obs.  Only rare lifecycle events are  *)
(* recorded (superblocks, roots, open/close, recovery): malloc and    *)
(* free log nothing, so their fast path stays flush- and fence-free.  *)
(* ------------------------------------------------------------------ *)

module FK = Obs.Flight.Kind

let flight_window meta =
  Pmem.flight_backend meta ~first_word:Layout.flight_base
    ~words:Layout.flight_words

(* A persist:false heap (the LRMalloc baseline) must stay flush-free even
   with the recorder on; its events are volatile like the rest of it. *)
let flight_backend_of ~persist meta =
  let b = flight_window meta in
  if persist then b
  else { b with Obs.Flight.flush = (fun _ -> ()); fence = (fun () -> ()) }

let flight t = t.flight

let flight_record t ~kind ?(a = 0) ?(b = 0) ?(c = 0) () =
  if Obs.Flight.enabled () then
    match t.flight with
    | Some f -> Obs.Flight.record f ~kind ~a ~b ~c ()
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Heap-provenance profiler plumbing                                  *)
(*                                                                    *)
(* The provenance ring and site-name table share the flight window's  *)
(* carve-out discipline: reserved, line-aligned tail windows accessed *)
(* through the abstract Obs.Flight backend so the carve-outs can      *)
(* never drift from the writers (Layout.prov_base / ptab_base).       *)
(* ------------------------------------------------------------------ *)

let prov_window meta =
  Pmem.flight_backend meta ~first_word:Layout.prov_base
    ~words:Layout.prov_words

let ptab_window meta =
  Pmem.flight_backend meta ~first_word:Layout.ptab_base
    ~words:Layout.ptab_words

(* Same rule as the flight ring: a persist:false heap stays flush-free
   even when the profiler is on. *)
let prov_backend_of ~persist meta =
  let b = prov_window meta in
  if persist then b
  else { b with Obs.Flight.flush = (fun _ -> ()); fence = (fun () -> ()) }

let ptab_backend_of ~persist meta =
  let b = ptab_window meta in
  if persist then b
  else { b with Obs.Flight.flush = (fun _ -> ()); fence = (fun () -> ()) }

let prov t = t.prov
let prov_site_name t id =
  match t.ptab with Some tab -> Obs.Prof.Ptab.name tab id | None -> None

(* The metrics black box at the metadata tail (Layout.tsdb_base), same
   carve-out discipline again. *)
let tsdb_window meta =
  Pmem.flight_backend meta ~first_word:Layout.tsdb_base
    ~words:Layout.tsdb_words

let tsdb_backend_of ~persist meta =
  let b = tsdb_window meta in
  if persist then b
  else { b with Obs.Flight.flush = (fun _ -> ()); fence = (fun () -> ()) }

let tsdb t = t.tsdb

(* ------------------------------------------------------------------ *)
(* Region access helpers                                              *)
(* ------------------------------------------------------------------ *)

let mload t w = Pmem.load t.meta w
let mstore t w v = Pmem.store t.meta w v
let mcas t w ~expected ~desired = Pmem.cas t.meta w ~expected ~desired

let persist_meta t w =
  if t.persist then begin
    Pmem.flush t.meta w;
    Pmem.fence t.meta
  end

let dload t i f = Pmem.load t.desc (Layout.desc_word i f)
let dstore t i f v = Pmem.store t.desc (Layout.desc_word i f) v

(* Persist the bold fields of descriptor [i] (size class and block size
   share the descriptor's single cache line). *)
let persist_desc t i =
  if t.persist then begin
    Pmem.flush t.desc (Layout.desc_word i 0);
    Pmem.fence t.desc
  end

let anchor_load t i = Anchor.unpack (Pmem.load t.desc (Layout.desc_word i Layout.d_anchor))
let anchor_store t i a = Pmem.store t.desc (Layout.desc_word i Layout.d_anchor) (Anchor.pack a)

let anchor_cas t i ~expected ~desired =
  Pmem.cas t.desc
    (Layout.desc_word i Layout.d_anchor)
    ~expected:(Anchor.pack expected) ~desired:(Anchor.pack desired)

let used_bytes t = Pmem.load t.sb Layout.sb_used_word

(* Application-visible memory access (superblock region). *)

let sb_word t va = (va - t.sb_base) lsr 3
let load t va = Pmem.load t.sb (sb_word t va)
let store t va v = Pmem.store t.sb (sb_word t va) v
let cas t va ~expected ~desired = Pmem.cas t.sb (sb_word t va) ~expected ~desired
let fetch_add t va d = Pmem.fetch_add t.sb (sb_word t va) d
let flush t va = if t.persist then Pmem.flush t.sb (sb_word t va)
let fence t = if t.persist then Pmem.fence t.sb
let fence_release t = if t.persist then Pmem.fence_release t.sb
let read_ptr t va = Pptr.decode ~holder:va (load t va)
let write_ptr t ~at ~target = store t at (Pptr.encode ~holder:at ~target)
let load_byte t va = Pmem.load_byte t.sb (va - t.sb_base)
let store_byte t va v = Pmem.store_byte t.sb (va - t.sb_base) v
let store_string t va s = Pmem.store_string t.sb (va - t.sb_base) s
let load_string t va len = Pmem.load_string t.sb (va - t.sb_base) len

let flush_block_range t va len =
  if t.persist && len > 0 then Pmem.flush_range t.sb (sb_word t va) ((len + 7) / 8)

(* ------------------------------------------------------------------ *)
(* Heap-provenance sampling hooks                                     *)
(*                                                                    *)
(* malloc pays one countdown decrement per allocation while the       *)
(* profiler is on (Obs.Prof.should_sample); everything else — site    *)
(* lookup, tally update, ring entry, name persist — runs only on the  *)
(* sampled path, roughly once per sample_rate allocated bytes.  free  *)
(* pays one atomic bitmap probe (Obs.Prof.note_free) that is          *)
(* authoritative on miss, so unsampled frees never take a lock.       *)
(* ------------------------------------------------------------------ *)

(* Samples are keyed by (heap, offset): offsets recur across heaps in
   one process and across crash_and_reopen generations of the same
   image, so mix in the persistent heap id. *)
let prof_key t off = (t.hid * 0x3f58476d1ce4e5b9) lxor off

(* Write the site's name into the persistent table the first time this
   handle samples it, so an offline inspector can resolve the ring's
   ids after a crash.  One flush + fence per (handle, site) lifetime. *)
let prof_persist_site t site =
  match t.ptab with
  | None -> ()
  | Some tab ->
      if
        site >= 0
        && site < Bytes.length t.ptab_persisted
        && Bytes.get t.ptab_persisted site = '\000'
      then begin
        Bytes.set t.ptab_persisted site '\001';
        Obs.Prof.Ptab.persist tab site (Obs.Prof.site_name site)
      end

(* The byte countdown lives in [ds] — the per-domain state malloc has
   already fetched for its thread caches — so the unsampled path is a
   generation check and one subtraction, no extra DLS lookup. *)
let prof_note_alloc t ds ~va ~cls =
  let bsize =
    if cls = 0 then
      dload t (Layout.descriptor_of_offset (va - t.sb_base)) Layout.d_bsize
    else Size_class.block_size cls
  in
  let g = Obs.Prof.generation () in
  if ds.prof_gen <> g then begin
    ds.prof_gen <- g;
    ds.prof_budget <- 0
  end;
  let b = ds.prof_budget - bsize in
  if b > 0 then ds.prof_budget <- b
  else begin
    ds.prof_budget <- Obs.Prof.rate ();
    let off = va - t.sb_base in
    let site = Obs.Prof.current_site () in
    Obs.Prof.sample_alloc ~key:(prof_key t off) ~site ~size:bsize;
    match t.prov with
    | Some ring ->
        prof_persist_site t site;
        Obs.Prof.Ring.record_alloc ring ~site ~size:bsize ~off
    | None -> ()
  end

(* [d] rather than a block size: the descriptor load for the size is
   deferred to the sampled-hit path, so the common miss pays only the
   key mix and one bitmap probe. *)
let prof_note_free t ~off ~d =
  match Obs.Prof.note_free ~key:(prof_key t off) with
  | None -> ()
  | Some site -> (
      match t.prov with
      | Some ring ->
          Obs.Prof.Ring.record_free ring ~site
            ~size:(dload t d Layout.d_bsize) ~off
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Counted lock-free descriptor lists (Treiber stacks, paper §4.2)    *)
(* ------------------------------------------------------------------ *)

let rec list_push t head_word next_field d =
  let h = mload t head_word in
  let count, top = Layout.Head.unpack h in
  dstore t d next_field top;
  if
    not
      (mcas t head_word ~expected:h
         ~desired:(Layout.Head.pack ~count:(count + 1) ~desc:d))
  then list_push t head_word next_field d

let rec list_pop t head_word next_field =
  let h = mload t head_word in
  let count, top = Layout.Head.unpack h in
  if top < 0 then -1
  else
    let next = dload t top next_field in
    if
      mcas t head_word ~expected:h
        ~desired:(Layout.Head.pack ~count:(count + 1) ~desc:next)
    then top
    else list_pop t head_word next_field

let push_free t d = list_push t Layout.meta_free_list_head Layout.d_next_free d
let pop_free t = list_pop t Layout.meta_free_list_head Layout.d_next_free

let push_partial t c d =
  list_push t (Layout.meta_class_partial_head c) Layout.d_next_partial d

let pop_partial t c =
  list_pop t (Layout.meta_class_partial_head c) Layout.d_next_partial

(* ------------------------------------------------------------------ *)
(* Region expansion (paper §4.3)                                      *)
(* ------------------------------------------------------------------ *)

(* Claim [k] contiguous superblocks by CASing the used watermark forward;
   returns the first descriptor index or -1 if the heap is exhausted.  The
   new watermark is flushed and fenced: recovery trusts it as the bound of
   the provisioned area. *)
let rec expand t k =
  CK.set_site site_expand;
  let bytes = k * Layout.superblock_bytes in
  let size = Pmem.load t.sb Layout.sb_size_word in
  let used = used_bytes t in
  if used + bytes > size then -1
  else if
    Pmem.cas t.sb Layout.sb_used_word ~expected:used ~desired:(used + bytes)
  then begin
    if t.persist then begin
      Pmem.flush t.sb Layout.sb_used_word;
      Pmem.fence t.sb
    end;
    Obs.Counter.add obs_sb_provisioned k;
    let first = Layout.descriptor_of_offset used in
    flight_record t ~kind:FK.sb_provision ~a:k ~b:first ();
    first
  end
  else expand t k

(* Get one free superblock, refilling the free list by a batch expansion
   when it is empty. *)
let take_free_sb t =
  let d = pop_free t in
  if d >= 0 then d
  else begin
    let first = expand t t.expansion_sbs in
    if first >= 0 then begin
      for i = first + 1 to first + t.expansion_sbs - 1 do
        anchor_store t i { avail = Anchor.no_block; count = 0; state = Empty; tag = 0 };
        push_free t i
      done;
      first
    end
    else
      let single = expand t 1 in
      if single >= 0 then single else pop_free t (* races may have refilled *)
  end

(* ------------------------------------------------------------------ *)
(* Small allocation (paper §4.4)                                      *)
(* ------------------------------------------------------------------ *)

let dls t = Domain.DLS.get t.tcache_key
let tcaches t = (dls t).tcs

(* Hand a brand-new superblock to size class [c] as the calling domain's
   owned run: the anchor says Full (every block accounted to the owner)
   and the cache hands the blocks out sequentially, never touching their
   link words — O(1) provisioning regardless of the class's block count.
   The size information is persisted before any block can be used (the
   paper's one online flush). *)
let provision_superblock t c tc d =
  CK.set_site site_provision;
  Obs.Counter.incr obs_sb_acquire;
  flight_record t ~kind:FK.sb_acquire ~a:c ~b:d ();
  let bsz = Size_class.block_size c in
  dstore t d Layout.d_class c;
  dstore t d Layout.d_bsize bsz;
  persist_desc t d;
  anchor_store t d { avail = Anchor.no_block; count = 0; state = Full; tag = 0 };
  Tcache.adopt_run tc ~d
    ~start:(t.sb_base + Layout.superblock_offset d)
    ~bsz
    ~n:(Size_class.blocks_per_superblock c)

(* A reserve CAS contends only with frees hitting the same anchor, but a
   free storm could starve it indefinitely; after this many failures the
   superblock goes back on its partial list and the refill falls through
   to provisioning a fresh one — bounded refill latency at the cost of a
   rare extra superblock.  Every failed CAS bumps [ralloc.refill.retries]. *)
let max_reserve_retries = 8

(* Refill the cache for class [c] by lazily adopting a whole superblock:
   a partial superblock's free list is reserved with one CAS and recorded
   as the cache's owned chain — only its head index and length; the links
   are already threaded through the blocks, so adoption is O(1) no matter
   how many blocks change hands (the eager per-block copy this replaces
   made refill O(blocks/superblock)).  With no partial superblock, a
   fresh one is adopted as a sequential run.  Returns false only when the
   heap is exhausted. *)
let rec refill t c tc =
  let fresh () =
    let d = take_free_sb t in
    if d < 0 then false
    else begin
      provision_superblock t c tc d;
      true
    end
  in
  let d = pop_partial t c in
  if d < 0 then fresh ()
  else begin
    let rec reserve retries =
      let a = anchor_load t d in
      if a.state = Empty then begin
        (* fully freed while sitting on the partial list: retire it *)
        push_free t d;
        Obs.Counter.incr obs_sb_retire;
        flight_record t ~kind:FK.sb_retire ~a:c ~b:d ();
        `Next
      end
      else if retries >= max_reserve_retries then begin
        (* contended beyond the bound: hand it back, provision instead *)
        push_partial t c d;
        `Fresh
      end
      else if
        anchor_cas t d ~expected:a
          ~desired:
            { avail = Anchor.no_block; count = 0; state = Full; tag = a.tag + 1 }
      then
        (* we now own this superblock's whole free list *)
        if a.count = 0 then `Next
        else begin
          Tcache.adopt_chain tc ~d
            ~start:(t.sb_base + Layout.superblock_offset d)
            ~bsz:(dload t d Layout.d_bsize) ~head:a.avail ~len:a.count;
          `Adopted
        end
      else begin
        Obs.Counter.incr obs_refill_retries;
        reserve (retries + 1)
      end
    in
    match reserve 0 with
    | `Adopted -> true
    | `Next -> refill t c tc
    | `Fresh -> fresh ()
  end

(* O(1) pop from the adopted superblock: the sequential run first (no
   memory touch at all), then the owned chain (one link-word read).  The
   caller guarantees [Tcache.has_owned]. *)
let[@inline] pop_owned t tc =
  let i = tc.Tcache.run_next in
  if i < tc.Tcache.run_end then begin
    tc.Tcache.run_next <- i + 1;
    tc.Tcache.own_start + (i * tc.Tcache.own_bsz)
  end
  else begin
    let va = tc.Tcache.own_start + (tc.Tcache.chain_head * tc.Tcache.own_bsz) in
    let len = tc.Tcache.chain_len - 1 in
    tc.Tcache.chain_len <- len;
    if len > 0 then tc.Tcache.chain_head <- load t va;
    va
  end

(* ------------------------------------------------------------------ *)
(* Deallocation (paper §4.4)                                          *)
(* ------------------------------------------------------------------ *)

(* Push one block back onto its superblock's free list, mediating with a
   CAS on the anchor, and handle the FULL->PARTIAL / ->EMPTY transitions. *)
let rec free_block_to_sb t d va =
  let sb_off = Layout.superblock_offset d in
  let bsz = dload t d Layout.d_bsize in
  let idx = (va - t.sb_base - sb_off) / bsz in
  let max_count = Layout.superblock_bytes / bsz in
  let a = anchor_load t d in
  Pmem.store t.sb ((sb_off + (idx * bsz)) lsr 3) a.avail;
  let count = a.count + 1 in
  let state : Anchor.state =
    if count = max_count then Empty
    else match a.state with Full -> Partial | s -> s
  in
  if
    anchor_cas t d ~expected:a ~desired:{ avail = idx; count; state; tag = a.tag + 1 }
  then begin
    match (a.state, state) with
    | Full, Empty ->
      push_free t d;
      Obs.Counter.incr obs_sb_retire;
      if Obs.Flight.enabled () then
        flight_record t ~kind:FK.sb_retire ~a:(dload t d Layout.d_class) ~b:d ()
    | Full, _ -> push_partial t (dload t d Layout.d_class) d
    | (Empty | Partial), _ -> ()
    (* PARTIAL -> EMPTY retires lazily, when popped from the partial list *)
  end
  else free_block_to_sb t d va

(* Batched returns: evicted cache blocks are grouped per superblock,
   pre-linked into a chain with plain stores, and spliced back with ONE
   anchor CAS per superblock — [free_block_to_sb] pays one CAS per block.
   The chain is built head-first; the tail is the first block grouped,
   and its link word is patched to the displaced list head inside the CAS
   loop (rewritten on every retry, published by the CAS, so concurrent
   owners never see a dangling tail). *)
let rec splice t d ~head ~tail_va ~len ~bsz =
  let a = anchor_load t d in
  store t tail_va a.avail;
  let count = a.count + len in
  let state : Anchor.state =
    if count = Layout.superblock_bytes / bsz then Empty
    else match a.state with Full -> Partial | s -> s
  in
  if anchor_cas t d ~expected:a ~desired:{ avail = head; count; state; tag = a.tag + 1 }
  then begin
    Obs.Counter.incr obs_splice;
    match (a.state, state) with
    | Full, Empty ->
      push_free t d;
      Obs.Counter.incr obs_sb_retire;
      if Obs.Flight.enabled () then
        flight_record t ~kind:FK.sb_retire ~a:(dload t d Layout.d_class) ~b:d ()
    | Full, _ -> push_partial t (dload t d Layout.d_class) d
    | (Empty | Partial), _ -> ()
    (* PARTIAL -> EMPTY retires lazily, when popped from the partial list *)
  end
  else splice t d ~head ~tail_va ~len ~bsz

(* Allocation-free grouping scratch: a small direct table of open chains,
   one slot per superblock seen during one eviction.  Per-domain (an
   eviction never nests inside another on the same domain — splice calls
   no cache code) and sized so that the common eviction, whose blocks
   come from a handful of superblocks, builds every chain in one pass; a
   17th distinct superblock early-splices a victim slot, costing that
   extra CAS but never more than [free_block_to_sb]'s one per block. *)
let max_groups = 16

type scratch = {
  s_d : int array;
  s_head : int array;
  s_tail_va : int array;
  s_len : int array;
  s_bsz : int array;
  mutable s_clock : int;  (* round-robin victim cursor *)
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        s_d = Array.make max_groups (-1);
        s_head = Array.make max_groups 0;
        s_tail_va = Array.make max_groups 0;
        s_len = Array.make max_groups 0;
        s_bsz = Array.make max_groups 0;
        s_clock = 0;
      })

let splice_slot t s j =
  splice t s.s_d.(j) ~head:s.s_head.(j) ~tail_va:s.s_tail_va.(j)
    ~len:s.s_len.(j) ~bsz:s.s_bsz.(j);
  s.s_d.(j) <- -1

(* Return [blocks.(0 .. n-1)] to their superblocks, batched: group into
   per-superblock chains through the scratch table, then splice each. *)
let return_blocks t blocks n =
  let s = Domain.DLS.get scratch_key in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    let va = Array.unsafe_get blocks i in
    let off = va - t.sb_base in
    let d = Layout.descriptor_of_offset off in
    let j = ref 0 in
    while !j < max_groups && s.s_d.(!j) <> d do
      incr j
    done;
    if !j < max_groups then begin
      (* link the chain head-first through the block's link word *)
      store t va s.s_head.(!j);
      s.s_head.(!j) <- (off - Layout.superblock_offset d) / s.s_bsz.(!j);
      s.s_len.(!j) <- s.s_len.(!j) + 1
    end
    else begin
      let j = ref 0 in
      while !j < max_groups && s.s_d.(!j) >= 0 do
        incr j
      done;
      let j =
        if !j < max_groups then !j
        else begin
          (* table full: early-splice a rotating victim *)
          let v = s.s_clock in
          s.s_clock <- (v + 1) land (max_groups - 1);
          splice_slot t s v;
          decr groups;
          v
        end
      in
      let bsz = dload t d Layout.d_bsize in
      s.s_d.(j) <- d;
      s.s_head.(j) <- (off - Layout.superblock_offset d) / bsz;
      s.s_tail_va.(j) <- va;
      s.s_len.(j) <- 1;
      s.s_bsz.(j) <- bsz;
      incr groups
    end
  done;
  let j = ref 0 in
  while !groups > 0 && !j < max_groups do
    if s.s_d.(!j) >= 0 then begin
      splice_slot t s !j;
      decr groups
    end;
    incr j
  done

(* Hysteresis overflow flush: evict only the OLDEST half of the cache —
   the bottom of the LIFO array — so the hot top half keeps its reuse
   locality, and return the evicted blocks batched per superblock. *)
let flush_cache_half t tc =
  let n = tc.Tcache.count in
  let h = n / 2 in
  if h > 0 then begin
    Obs.Counter.add obs_tcache_evict h;
    return_blocks t tc.Tcache.blocks h;
    Array.blit tc.Tcache.blocks h tc.Tcache.blocks 0 (n - h);
    tc.Tcache.count <- n - h
  end

(* Full flush (explicit [flush_thread_cache], [close]): return the array,
   the owned chain and the owned run alike.  Cold path — walking the
   owned chain to find its tail is O(len) link reads, but each superblock
   still takes one splice CAS. *)
let flush_cache_class t tc =
  let n = tc.Tcache.count in
  if n > 0 then begin
    return_blocks t tc.Tcache.blocks n;
    tc.Tcache.count <- 0
  end;
  if Tcache.has_owned tc then begin
    let d = tc.Tcache.own_d in
    let start = tc.Tcache.own_start in
    let bsz = tc.Tcache.own_bsz in
    let len = tc.Tcache.chain_len in
    if len > 0 then begin
      (* chain links are already threaded; find the tail *)
      let idx = ref tc.Tcache.chain_head in
      for _ = 2 to len do
        idx := load t (start + (!idx * bsz))
      done;
      splice t d ~head:tc.Tcache.chain_head
        ~tail_va:(start + (!idx * bsz))
        ~len ~bsz
    end;
    let r0 = tc.Tcache.run_next and r1 = tc.Tcache.run_end in
    if r1 > r0 then begin
      (* the untouched run gets its links written here, on the cold path *)
      for i = r0 to r1 - 2 do
        store t (start + (i * bsz)) (i + 1)
      done;
      splice t d ~head:r0
        ~tail_va:(start + ((r1 - 1) * bsz))
        ~len:(r1 - r0) ~bsz
    end
  end;
  Tcache.release_owned tc

(* Flushes every compartment of the calling domain's caches — also in
   cache-free mode, where [malloc_one]'s thread-private runs live in the
   same owned-run fields while the arrays stay empty. *)
let flush_thread_cache t =
  check_open t;
  let set = tcaches t in
  for c = 1 to Size_class.count do
    flush_cache_class t set.(c)
  done

(* ------------------------------------------------------------------ *)
(* Large allocation                                                   *)
(* ------------------------------------------------------------------ *)

let malloc_large t size =
  CK.set_site site_malloc_large;
  let k = (size + Layout.superblock_bytes - 1) / Layout.superblock_bytes in
  let d =
    if k = 1 then begin
      let d = pop_free t in
      if d >= 0 then d else expand t 1
    end
    else expand t k (* multi-superblock blocks need contiguity *)
  in
  if d < 0 then 0
  else begin
    Obs.Counter.add obs_sb_acquire k;
    flight_record t ~kind:FK.sb_acquire ~a:0 ~b:d ~c:k ();
    dstore t d Layout.d_class 0;
    dstore t d Layout.d_bsize (k * Layout.superblock_bytes);
    persist_desc t d;
    anchor_store t d { avail = Anchor.no_block; count = 0; state = Full; tag = 0 };
    t.sb_base + Layout.superblock_offset d
  end

let free_large t d =
  CK.set_site site_free_large;
  let total = dload t d Layout.d_bsize in
  let k = total / Layout.superblock_bytes in
  Obs.Counter.add obs_sb_retire k;
  flight_record t ~kind:FK.sb_retire ~a:0 ~b:d ~c:k ();
  (* Invalidate the persisted large-block signature so a stale value can no
     longer revalidate this range during conservative recovery. *)
  dstore t d Layout.d_bsize 0;
  persist_desc t d;
  for i = d to d + k - 1 do
    anchor_store t i { avail = Anchor.no_block; count = 0; state = Empty; tag = 0 };
    push_free t i
  done

(* ------------------------------------------------------------------ *)
(* Cache-free operation (Michael's allocator, paper §3)               *)
(*                                                                    *)
(* With thread caches disabled, every allocation takes exactly one    *)
(* block from a partial superblock with an anchor CAS — the profile   *)
(* of Michael's 2004 allocator, which LRMalloc's caching improved on. *)
(* The anchor tag makes the read-link-then-CAS pop ABA-safe.          *)
(*                                                                    *)
(* A FRESH superblock, though, is adopted as a thread-private run     *)
(* through the otherwise-unused owned-run fields of the domain's      *)
(* Tcache slot: provisioning writes no link words (the eager chain it *)
(* replaces wrote blocks_per_superblock-1 of them) and allocations    *)
(* served from the run are O(1) private pops.  Frees are untouched —  *)
(* one CAS each — so the Michael profile is preserved on the free     *)
(* path and on every allocation that does hit shared state.           *)
(* ------------------------------------------------------------------ *)

let rec malloc_one t c tc =
  let i = tc.Tcache.run_next in
  if i < tc.Tcache.run_end then begin
    tc.Tcache.run_next <- i + 1;
    tc.Tcache.own_start + (i * tc.Tcache.own_bsz)
  end
  else begin
    let d = pop_partial t c in
    if d >= 0 then begin
      let sb_off = Layout.superblock_offset d in
      let bsz = Size_class.block_size c in
      let rec take () =
        let a = anchor_load t d in
        if a.state = Empty || a.count = 0 then begin
          if a.state = Empty then begin
            push_free t d;
            Obs.Counter.incr obs_sb_retire;
            flight_record t ~kind:FK.sb_retire ~a:c ~b:d ()
          end;
          malloc_one t c tc
        end
        else begin
          let next = Pmem.load t.sb ((sb_off + (a.avail * bsz)) lsr 3) in
          let desired : Anchor.t =
            {
              avail = (if a.count = 1 then Anchor.no_block else next);
              count = a.count - 1;
              state = (if a.count = 1 then Full else Partial);
              tag = a.tag + 1;
            }
          in
          if anchor_cas t d ~expected:a ~desired then begin
            if a.count > 1 then push_partial t c d;
            t.sb_base + sb_off + (a.avail * bsz)
          end
          else take ()
        end
      in
      take ()
    end
    else begin
      let d = take_free_sb t in
      if d < 0 then 0
      else begin
        provision_superblock t c tc d;
        malloc_one t c tc (* served by the freshly adopted run *)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Public malloc / free                                               *)
(* ------------------------------------------------------------------ *)

let malloc t size =
  check_open t;
  if size < 0 then invalid_arg "Ralloc.malloc: negative size";
  let obs = Obs.on () in
  let sp = Obs.Span.on () in
  let t0 = if obs || sp then Obs.now_ns () else 0 in
  (* allocator time reported to the span sink is net of the flush/fence
     time the allocator itself spends: those nanoseconds accumulate on
     the persist channel and must not be double-counted *)
  let p0 = if sp then Obs.Span.sink_get Obs.Span.ch_persist else 0 in
  let ds = dls t in
  let va, c =
    if size > Size_class.max_small_size then begin
      if obs then Obs.Counter.incr obs_slow_path;
      (malloc_large t size, 0)
    end
    else begin
      let c = Size_class.of_size size in
      let va =
        if not t.use_tcache then begin
          if obs then Obs.Counter.incr obs_slow_path;
          malloc_one t c ds.tcs.(c)
        end
        else begin
          let tc = ds.tcs.(c) in
          (* LIFO array first (recently freed blocks, the reuse test and
             cache locality want them back first), then the adopted
             superblock's run/chain — all O(1), no heap CAS *)
          if tc.Tcache.count > 0 then begin
            if obs then Obs.Counter.incr obs_tcache_hit;
            Tcache.pop tc
          end
          else if Tcache.has_owned tc then begin
            if obs then Obs.Counter.incr obs_tcache_hit;
            pop_owned t tc
          end
          else begin
            if obs then begin
              Obs.Counter.incr obs_tcache_miss;
              Obs.Counter.incr obs_slow_path
            end;
            let s0 = Obs.Trace.begin_span () in
            let r0 = if sp then Obs.now_ns () else 0 in
            let refilled = refill t c tc in
            if sp then Obs.Span.record span_refill (Obs.now_ns () - r0);
            Obs.Trace.span "ralloc.refill" s0;
            if refilled then pop_owned t tc else 0
          end
        end
      in
      (va, c)
    end
  in
  if obs then begin
    if va <> 0 then Obs.Counter.incr obs_alloc_class.(c);
    Obs.Histogram.record obs_malloc_ns (Obs.now_ns () - t0)
  end;
  if sp then
    Obs.Span.sink_add Obs.Span.ch_alloc
      (Obs.now_ns () - t0 - (Obs.Span.sink_get Obs.Span.ch_persist - p0));
  if va <> 0 && Obs.Prof.on () then prof_note_alloc t ds ~va ~cls:c;
  va

let free t va =
  check_open t;
  if va <> 0 then begin
    let obs = Obs.on () in
    let sp = Obs.Span.on () in
    let t0 = if obs || sp then Obs.now_ns () else 0 in
    let p0 = if sp then Obs.Span.sink_get Obs.Span.ch_persist else 0 in
    let off = va - t.sb_base in
    if off < Layout.sb_first_offset || off >= used_bytes t then
      invalid_arg "Ralloc.free: address outside the heap";
    let d = Layout.descriptor_of_offset off in
    let c = dload t d Layout.d_class in
    if Obs.Prof.on () then prof_note_free t ~off ~d;
    if c = 0 then free_large t d
    else if not t.use_tcache then free_block_to_sb t d va
    else begin
      let tc = (tcaches t).(c) in
      if Tcache.is_full tc then begin
        (* hysteresis: shed only half, batched one CAS per superblock *)
        let s0 = Obs.Trace.begin_span () in
        let f0 = if sp then Obs.now_ns () else 0 in
        flush_cache_half t tc;
        if sp then Obs.Span.record span_cache_flush (Obs.now_ns () - f0);
        Obs.Trace.span "ralloc.cache_flush" s0
      end;
      Tcache.push tc va
    end;
    if obs then begin
      Obs.Counter.incr obs_free_class.(if Size_class.is_valid_class c then c else 0);
      Obs.Histogram.record obs_free_ns (Obs.now_ns () - t0)
    end;
    if sp then
      Obs.Span.sink_add Obs.Span.ch_alloc
        (Obs.now_ns () - t0 - (Obs.Span.sink_get Obs.Span.ch_persist - p0))
  end

let usable_size t va =
  check_open t;
  let d = Layout.descriptor_of_offset (va - t.sb_base) in
  dload t d Layout.d_bsize

(* ------------------------------------------------------------------ *)
(* Persistent roots                                                   *)
(* ------------------------------------------------------------------ *)

let set_root t i va =
  check_open t;
  if i < 0 || i >= max_roots then invalid_arg "Ralloc.set_root: bad index";
  CK.set_site site_set_root;
  let w =
    if va = 0 then Pptr.based_null
    else Pptr.encode_based Pptr.Sb ~offset:(va - t.sb_base)
  in
  mstore t (Layout.meta_root i) w;
  persist_meta t (Layout.meta_root i);
  if Obs.Flight.enabled () then
    flight_record t ~kind:FK.root_set ~a:i ~b:(if va = 0 then 0 else va - t.sb_base) ()

let get_root ?filter t i =
  check_open t;
  if i < 0 || i >= max_roots then invalid_arg "Ralloc.get_root: bad index";
  t.filters.(i) <- filter;
  match Pptr.decode_based (mload t (Layout.meta_root i)) with
  | Some (Pptr.Sb, off) -> t.sb_base + off
  | Some _ | None -> 0

(* ------------------------------------------------------------------ *)
(* Heap lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let next_heap_id = Atomic.make 1

(* Transient registry of mapped heaps, for resolving RIV cross-heap
   pointers (paper §4.6 future work).  Ids are persistent; mappings are
   per-process.  Entries are weak: the registry must never keep an
   abandoned heap's gigabytes of simulated NVM alive. *)
let registry : (int, t Weak.t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let heap_id t = mload t Layout.meta_heap_id

let register_heap t =
  Mutex.lock registry_lock;
  (* drop entries whose heaps have been collected *)
  Hashtbl.filter_map_inplace
    (fun _ w -> if Weak.get w 0 = None then None else Some w)
    registry;
  let w = Weak.create 1 in
  Weak.set w 0 (Some t);
  Hashtbl.replace registry (heap_id t) w;
  Mutex.unlock registry_lock

let unregister_heap t =
  Mutex.lock registry_lock;
  (match Hashtbl.find_opt registry (heap_id t) with
  | Some w
    when (match Weak.get w 0 with Some cur -> cur == t | None -> false) ->
    Hashtbl.remove registry (heap_id t)
  | Some _ | None -> ());
  Mutex.unlock registry_lock

let find_heap id =
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt registry id with
    | None -> None
    | Some w -> Weak.get w 0
  in
  Mutex.unlock registry_lock;
  r

let write_riv t ~at ~target_heap ~target =
  let w =
    if target = 0 then Pptr.null
    else
      Pptr.encode_riv ~heap_id:(heap_id target_heap)
        ~offset:(target - target_heap.sb_base)
  in
  store t at w

let read_riv t va =
  match Pptr.decode_riv (load t va) with
  | None -> None
  | Some (id, off) -> (
    match find_heap id with
    | None -> None (* that heap is not currently mapped *)
    | Some h -> Some (h, h.sb_base + off))

(* A fresh virtual base on every open exercises position independence. *)
let fresh_sb_base () =
  let id = Atomic.fetch_and_add next_heap_id 1 in
  0x10_0000_0000 + (id * 0x4_0000_0000)

let make_handle ?(persist = true) ?sb_base ?(expansion_sbs = 16)
    ?(tcache = true) ~path ~name ~meta ~desc ~sb () =
  let heap_bytes = Pmem.load sb Layout.sb_size_word in
  let nsb = (heap_bytes / Layout.superblock_bytes) - 1 in
  let flight =
    (* images formatted before the carve-out existed have a short
       metadata region — no ring to attach *)
    if Pmem.size_words meta >= Layout.flight_base + Layout.flight_words then
      Obs.Flight.attach (flight_backend_of ~persist meta)
    else None
  in
  let prov =
    if Pmem.size_words meta >= Layout.prov_base + Layout.prov_words then
      Obs.Prof.Ring.attach (prov_backend_of ~persist meta)
    else None
  in
  let ptab =
    if Pmem.size_words meta >= Layout.ptab_base + Layout.ptab_words then
      Obs.Prof.Ptab.attach (ptab_backend_of ~persist meta)
    else None
  in
  let tsdb =
    if Pmem.size_words meta >= Layout.tsdb_base + Layout.tsdb_words then
      Obs.Tsdb.attach (tsdb_backend_of ~persist meta)
    else None
  in
  let t =
    {
      meta;
      desc;
      sb;
      sb_base = (match sb_base with Some b -> b | None -> fresh_sb_base ());
      persist;
      path;
      nsb;
      expansion_sbs;
      tcache_key =
        Domain.DLS.new_key (fun () ->
            { tcs = Tcache.create_set (); prof_budget = 0; prof_gen = 0 });
      use_tcache = tcache;
      filters = Array.make max_roots None;
      heap_name = name;
      flight;
      prov;
      ptab;
      tsdb;
      ptab_persisted = Bytes.make Layout.ptab_capacity '\000';
      hid = Pmem.load meta Layout.meta_heap_id;
      closed = false;
    }
  in
  register_heap t;
  t

let is_dirty t = mload t Layout.meta_dirty <> 0

let mark_dirty t =
  CK.set_site site_mark_dirty;
  mstore t Layout.meta_dirty 1;
  persist_meta t Layout.meta_dirty

let region_geometry size =
  if size <= 0 then invalid_arg "Ralloc: heap size must be positive";
  let nsb =
    max 1 ((size + Layout.superblock_bytes - 1) / Layout.superblock_bytes)
  in
  (nsb, (nsb + 1) * Layout.superblock_bytes)

(* Lay down a fresh heap's persistent structure and make it durable. *)
let format_heap ?heap_id meta sb sb_bytes =
  CK.set_site site_format;
  let id =
    match heap_id with
    | Some id ->
      if id < 0 || id > Pptr.max_heap_id then
        invalid_arg "Ralloc: heap id out of range";
      id
    | None ->
      (* best-effort default; pass ~heap_id for stable cross-heap refs *)
      (Atomic.fetch_and_add next_heap_id 1
      + (int_of_float (Unix.gettimeofday () *. 1e6) * 2654435761))
      land Pptr.max_heap_id
  in
  Pmem.store sb Layout.sb_size_word sb_bytes;
  Pmem.store sb Layout.sb_used_word Layout.sb_first_offset;
  Pmem.store meta Layout.meta_magic Layout.magic_value;
  Pmem.store meta Layout.meta_heap_size sb_bytes;
  Pmem.store meta Layout.meta_heap_id id;
  Pmem.store meta Layout.meta_free_list_head Layout.Head.empty;
  for c = 1 to Size_class.count do
    Pmem.store meta (Layout.meta_class_block_size c) (Size_class.block_size c);
    Pmem.store meta (Layout.meta_class_partial_head c) Layout.Head.empty
  done;
  Pmem.store meta Layout.meta_layout_version Layout.layout_version;
  Pmem.store meta Layout.meta_dirty 1;
  ignore
    (Obs.Flight.format (flight_window meta) ~capacity:Layout.flight_capacity);
  ignore (Obs.Prof.Ring.format (prov_window meta) ~capacity:Layout.prov_capacity);
  ignore (Obs.Prof.Ptab.format (ptab_window meta) ~capacity:Layout.ptab_capacity);
  ignore (Obs.Tsdb.format (tsdb_window meta));
  Pmem.flush_all meta;
  Pmem.flush_all sb

let create ?(name = "heap") ?(persist = true) ?sb_base ?expansion_sbs
    ?heap_id ?tcache ~size () =
  let nsb, sb_bytes = region_geometry size in
  let meta =
    Pmem.create ~name:(name ^ ".meta") ~size_bytes:(Layout.meta_words * 8) ()
  in
  let desc =
    Pmem.create ~name:(name ^ ".desc")
      ~size_bytes:(nsb * Layout.descriptor_words * 8)
      ()
  in
  let sb = Pmem.create ~name:(name ^ ".sb") ~size_bytes:sb_bytes () in
  format_heap ?heap_id meta sb sb_bytes;
  let t =
    make_handle ~persist ?sb_base ?expansion_sbs ?tcache ~path:None ~name ~meta
      ~desc ~sb ()
  in
  flight_record t ~kind:FK.heap_open ~a:0 ();
  t

let file_names path = (path ^ ".meta", path ^ ".desc", path ^ ".sb")

let init ?persist ?sb_base ?expansion_sbs ~path ~size () =
  let m, d, s = file_names path in
  let existing = List.filter Sys.file_exists [ m; d; s ] in
  if List.length existing <> 0 && List.length existing <> 3 then
    failwith ("Ralloc.init: " ^ path ^ " has a partial set of heap files");
  let nsb, sb_bytes = region_geometry size in
  let name = Filename.basename path in
  let meta, existed =
    Pmem.open_file ~name:(name ^ ".meta") ~path:m
      ~size_bytes:(Layout.meta_words * 8) ()
  in
  let desc, _ =
    Pmem.open_file ~name:(name ^ ".desc") ~path:d
      ~size_bytes:(nsb * Layout.descriptor_words * 8)
      ()
  in
  let sb, _ =
    Pmem.open_file ~name:(name ^ ".sb") ~path:s ~size_bytes:sb_bytes ()
  in
  if existed && Pmem.load meta Layout.meta_magic <> Layout.magic_value then
    failwith ("Ralloc.init: " ^ path ^ " is not a Ralloc heap");
  if existed then begin
    let v = Pmem.load meta Layout.meta_layout_version in
    if v <> Layout.layout_version then
      failwith
        (Printf.sprintf "Ralloc.init: %s: heap built by layout v%d, expected v%d"
           path v Layout.layout_version)
  end;
  if not existed then format_heap meta sb sb_bytes;
  let t =
    make_handle ?persist ?sb_base ?expansion_sbs ~path:(Some path) ~name ~meta
      ~desc ~sb ()
  in
  let status =
    if existed then if is_dirty t then Dirty_restart else Clean_restart
    else Fresh
  in
  mark_dirty t;
  if Obs.Flight.enabled () then
    flight_record t ~kind:FK.heap_open
      ~a:(match status with Fresh -> 0 | Clean_restart -> 1 | Dirty_restart -> 2)
      ();
  (t, status)

(* Offline, non-mutating open for inspection (bin/rstat): the three region
   files are read into memory (Pmem.load_image — the files are never
   attached as backing, so nothing ever writes back), the dirty flag is
   NOT set, and no recovery runs.  The caller sees exactly the durable
   state a post-crash open would see, and may even run [recover] or
   [audit] against the in-memory copy without touching the image. *)
let open_image ~path =
  let m, d, s = file_names path in
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then
        failwith ("Ralloc.open_image: missing heap file " ^ f))
    [ m; d; s ];
  let meta = Pmem.load_image ~path:m in
  if Pmem.load meta Layout.meta_magic <> Layout.magic_value then
    failwith ("Ralloc.open_image: " ^ path ^ " is not a Ralloc heap");
  (let v = Pmem.load meta Layout.meta_layout_version in
   if v <> Layout.layout_version then
     failwith
       (Printf.sprintf
          "Ralloc.open_image: %s: heap built by layout v%d, expected v%d" path v
          Layout.layout_version));
  let desc = Pmem.load_image ~path:d in
  let sb = Pmem.load_image ~path:s in
  let t =
    make_handle ~persist:true ~path:None ~name:(Filename.basename path) ~meta
      ~desc ~sb ()
  in
  (t, if is_dirty t then Dirty_restart else Clean_restart)

let close t =
  check_open t;
  CK.set_site site_close;
  flight_record t ~kind:FK.heap_close ();
  unregister_heap t;
  flush_thread_cache t;
  Pmem.flush_all t.meta;
  Pmem.flush_all t.desc;
  Pmem.flush_all t.sb;
  mstore t Layout.meta_dirty 0;
  Pmem.flush t.meta Layout.meta_dirty;
  Pmem.fence t.meta;
  List.iter Pmem.close_file [ t.meta; t.desc; t.sb ];
  t.closed <- true

let crash_and_reopen ?sb_base t =
  Pmem.crash t.meta;
  Pmem.crash t.desc;
  Pmem.crash t.sb;
  t.closed <- true;
  let nt =
    make_handle ~persist:t.persist ?sb_base ~expansion_sbs:t.expansion_sbs
      ~tcache:t.use_tcache ~path:t.path ~name:t.heap_name ~meta:t.meta
      ~desc:t.desc ~sb:t.sb ()
  in
  let dirty = is_dirty nt in
  mark_dirty nt;
  flight_record nt ~kind:FK.heap_open ~a:(if dirty then 2 else 1) ();
  (nt, if dirty then Dirty_restart else Clean_restart)

let set_eviction_rate t p =
  Pmem.set_eviction_rate t.meta p;
  Pmem.set_eviction_rate t.desc p;
  Pmem.set_eviction_rate t.sb p

(* ------------------------------------------------------------------ *)
(* Recovery: tracing GC + metadata reconstruction (paper §4.5)        *)
(* ------------------------------------------------------------------ *)

(* Is [va] the start of a plausible block?  Trusts only the persisted
   per-descriptor size information, as recovery must. *)
let block_info t ~used va =
  let off = va - t.sb_base in
  if off < Layout.sb_first_offset || off >= used || off land 7 <> 0 then None
  else begin
    let d = Layout.descriptor_of_offset off in
    let c = dload t d Layout.d_class in
    let b = dload t d Layout.d_bsize in
    if c = 0 then
      if
        b >= Layout.superblock_bytes
        && b mod Layout.superblock_bytes = 0
        && off = Layout.superblock_offset d
        && off + b <= used
      then Some (d, 0, b, true)
      else None
    else if Size_class.is_valid_class c && b = Size_class.block_size c then begin
      let rel = off - Layout.superblock_offset d in
      if rel mod b = 0 then Some (d, rel / b, b, false) else None
    end
    else None
  end

let valid_block t va =
  check_open t;
  block_info t ~used:(used_bytes t) va <> None

type recovery_stats = {
  reachable_blocks : int;
  reclaimed_superblocks : int;
  partial_superblocks : int;
  trace_seconds : float;
  rebuild_seconds : float;
}

(* What reconstruction must do with each descriptor, decided sequentially
   so that multi-superblock (large) blocks are never split across parallel
   workers. *)
type rebuild_task =
  | Reclaim  (* unreachable superblock: back to the free list *)
  | Rebuild_small  (* live small-class superblock: rebuild its free list *)
  | Large_head of int  (* live large block covering this many superblocks *)
  | Large_body  (* interior of a live large block *)

(* Step 5 of recovery — trace every block reachable from the persistent
   roots (registered filters where available, conservative scan
   otherwise).  Pure reads: shared by [recover], which rebuilds metadata
   from the marks, and by [audit], which only diffs them against the
   metadata.  Returns (per-descriptor mark bitmaps, reachable count,
   used watermark, provisioned superblocks). *)
let trace_reachable t =
  let used = used_bytes t in
  let used_sbs = (used - Layout.sb_first_offset) / Layout.superblock_bytes in
  let marks : Bytes.t option array = Array.make (max used_sbs 1) None in
  let reachable = ref 0 in
  let pending : (int * filter option * int) Stack.t = Stack.create () in
  let visit ?filter va =
    match block_info t ~used va with
    | None -> ()
    | Some (d, idx, bsize, is_large) ->
      let bm =
        match marks.(d) with
        | Some bm -> bm
        | None ->
          let n = if is_large then 1 else Layout.superblock_bytes / bsize in
          let bm = Bytes.make n '\000' in
          marks.(d) <- Some bm;
          bm
      in
      if Bytes.get bm idx = '\000' then begin
        Bytes.set bm idx '\001';
        incr reachable;
        Stack.push (va, filter, bsize) pending
      end
  in
  let gc = { visit } in
  for i = 0 to max_roots - 1 do
    match Pptr.decode_based (mload t (Layout.meta_root i)) with
    | Some (Pptr.Sb, off) -> visit ?filter:t.filters.(i) (t.sb_base + off)
    | Some _ | None -> ()
  done;
  let conservative_scan va bsize =
    for w = 0 to (bsize / 8) - 1 do
      let holder = va + (8 * w) in
      let word = load t holder in
      if Pptr.looks_like_pptr word then visit (Pptr.decode ~holder word)
    done
  in
  while not (Stack.is_empty pending) do
    let va, filter, bsize = Stack.pop pending in
    match filter with
    | Some f -> f gc va
    | None -> conservative_scan va bsize
  done;
  (marks, !reachable, used, used_sbs)

(* Offline reachability predicate on block offsets, for cross-referencing
   provenance-ring entries against the live set (bin/rstat --prof): runs
   the same trace as recover/audit once, then answers membership from the
   mark bitmaps. *)
let reachable_offsets t =
  check_open t;
  let marks, _, used, _ = trace_reachable t in
  fun off ->
    match block_info t ~used (t.sb_base + off) with
    | None -> false
    | Some (d, idx, _, _) -> (
        match marks.(d) with
        | Some bm -> Bytes.get bm idx <> '\000'
        | None -> false)

let recover ?(domains = 1) t =
  check_open t;
  CK.set_site site_recover;
  let s_trace = Obs.Trace.begin_span () in
  let t_start = Unix.gettimeofday () in
  if Obs.Flight.enabled () then
    flight_record t ~kind:FK.recovery_begin
      ~a:((used_bytes t - Layout.sb_first_offset) / Layout.superblock_bytes)
      ();
  let marks, reachable, _used, used_sbs = trace_reachable t in
  let reachable = ref reachable in
  let t_trace = Unix.gettimeofday () in
  flight_record t ~kind:FK.recovery_trace ~a:!reachable ();
  Obs.Trace.span "ralloc.recover.trace" s_trace;
  let s_rebuild = Obs.Trace.begin_span () in
  (* Steps 3 and 6-9: empty lists, then rebuild every descriptor.  Task
     assignment is a cheap sequential pass; the actual reconstruction can
     be parallelized across superblocks (the paper's §6.4 future work). *)
  mstore t Layout.meta_free_list_head Layout.Head.empty;
  for c = 1 to Size_class.count do
    mstore t (Layout.meta_class_partial_head c) Layout.Head.empty
  done;
  let tasks = Array.make (max used_sbs 1) Reclaim in
  let d = ref 0 in
  while !d < used_sbs do
    (match marks.(!d) with
    | None ->
      tasks.(!d) <- Reclaim;
      incr d
    | Some _ ->
      let c = dload t !d Layout.d_class in
      if c = 0 then begin
        let k = dload t !d Layout.d_bsize / Layout.superblock_bytes in
        let k = min k (used_sbs - !d) in
        tasks.(!d) <- Large_head k;
        for i = !d + 1 to !d + k - 1 do
          tasks.(i) <- Large_body
        done;
        d := !d + k
      end
      else begin
        tasks.(!d) <- Rebuild_small;
        incr d
      end)
  done;
  let reclaimed = Atomic.make 0 and partials = Atomic.make 0 in
  let rebuild_one d =
    match tasks.(d) with
    | Large_body -> ()
    | Reclaim ->
      (* unreachable superblock: reclaim it and erase its stale size
         signature so it cannot revalidate dangling values later *)
      anchor_store t d { avail = Anchor.no_block; count = 0; state = Empty; tag = 0 };
      dstore t d Layout.d_class 0;
      dstore t d Layout.d_bsize 0;
      push_free t d;
      Atomic.incr reclaimed
    | Large_head k ->
      for i = d to d + k - 1 do
        anchor_store t i { avail = Anchor.no_block; count = 0; state = Full; tag = 0 }
      done
    | Rebuild_small ->
      let bm = Option.get marks.(d) in
      let c = dload t d Layout.d_class in
      let bsz = Size_class.block_size c in
      let n = Layout.superblock_bytes / bsz in
      let sb_off = Layout.superblock_offset d in
      let head = ref Anchor.no_block and nfree = ref 0 in
      for idx = n - 1 downto 0 do
        if Bytes.get bm idx = '\000' then begin
          Pmem.store t.sb ((sb_off + (idx * bsz)) lsr 3) !head;
          head := idx;
          incr nfree
        end
      done;
      if !nfree = 0 then
        anchor_store t d { avail = Anchor.no_block; count = 0; state = Full; tag = 0 }
      else begin
        anchor_store t d { avail = !head; count = !nfree; state = Partial; tag = 0 };
        push_partial t c d;
        Atomic.incr partials
      end
  in
  (if domains <= 1 || used_sbs < 2 * domains then
     for d = 0 to used_sbs - 1 do
       rebuild_one d
     done
   else begin
     (* each worker owns a contiguous slice of descriptors; the global
        free and partial lists are lock-free, so pushes may interleave *)
     let chunk = (used_sbs + domains - 1) / domains in
     let workers =
       List.init domains (fun w ->
           Domain.spawn (fun () ->
               for d = w * chunk to min (((w + 1) * chunk) - 1) (used_sbs - 1)
               do
                 rebuild_one d
               done))
     in
     List.iter Domain.join workers
   end);
  let reclaimed = Atomic.get reclaimed and partials = Atomic.get partials in
  (* Step 10: flush the three regions and fence. *)
  if t.persist then begin
    Pmem.flush_all t.meta;
    Pmem.flush_all t.desc;
    Pmem.flush_all t.sb;
    Pmem.fence t.meta
  end;
  let t_end = Unix.gettimeofday () in
  Obs.Trace.span "ralloc.recover.rebuild" s_rebuild;
  flight_record t ~kind:FK.recovery_done ~a:reclaimed ~b:partials ();
  if Obs.on () then begin
    Obs.Counter.incr obs_recover_runs;
    Obs.Histogram.record obs_recover_trace_ns
      (int_of_float ((t_trace -. t_start) *. 1e9));
    Obs.Histogram.record obs_recover_rebuild_ns
      (int_of_float ((t_end -. t_trace) *. 1e9));
    Obs.Gauge.set obs_recover_reachable !reachable
  end;
  {
    reachable_blocks = !reachable;
    reclaimed_superblocks = reclaimed;
    partial_superblocks = partials;
    trace_seconds = t_trace -. t_start;
    rebuild_seconds = t_end -. t_trace;
  }

(* ------------------------------------------------------------------ *)
(* Heap census                                                        *)
(* ------------------------------------------------------------------ *)

module Census = struct
  type class_stats = {
    size_class : int;
    block_size : int;
    superblocks : int;
    full : int;
    partial : int;
    allocated_blocks : int;
    free_blocks : int;
    slack_bytes : int;
  }

  type t = {
    capacity_bytes : int;
    provisioned_bytes : int;
    provisioned_superblocks : int;
    empty_superblocks : int;
    large_superblocks : int;
    large_blocks : int;
    allocated_blocks : int;
    free_blocks : int;
    allocated_bytes : int;
    free_bytes : int;
    slack_bytes : int;
    occupancy : float;
    internal_frag : float;
    external_frag : float;
    classes : class_stats list;
    dirty : bool;
  }

  let pp ppf c =
    Format.fprintf ppf
      "capacity %d B, provisioned %d superblocks (%d B), dirty=%b@\n\
       allocated: %d blocks (%d large), %d B; free: %d small blocks, %d B@\n\
       occupancy %.3f  internal_frag %.3f  external_frag %.3f  slack %d B@\n"
      c.capacity_bytes c.provisioned_superblocks c.provisioned_bytes c.dirty
      c.allocated_blocks c.large_blocks c.allocated_bytes c.free_blocks
      c.free_bytes c.occupancy c.internal_frag c.external_frag c.slack_bytes;
    List.iter
      (fun r ->
        Format.fprintf ppf
          "  class %2d (%5d B): %3d sbs (%d full, %d partial)  alloc=%-6d \
           free=%-6d slack=%d B@\n"
          r.size_class r.block_size r.superblocks r.full r.partial
          r.allocated_blocks r.free_blocks r.slack_bytes)
      c.classes
end

(* Walk every provisioned descriptor and aggregate occupancy and
   fragmentation.  Quiescent use only (like Debug.report): a concurrent
   mutator makes the numbers approximate, never unsafe.  Definitions:

   - occupancy: allocated bytes / provisioned bytes — how full the
     touched part of the heap is;
   - internal fragmentation: per-superblock geometry slack (the
     64 KB mod block_size remainder no block can ever occupy) over
     provisioned bytes;
   - external fragmentation: the share of all free bytes that is
     trapped inside class-bound partial superblocks — free memory that
     cannot serve another size class or a large allocation until its
     superblock drains empty.

   "Allocated" counts blocks the metadata says are taken, which includes
   blocks sitting in thread caches. *)
let census t =
  check_open t;
  let used = used_bytes t in
  let used_sbs = (used - Layout.sb_first_offset) / Layout.superblock_bytes in
  let per_class =
    Array.init
      (Size_class.count + 1)
      (fun c ->
        {
          Census.size_class = c;
          block_size =
            (if Size_class.is_valid_class c then Size_class.block_size c else 0);
          superblocks = 0;
          full = 0;
          partial = 0;
          allocated_blocks = 0;
          free_blocks = 0;
          slack_bytes = 0;
        })
  in
  let empty = ref 0
  and large_sbs = ref 0
  and large_blocks = ref 0
  and large_bytes = ref 0 in
  let d = ref 0 in
  while !d < used_sbs do
    let a = anchor_load t !d in
    let c = dload t !d Layout.d_class in
    (match a.state with
    | Empty ->
      incr empty;
      incr d
    | Partial | Full ->
      if c = 0 then begin
        let k = max 1 (dload t !d Layout.d_bsize / Layout.superblock_bytes) in
        let k = min k (used_sbs - !d) in
        large_sbs := !large_sbs + k;
        incr large_blocks;
        large_bytes := !large_bytes + (k * Layout.superblock_bytes);
        d := !d + k
      end
      else if Size_class.is_valid_class c then begin
        let r = per_class.(c) in
        let n = Size_class.blocks_per_superblock c in
        let bsz = Size_class.block_size c in
        per_class.(c) <-
          {
            r with
            superblocks = r.superblocks + 1;
            full = (r.full + if a.state = Full then 1 else 0);
            partial = (r.partial + if a.state = Partial then 1 else 0);
            free_blocks = r.free_blocks + a.count;
            allocated_blocks = r.allocated_blocks + (n - a.count);
            slack_bytes =
              r.slack_bytes + (Layout.superblock_bytes - (n * bsz));
          };
        incr d
      end
      else incr d)
  done;
  let classes =
    Array.to_list per_class |> List.filter (fun r -> r.Census.superblocks > 0)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 classes in
  let small_alloc = sum (fun r -> r.Census.allocated_blocks) in
  let small_free = sum (fun r -> r.Census.free_blocks) in
  let small_alloc_bytes =
    sum (fun r -> r.Census.allocated_blocks * r.Census.block_size)
  in
  let small_free_bytes =
    sum (fun r -> r.Census.free_blocks * r.Census.block_size)
  in
  let slack = sum (fun r -> r.Census.slack_bytes) in
  let provisioned_bytes = used_sbs * Layout.superblock_bytes in
  let allocated_bytes = small_alloc_bytes + !large_bytes in
  let free_bytes =
    small_free_bytes
    + ((!empty + (t.nsb - used_sbs)) * Layout.superblock_bytes)
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    Census.capacity_bytes = t.nsb * Layout.superblock_bytes;
    provisioned_bytes;
    provisioned_superblocks = used_sbs;
    empty_superblocks = !empty;
    large_superblocks = !large_sbs;
    large_blocks = !large_blocks;
    allocated_blocks = small_alloc + !large_blocks;
    free_blocks = small_free;
    allocated_bytes;
    free_bytes;
    slack_bytes = slack;
    occupancy = ratio allocated_bytes provisioned_bytes;
    internal_frag = ratio slack provisioned_bytes;
    external_frag = ratio small_free_bytes free_bytes;
    classes;
    dirty = is_dirty t;
  }

(* ------------------------------------------------------------------ *)
(* Recoverability audit                                               *)
(* ------------------------------------------------------------------ *)

module Audit = struct
  type block = { offset : int; bytes : int }

  type t = {
    dirty : bool;
    provisioned_superblocks : int;
    reachable_blocks : int;
    allocated_blocks : int;
    leaked : block list;
    orphaned : block list;
    leaked_blocks : int;
    leaked_bytes : int;
    orphaned_blocks : int;
    orphaned_bytes : int;
    errors : string list;
    stale_metadata : string list;
    recoverable : bool;
    consistent : bool;
  }

  let pp ppf a =
    Format.fprintf ppf
      "dirty=%b  provisioned=%d sbs  reachable=%d blocks  allocated=%d \
       blocks@\n\
       leaked: %d blocks / %d B   orphaned: %d blocks / %d B@\n\
       recoverable=%b  consistent=%b@\n"
      a.dirty a.provisioned_superblocks a.reachable_blocks a.allocated_blocks
      a.leaked_blocks a.leaked_bytes a.orphaned_blocks a.orphaned_bytes
      a.recoverable a.consistent;
    List.iter (fun e -> Format.fprintf ppf "  error: %s@\n" e) a.errors;
    List.iter (fun s -> Format.fprintf ppf "  stale: %s@\n" s) a.stale_metadata;
    List.iter
      (fun b -> Format.fprintf ppf "  leaked   %#10x (%d B)@\n" b.offset b.bytes)
      a.leaked;
    List.iter
      (fun b ->
        Format.fprintf ppf "  orphaned %#10x (%d B)@\n" b.offset b.bytes)
      a.orphaned
end

(* The machine-checkable verdict on the paper's recoverability criterion:
   after tracing from the persistent roots, diff reachable blocks against
   what the metadata says is allocated.

   - [errors] are structural recoverability violations — persisted (bold)
     fields recovery itself must trust are wrong: a bad watermark, an
     undecodable root, an inconsistent class/block-size pair.  With any of
     these, [recoverable] is false: recovery on this image would mis-trace.
   - [stale_metadata] flags transient metadata (anchors, block free-list
     links) that cannot be walked.  Expected on a dirty (crashed) image —
     that is exactly the state recovery rebuilds — so it does not make the
     image unrecoverable, but it does make the diff incomplete.
   - [leaked] blocks are metadata-allocated but unreachable; [orphaned]
     blocks are reachable but metadata-free.  On a clean image both lists
     must be empty ([consistent]); on a dirty image they quantify how far
     the stale metadata has drifted from the reachable truth (the diff a
     recovery would repair).  Lists are capped at [max_list] entries;
     the counts and byte totals are exact.

   Read-only: never mutates the heap, so it can run before recovery on a
   dirty image and on [open_image] handles. *)
let audit ?(max_list = 64) t =
  check_open t;
  let marks, reachable, used, used_sbs = trace_reachable t in
  let size = Pmem.load t.sb Layout.sb_size_word in
  let errors = ref [] and stale = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let note fmt = Printf.ksprintf (fun s -> stale := s :: !stale) fmt in
  if
    used < Layout.sb_first_offset || used > size
    || (used - Layout.sb_first_offset) mod Layout.superblock_bytes <> 0
  then err "used watermark %d invalid for region of %d B" used size;
  for i = 0 to max_roots - 1 do
    let w = mload t (Layout.meta_root i) in
    if w <> Pptr.based_null && w <> 0 then
      match Pptr.decode_based w with
      | Some (Pptr.Sb, off) ->
        if block_info t ~used (t.sb_base + off) = None then
          err "root %d: offset %#x is not a valid block" i off
      | Some _ -> err "root %d: points outside the superblock region" i
      | None -> err "root %d: undecodable pointer word %#x" i w
  done;
  let leaked = ref []
  and orphaned = ref []
  and lb = ref 0
  and lbytes = ref 0
  and ob = ref 0
  and obytes = ref 0
  and alloc_total = ref 0 in
  let add_leak off bytes =
    incr lb;
    lbytes := !lbytes + bytes;
    if !lb <= max_list then leaked := { Audit.offset = off; bytes } :: !leaked
  in
  let add_orphan off bytes =
    incr ob;
    obytes := !obytes + bytes;
    if !ob <= max_list then
      orphaned := { Audit.offset = off; bytes } :: !orphaned
  in
  let d = ref 0 in
  while !d < used_sbs do
    let a = anchor_load t !d in
    let c = dload t !d Layout.d_class in
    let b = dload t !d Layout.d_bsize in
    let sb_off = Layout.superblock_offset !d in
    let marked = marks.(!d) in
    let step = ref 1 in
    (match a.state with
    | Empty -> (
      (* metadata says the whole superblock is free: anything reachable
         inside it is orphaned *)
      match marked with
      | None -> ()
      | Some bm ->
        if c = 0 then add_orphan sb_off b
        else if Size_class.is_valid_class c then begin
          let bsz = Size_class.block_size c in
          Bytes.iteri
            (fun i ch -> if ch <> '\000' then add_orphan (sb_off + (i * bsz)) bsz)
            bm
        end)
    | Partial | Full ->
      if c = 0 then begin
        if
          b < Layout.superblock_bytes
          || b mod Layout.superblock_bytes <> 0
          || sb_off + b > used
        then err "descriptor %d: large block size %d invalid" !d b
        else begin
          let k = b / Layout.superblock_bytes in
          step := min k (used_sbs - !d);
          incr alloc_total;
          if marked = None then add_leak sb_off b
        end
      end
      else if not (Size_class.is_valid_class c) || b <> Size_class.block_size c
      then err "descriptor %d: class %d / block size %d inconsistent" !d c b
      else begin
        let n = Size_class.blocks_per_superblock c in
        let free = Array.make n false in
        let ok = ref true in
        if a.count > n then begin
          note "descriptor %d: anchor count %d exceeds %d blocks" !d a.count n;
          ok := false
        end
        else begin
          (* the block free list threads through block word 0 — transient
             links, so a broken chain is stale metadata, not corruption *)
          let idx = ref a.avail in
          try
            for _ = 1 to a.count do
              if !idx < 0 || !idx >= n || free.(!idx) then begin
                note "descriptor %d: broken block free list" !d;
                ok := false;
                raise Exit
              end;
              free.(!idx) <- true;
              idx := Pmem.load t.sb ((sb_off + (!idx * b)) lsr 3)
            done
          with Exit -> ()
        end;
        if !ok then
          for i = 0 to n - 1 do
            let m =
              match marked with
              | Some bm -> Bytes.get bm i <> '\000'
              | None -> false
            in
            let alloc = not free.(i) in
            if alloc then incr alloc_total;
            if alloc && not m then add_leak (sb_off + (i * b)) b
            else if m && not alloc then add_orphan (sb_off + (i * b)) b
          done
      end);
    d := !d + !step
  done;
  let errors = List.rev !errors and stale = List.rev !stale in
  let recoverable = errors = [] in
  {
    Audit.dirty = is_dirty t;
    provisioned_superblocks = used_sbs;
    reachable_blocks = reachable;
    allocated_blocks = !alloc_total;
    leaked = List.rev !leaked;
    orphaned = List.rev !orphaned;
    leaked_blocks = !lb;
    leaked_bytes = !lbytes;
    orphaned_blocks = !ob;
    orphaned_bytes = !obytes;
    errors;
    stale_metadata = stale;
    recoverable;
    consistent = recoverable && stale = [] && !lb = 0 && !ob = 0;
  }

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

module Debug = struct
  type class_report = {
    size_class : int;
    block_size : int;
    superblocks : int;
    full : int;
    partial : int;
    free_blocks : int;
    allocated_blocks : int;
  }

  type report = {
    provisioned_superblocks : int;
    empty_superblocks : int;
    large_superblocks : int;
    total_allocated_blocks : int;
    total_free_blocks : int;
    classes : class_report list;
    dirty : bool;
  }

  (* Every block address held by the CALLING domain's caches: the LIFO
     arrays, the owned chains (walked through their link words) and the
     owned runs.  Test oracle for the lazy-adoption invariant — these
     blocks are metadata-allocated yet application-free, and each must
     appear exactly once. *)
  let cached_blocks t =
    check_open t;
    let set = tcaches t in
    let acc = ref [] in
    for c = 1 to Size_class.count do
      let tc = set.(c) in
      for i = 0 to tc.Tcache.count - 1 do
        acc := tc.Tcache.blocks.(i) :: !acc
      done;
      let start = tc.Tcache.own_start and bsz = tc.Tcache.own_bsz in
      let idx = ref tc.Tcache.chain_head in
      for k = 1 to tc.Tcache.chain_len do
        let va = start + (!idx * bsz) in
        acc := va :: !acc;
        if k < tc.Tcache.chain_len then idx := load t va
      done;
      for i = tc.Tcache.run_next to tc.Tcache.run_end - 1 do
        acc := (start + (i * bsz)) :: !acc
      done
    done;
    !acc

  (* Projection of the fuller [census] walk (quiescent use only), kept
     for the pre-census callers (tests, rheap fsck). *)
  let report t =
    let cen = census t in
    let classes =
      List.map
        (fun (r : Census.class_stats) ->
          {
            size_class = r.size_class;
            block_size = r.block_size;
            superblocks = r.superblocks;
            full = r.full;
            partial = r.partial;
            free_blocks = r.free_blocks;
            allocated_blocks = r.allocated_blocks;
          })
        cen.Census.classes
    in
    {
      provisioned_superblocks = cen.Census.provisioned_superblocks;
      empty_superblocks = cen.Census.empty_superblocks;
      large_superblocks = cen.Census.large_superblocks;
      total_allocated_blocks =
        List.fold_left (fun acc r -> acc + r.allocated_blocks) 0 classes;
      total_free_blocks =
        List.fold_left (fun acc r -> acc + r.free_blocks) 0 classes;
      classes;
      dirty = cen.Census.dirty;
    }

  let pp_report ppf r =
    Format.fprintf ppf
      "heap: %d superblocks provisioned (%d empty, %d in large blocks),        dirty=%b@
%d blocks allocated, %d free on superblock lists@
"
      r.provisioned_superblocks r.empty_superblocks r.large_superblocks
      r.dirty r.total_allocated_blocks r.total_free_blocks;
    List.iter
      (fun c ->
        Format.fprintf ppf
          "  class %2d (%5d B): %3d sbs (%d full, %d partial)  alloc=%d            free=%d@
"
          c.size_class c.block_size c.superblocks c.full c.partial
          c.allocated_blocks c.free_blocks)
      r.classes
end

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let stats t =
  let a = Pmem.Stats.read t.meta
  and b = Pmem.Stats.read t.desc
  and c = Pmem.Stats.read t.sb in
  {
    Pmem.Stats.flushes = a.flushes + b.flushes + c.flushes;
    fences = a.fences + b.fences + c.fences;
    cas_ops = a.cas_ops + b.cas_ops + c.cas_ops;
    evictions = a.evictions + b.evictions + c.evictions;
  }

let reset_stats t =
  Pmem.Stats.reset t.meta;
  Pmem.Stats.reset t.desc;
  Pmem.Stats.reset t.sb

(* ------------------------------------------------------------------ *)
(* Standard black-box series                                          *)
(* ------------------------------------------------------------------ *)

(* The allocator/pmem series every sampler should record, shared by the
   bench interval ticker and the server's sampler thread so both paths
   snapshot through the same code.  Rates are deltas of the process-wide
   Obs counters over the tick (so they advance only while metrics are
   on); ratios are scaled to integers (per-mille / milli) because Tsdb
   records hold word sums.  [tsdb_global_sources] is the heap-free
   subset (everything read from the process-wide registry);
   [tsdb_sources] adds the census-derived per-heap series. *)
let tsdb_global_sources () =
  let rate read =
    let last = ref (read ()) in
    fun dt ->
      let v = read () in
      let d = v - !last in
      last := v;
      if dt <= 0. then 0 else int_of_float (float_of_int d /. dt)
  in
  let sum_classes arr () =
    Array.fold_left (fun acc c -> acc + Obs.Counter.read c) 0 arr
  in
  let pcheck_wf = Obs.Counter.make "pcheck.wasted_flush"
  and pcheck_ff = Obs.Counter.make "pcheck.wasted_fence" in
  let per_kop read =
    (* flushes (or fences) per 1000 allocator operations this tick *)
    let ops () =
      sum_classes obs_alloc_class () + sum_classes obs_free_class ()
    in
    let last_v = ref (read ()) and last_o = ref (ops ()) in
    fun _dt ->
      let v = read () and o = ops () in
      let dv = v - !last_v and dops = o - !last_o in
      last_v := v;
      last_o := o;
      if dops <= 0 then 0 else dv * 1000 / dops
  in
  [
    ("alloc.mallocs_s", rate (sum_classes obs_alloc_class));
    ("alloc.frees_s", rate (sum_classes obs_free_class));
    ( "tcache.hit_pm",
      fun _dt ->
        let h = Obs.Counter.read obs_tcache_hit
        and m = Obs.Counter.read obs_tcache_miss in
        if h + m = 0 then 0 else h * 1000 / (h + m) );
    ( "pmem.flush_per_kop",
      per_kop (fun () -> (Pmem.Stats.global ()).Pmem.Stats.flushes) );
    ( "pmem.fence_per_kop",
      per_kop (fun () -> (Pmem.Stats.global ()).Pmem.Stats.fences) );
    ( "pmem.write_amp_milli",
      fun _dt -> int_of_float (Pmem.write_amp () *. 1000.) );
    ("pcheck.wasted_flush_s", rate (fun () -> Obs.Counter.read pcheck_wf));
    ("pcheck.wasted_fence_s", rate (fun () -> Obs.Counter.read pcheck_ff));
  ]

let tsdb_sources t =
  (* One census walk per tick, shared: the occupancy source computes it
     and parks external fragmentation for the frag source.  Sampler
     sources run in declaration order, so keep these two adjacent. *)
  let parked_frag = ref 0 in
  tsdb_global_sources ()
  @ [
      ( "alloc.occupancy_pm",
        fun _dt ->
          let c = census t in
          parked_frag := int_of_float (c.Census.external_frag *. 1000.);
          int_of_float (c.Census.occupancy *. 1000.) );
      ("alloc.ext_frag_pm", fun _dt -> !parked_frag);
    ]
