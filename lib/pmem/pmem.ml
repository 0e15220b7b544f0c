type buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external raw_load : buf -> int -> int = "rpm_load" [@@noalloc]
external raw_store : buf -> int -> int -> unit = "rpm_store" [@@noalloc]
external raw_cas : buf -> int -> int -> int -> bool = "rpm_cas" [@@noalloc]
external raw_fetch_add : buf -> int -> int -> int = "rpm_fetch_add" [@@noalloc]
external raw_load64 : buf -> int -> int64 = "rpm_load64"
external raw_store64 : buf -> int -> int64 -> unit = "rpm_store64" [@@noalloc]

external raw_flush_line : buf -> buf -> int -> unit = "rpm_flush_line"
[@@noalloc]

external raw_sync_all : buf -> buf -> int -> int -> unit = "rpm_sync_all"
[@@noalloc]

external raw_discard : buf -> unit = "rpm_discard"

let words_per_line = 8
let line_bytes = 64

(* Registry counterparts of the per-region [Stats] atomics: one global
   aggregate per event kind, so [Obs.dump] shows the whole process's
   persistence traffic next to the allocator metrics.  The per-region
   counters below remain the source of truth for [Stats.read]. *)
let obs_flushes = Obs.Counter.make "pmem.flushes"
let obs_fences = Obs.Counter.make "pmem.fences"
let obs_cas = Obs.Counter.make "pmem.cas_ops"
let obs_evictions = Obs.Counter.make "pmem.evictions"
let obs_flush_dedup = Obs.Counter.make "pmem.flush_dedup"
let obs_fences_elided = Obs.Counter.make "pmem.fences_elided"
let obs_drain_ns = Obs.Histogram.make "pmem.drain_ns"

(* Write-amplification accounting: logical bytes the program stored into
   the volatile view vs physical bytes the persistence pipeline wrote
   back to the durable medium (fence drains, synchronous flushes,
   spontaneous evictions — always whole 64 B lines, which is where the
   amplification comes from).  Bulk prefix write-backs at format,
   recovery and close are deliberately excluded: they would swamp the
   steady-state ratio the black box tracks.  Both counters are registry
   counters, so recording is gated on the metrics flag like all other
   telemetry. *)
let obs_logical_bytes = Obs.Counter.make "pmem.logical_bytes"
let obs_physical_bytes = Obs.Counter.make "pmem.physical_bytes"

let logical_bytes () = Obs.Counter.read obs_logical_bytes
let physical_bytes () = Obs.Counter.read obs_physical_bytes

let write_amp () =
  let l = logical_bytes () in
  if l = 0 then 0.
  else float_of_int (physical_bytes ()) /. float_of_int l

let () = Obs.register_derived "pmem.write_amp" write_amp

(* ------------------------------------------------------------------ *)
(* NVM latency model                                                   *)
(*                                                                     *)
(* A clwb is cheap to *issue*; only the following sfence stalls until  *)
(* the posted write-backs complete (Izraelevitz et al., 2019).  The    *)
(* default Pipelined mode charges a small issue cost per flush and a   *)
(* drain cost of max(fence_ns, k * drain_ns) at the fence — the k      *)
(* write-backs overlap in the memory subsystem (drain_ns is the        *)
(* bandwidth-limited per-line rate, well under the serial flush_ns)    *)
(* rather than each paying flush_ns + fence_ns serially.  Synchronous  *)
(* mode retains the legacy model (full flush latency charged inline,   *)
(* fences a fixed cost) for the pipeline ablation.  Flush/fence        *)
(* *counts* are identical in both modes: the paper's flush-accounting  *)
(* tables are mode-invariant.                                          *)
(* ------------------------------------------------------------------ *)

let flush_latency_ns = ref 90
let fence_latency_ns = ref 140
let issue_latency_ns = ref 15
let drain_latency_ns = ref 30

(* Spin-loop iteration counts for the latencies, precomputed so the hot
   flush/fence paths do no float math: -1 = recompute on next use (after
   a set_latency or before first calibration). *)
let flush_iters = ref (-1)
let fence_iters = ref (-1)
let issue_iters = ref (-1)
let drain_iters = ref (-1)

let invalidate_iters () =
  flush_iters := -1;
  fence_iters := -1;
  issue_iters := -1;
  drain_iters := -1

let set_latency ?issue_ns ?drain_ns ~flush_ns ~fence_ns () =
  if flush_ns < 0 || fence_ns < 0 then invalid_arg "Pmem.set_latency";
  List.iter
    (function
      | Some i when i < 0 -> invalid_arg "Pmem.set_latency"
      | _ -> ())
    [ issue_ns; drain_ns ];
  flush_latency_ns := flush_ns;
  fence_latency_ns := fence_ns;
  (* The pipelined costs default to fixed fractions of the write-back
     latency so legacy two-argument callers (the abl_latency sweep,
     zero-cost test setups) scale them consistently: issuing a clwb is
     ~6x cheaper than its write-back, and overlapped write-backs drain
     ~3x faster than serial ones (the WPQ is bandwidth-limited, not
     latency-limited). *)
  issue_latency_ns := (match issue_ns with Some i -> i | None -> flush_ns / 6);
  drain_latency_ns := (match drain_ns with Some i -> i | None -> flush_ns / 3);
  invalidate_iters ()

type mode = Synchronous | Pipelined

let mode = ref Pipelined
let set_mode m = mode := m
let current_mode () = !mode

(* Calibrate a spin loop — how many iterations burn one nanosecond — on
   first use, once per process.  Eagerly calibrating at module load burned
   ~3M iterations in every process, including tests that never charge
   latency.  Not a [lazy]: concurrent forcing from several domains raises
   [CamlinternalLazy.Undefined], so this is double-checked under a mutex
   (at worst two domains calibrate once each; the result is idempotent). *)
let spin_calibration = Atomic.make 0.0
let spin_calibration_lock = Mutex.create ()

let calibrate_spin () =
  let iters = 3_000_000 in
  let sink = ref 1 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    sink := (!sink * 25214903917) + i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !sink);
  let per_ns = float_of_int iters /. (dt *. 1e9) in
  if per_ns < 0.01 then 0.01 else per_ns

let spin_iters_per_ns () =
  let v = Atomic.get spin_calibration in
  if v > 0.0 then v
  else begin
    Mutex.lock spin_calibration_lock;
    let v = Atomic.get spin_calibration in
    let v = if v > 0.0 then v else calibrate_spin () in
    Atomic.set spin_calibration v;
    Mutex.unlock spin_calibration_lock;
    v
  end

let spin_iters n =
  if n > 0 then begin
    let sink = ref 1 in
    for i = 1 to n do
      sink := (!sink * 25214903917) + i
    done;
    ignore (Sys.opaque_identity !sink)
  end

(* Cached ns -> iterations conversion for the hot paths; [cache] is one of
   the [*_iters] refs above.  Racy refills are benign (idempotent). *)
let iters_of cache ns =
  let v = !cache in
  if v >= 0 then v
  else if ns <= 0 then begin
    cache := 0;
    0
  end
  else begin
    let v = int_of_float (float_of_int ns *. spin_iters_per_ns ()) in
    cache := v;
    v
  end

(* A domain's set of issued-but-undrained line write-backs for one region:
   the simulated write-combining buffer behind posted clwb.  Dedup (clwb
   of an already-pending line is absorbed) is a backwards linear scan:
   allocators fence every handful of flushes, so the set is nearly always
   tiny and repeated flushes hit the most recent entries — scanning is
   allocation-free where hashing pays a bucket cons per insert, and the
   flush/fence pair budget is a couple hundred nanoseconds. *)
type pending = {
  mutable lines : int array;
  mutable count : int;
}

type t = {
  region_name : string;
  nwords : int;
  vol : buf;  (* the CPUs' view: caches + memory *)
  vol_private : bool;
      (* [vol] is a private mapping of the image (file-backed regions):
         pages are read from the file when first touched and copied on
         first write, so a crash drops the copies instead of copying the
         durable view back *)
  pers : buf;
      (* the durable medium: for a file-backed region, a shared mapping of
         the image past its header, so every write-back lands in the file
         and a process that dies without closing leaves exactly the durable
         state behind *)
  mutable backing : Unix.file_descr option;  (* the image file, until close *)
  pending_key : pending Domain.DLS.key;
  pending_lock : Mutex.t;  (* guards [pending_all] and crash-time scans *)
  pending_all : pending list ref;  (* every domain's pending set, for crash *)
  mutable evict_threshold : int;  (* 0 = eviction off *)
  mutable rng : int;  (* xorshift state for eviction decisions; races are benign *)
  flushes : int Atomic.t;
  fences : int Atomic.t;
  cas_ops : int Atomic.t;
  evictions : int Atomic.t;
  mutable shadow : Pcheck.shadow option;
      (* persistency-checker state, allocated on first hook while the
         checker is enabled; None costs nothing *)
}

(* File layout: a 4096 B header (magic, word count, name), then the raw
   little-endian words of the persistent view. *)
let file_magic = "RALLOC-PMEM-2"
let data_offset = 4096

let round_up_words size_bytes =
  if size_bytes <= 0 then invalid_arg "Pmem.create: size must be positive";
  let words = (size_bytes + 7) / 8 in
  (words + words_per_line - 1) / words_per_line * words_per_line

let make_buf nwords : buf =
  let b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout nwords in
  Bigarray.Array1.fill b 0L;
  b

let region ~name ~nwords ~vol ~vol_private ~pers =
  let pending_lock = Mutex.create () in
  let pending_all = ref [] in
  let pending_key =
    (* First flush from a domain creates its pending set and registers it,
       so a crash can discard (or probabilistically apply) every domain's
       posted-but-undrained lines, not just the crashing domain's. *)
    Domain.DLS.new_key (fun () ->
        let p = { lines = Array.make 16 0; count = 0 } in
        Mutex.lock pending_lock;
        pending_all := p :: !pending_all;
        Mutex.unlock pending_lock;
        p)
  in
  {
    region_name = name;
    nwords;
    vol;
    vol_private;
    pers;
    backing = None;
    pending_key;
    pending_lock;
    pending_all;
    evict_threshold = 0;
    rng = 0x1e3779b97f4a7c15;
    flushes = Atomic.make 0;
    fences = Atomic.make 0;
    cas_ops = Atomic.make 0;
    evictions = Atomic.make 0;
    shadow = None;
  }

let create ?(name = "pmem") ~size_bytes () =
  let nwords = round_up_words size_bytes in
  region ~name ~nwords ~vol:(make_buf nwords) ~vol_private:false
    ~pers:(make_buf nwords)

(* Double-checked under the pending lock so two domains racing the first
   checked event agree on one shadow.  Callers holding [pending_lock]
   must fetch the shadow before locking. *)
let shadow t =
  match t.shadow with
  | Some s -> s
  | None ->
    Mutex.lock t.pending_lock;
    let s =
      match t.shadow with
      | Some s -> s
      | None ->
        let s = Pcheck.make_shadow ~name:t.region_name ~nwords:t.nwords in
        t.shadow <- Some s;
        s
    in
    Mutex.unlock t.pending_lock;
    s

let size_words t = t.nwords
let size_bytes t = t.nwords * 8
let name t = t.region_name

let check_word t w =
  if w < 0 || w >= t.nwords then
    invalid_arg
      (Printf.sprintf "Pmem(%s): word index %d out of bounds [0,%d)"
         t.region_name w t.nwords)

let load t w =
  check_word t w;
  if Pcheck.on () then Pcheck.on_load (shadow t) w;
  raw_load t.vol w

(* xorshift64; quality is irrelevant, speed is. *)
let next_rng t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  x land 0x3FFFFFFF

let evict_line t w =
  Atomic.incr t.evictions;
  Obs.Counter.incr obs_evictions;
  Obs.Counter.add obs_physical_bytes line_bytes;
  let line = w / words_per_line in
  if Pcheck.on () then Pcheck.on_evict (shadow t) ~line;
  raw_flush_line t.vol t.pers line

let store t w v =
  check_word t w;
  raw_store t.vol w v;
  Obs.Counter.add obs_logical_bytes 8;
  if Pcheck.on () then Pcheck.on_store (shadow t) w;
  if t.evict_threshold > 0 && next_rng t < t.evict_threshold then evict_line t w

let cas t w ~expected ~desired =
  check_word t w;
  Atomic.incr t.cas_ops;
  Obs.Counter.incr obs_cas;
  (* a CAS reads the word either way; only a successful one stores *)
  if Pcheck.on () then Pcheck.on_load (shadow t) w;
  let ok = raw_cas t.vol w expected desired in
  if ok then Obs.Counter.add obs_logical_bytes 8;
  if ok && Pcheck.on () then Pcheck.on_store (shadow t) w;
  if ok && t.evict_threshold > 0 && next_rng t < t.evict_threshold then
    evict_line t w;
  ok

let fetch_add t w d =
  check_word t w;
  Atomic.incr t.cas_ops;
  Obs.Counter.incr obs_cas;
  Obs.Counter.add obs_logical_bytes 8;
  if Pcheck.on () then begin
    (* read-modify-write: the read can observe a lost word *)
    Pcheck.on_load (shadow t) w;
    Pcheck.on_store (shadow t) w
  end;
  raw_fetch_add t.vol w d

(* ------------------------------------------------------------------ *)
(* Flush pipeline                                                      *)
(* ------------------------------------------------------------------ *)

let enqueue_line t line =
  let p = Domain.DLS.get t.pending_key in
  let n = p.count in
  let lines = p.lines in
  (* scan newest-first: a re-flush almost always targets a recent line *)
  let i = ref (n - 1) in
  while !i >= 0 && lines.(!i) <> line do
    decr i
  done;
  if !i >= 0 then Obs.Counter.incr obs_flush_dedup
  else begin
    if n = Array.length lines then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit lines 0 bigger 0 n;
      p.lines <- bigger
    end;
    p.lines.(n) <- line;
    p.count <- n + 1
  end

(* Write the pending lines back volatile -> persistent.  Returns how many
   lines drained.  Called only by the set's owning domain (fence) or under
   the pending lock (close).  Allocation-free: the common k of 1-2 must not
   cost more than the latency the pipeline saves. *)
let drain_pending t p =
  let k = p.count in
  if k > 0 then begin
    for i = 0 to k - 1 do
      raw_flush_line t.vol t.pers p.lines.(i)
    done;
    Obs.Counter.add obs_physical_bytes (k * line_bytes);
    p.count <- 0
  end;
  k

let flush_impl t w =
  check_word t w;
  Atomic.incr t.flushes;
  Obs.Counter.incr obs_flushes;
  let line = w / words_per_line in
  if Pcheck.on () then Pcheck.on_flush (shadow t) ~line;
  match !mode with
  | Pipelined ->
    enqueue_line t line;
    spin_iters (iters_of issue_iters !issue_latency_ns)
  | Synchronous ->
    raw_flush_line t.vol t.pers line;
    Obs.Counter.add obs_physical_bytes line_bytes;
    spin_iters (iters_of flush_iters !flush_latency_ns)

let fence_impl t =
  Atomic.incr t.fences;
  Obs.Counter.incr obs_fences;
  if Pcheck.on () then Pcheck.on_fence (shadow t);
  match !mode with
  | Synchronous -> spin_iters (iters_of fence_iters !fence_latency_ns)
  | Pipelined ->
    if Obs.on () then begin
      let t0 = Obs.now_ns () in
      let k = drain_pending t (Domain.DLS.get t.pending_key) in
      spin_iters
        (max
           (iters_of fence_iters !fence_latency_ns)
           (k * iters_of drain_iters !drain_latency_ns));
      Obs.Histogram.record obs_drain_ns (Obs.now_ns () - t0)
    end
    else begin
      let k = drain_pending t (Domain.DLS.get t.pending_key) in
      (* The k posted write-backs overlap: the fence stalls for the slower
         of its own cost and the bandwidth-limited drain — k lines at the
         overlapped per-line rate — not for k serial write-backs. *)
      spin_iters
        (max
           (iters_of fence_iters !fence_latency_ns)
           (k * iters_of drain_iters !drain_latency_ns))
    end

(* Span accounting shims: when request-stage spans are enabled, the time
   spent issuing a flush or draining a fence is added to the ambient sink's
   persist channel, so a server can attribute it to the request being
   served.  Simulated-NVM traffic is unchanged: the shim is two clock
   reads around the real operation, nothing more — pcheck event streams
   and flush/fence counters are byte-identical with spans on or off. *)

let flush t w =
  if Obs.Span.on () then begin
    let t0 = Obs.now_ns () in
    flush_impl t w;
    Obs.Span.sink_add Obs.Span.ch_persist (Obs.now_ns () - t0)
  end
  else flush_impl t w

let fence t =
  if Obs.Span.on () then begin
    let t0 = Obs.now_ns () in
    fence_impl t;
    Obs.Span.sink_add Obs.Span.ch_persist (Obs.now_ns () - t0)
  end
  else fence_impl t

(* ---- Group commit: per-domain release-fence deferral ------------------- *)
(* A domain inside a deferral section elides its *release* fences — the
   post-publish fences whose only job is to bound when an operation becomes
   durable, not to order one persistent store before another — and records
   which regions were touched.  [drain_deferred] later issues one real fence
   per touched region, amortizing the stall over the whole batch (WAL-style
   group commit).  Ordering fences (content-before-publish) must keep using
   [fence]; eliding those can tear values because a crash keeps any subset
   of the posted lines, so a publish edge can persist without its payload. *)

type defer_state = {
  mutable defer_active : bool;
  mutable defer_elided : int; (* release fences elided since last drain *)
  mutable defer_regions : t list; (* regions with an elided fence pending *)
}

let defer_key =
  Domain.DLS.new_key (fun () ->
      { defer_active = false; defer_elided = 0; defer_regions = [] })

let fence_deferral_active () = (Domain.DLS.get defer_key).defer_active
let deferred_fences () = (Domain.DLS.get defer_key).defer_elided

let drain_deferred () =
  let ds = Domain.DLS.get defer_key in
  let regions = ds.defer_regions in
  ds.defer_regions <- [];
  ds.defer_elided <- 0;
  List.fold_left
    (fun n t ->
      fence t;
      n + 1)
    0 regions

let set_fence_deferral on =
  let ds = Domain.DLS.get defer_key in
  if (not on) && ds.defer_active then ignore (drain_deferred ());
  ds.defer_active <- on

let fence_release t =
  let ds = Domain.DLS.get defer_key in
  if ds.defer_active then begin
    ds.defer_elided <- ds.defer_elided + 1;
    Obs.Counter.incr obs_fences_elided;
    if not (List.memq t ds.defer_regions) then
      ds.defer_regions <- t :: ds.defer_regions
  end
  else fence t

let flush_range_impl t w n =
  if n > 0 then begin
    check_word t w;
    check_word t (w + n - 1);
    let first = w / words_per_line and last = (w + n - 1) / words_per_line in
    Obs.Counter.add obs_flushes (last - first + 1);
    if Pcheck.on () then begin
      let sh = shadow t in
      for line = first to last do
        Pcheck.on_flush sh ~line
      done
    end;
    match !mode with
    | Pipelined ->
      for line = first to last do
        Atomic.incr t.flushes;
        enqueue_line t line
      done;
      spin_iters (iters_of issue_iters !issue_latency_ns * (last - first + 1))
    | Synchronous ->
      for line = first to last do
        Atomic.incr t.flushes;
        raw_flush_line t.vol t.pers line
      done;
      Obs.Counter.add obs_physical_bytes ((last - first + 1) * line_bytes);
      spin_iters (iters_of flush_iters !flush_latency_ns * (last - first + 1))
  end

let flush_range t w n =
  if Obs.Span.on () then begin
    let t0 = Obs.now_ns () in
    flush_range_impl t w n;
    Obs.Span.sink_add Obs.Span.ch_persist (Obs.now_ns () - t0)
  end
  else flush_range_impl t w n

let pending_lines t = (Domain.DLS.get t.pending_key).count

(* Drop every domain's posted lines below line [lines] without writing
   them back: the caller is about to supersede them with a prefix copy.
   Lines at or above it stay posted. *)
let discard_pending_below t ~lines =
  Mutex.lock t.pending_lock;
  List.iter
    (fun p ->
      let kept = ref 0 in
      for i = 0 to p.count - 1 do
        let l = p.lines.(i) in
        if l >= lines then begin
          p.lines.(!kept) <- l;
          incr kept
        end
      done;
      p.count <- !kept)
    !(t.pending_all);
  Mutex.unlock t.pending_lock

let flush_prefix t ~words =
  if words < 0 || words > t.nwords then
    invalid_arg
      (Printf.sprintf "Pmem(%s).flush_prefix: %d words of %d" t.region_name
         words t.nwords);
  let lines = (words + words_per_line - 1) / words_per_line in
  if Pcheck.on () then Pcheck.on_flush_prefix (shadow t) ~lines;
  discard_pending_below t ~lines;
  raw_sync_all t.vol t.pers (lines * words_per_line) 0

let crash t =
  (* Lines posted but not yet drained by a fence are not guaranteed durable.
     Like a spontaneously evicted store, each may independently have
     completed its write-back before the power failed, so the eviction RNG
     decides line by line; with eviction off they are simply lost. *)
  let sh = if Pcheck.on () then Some (shadow t) else None in
  Mutex.lock t.pending_lock;
  List.iter
    (fun p ->
      for i = 0 to p.count - 1 do
        if t.evict_threshold > 0 && next_rng t < t.evict_threshold then begin
          Atomic.incr t.evictions;
          Obs.Counter.incr obs_evictions;
          let line = p.lines.(i) in
          (match sh with
          | Some s -> Pcheck.on_evict s ~line
          | None -> ());
          raw_flush_line t.vol t.pers line
        end
      done;
      p.count <- 0)
    !(t.pending_all);
  Mutex.unlock t.pending_lock;
  (match sh with Some s -> Pcheck.on_crash s | None -> ());
  (* A private view re-reads the file, which is the durable view, once its
     copied pages are gone; an anonymous one needs the copy. *)
  if t.vol_private then raw_discard t.vol
  else raw_sync_all t.vol t.pers t.nwords 1

let set_eviction_rate t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Pmem.set_eviction_rate";
  t.evict_threshold <- int_of_float (p *. float_of_int 0x3FFFFFFF)

(* Byte accessors go through the atomic word primitives so they stay
   coherent with concurrent word access; a byte store is a (non-atomic)
   word read-modify-write. *)

let check_byte t off =
  if off < 0 || off >= t.nwords * 8 then
    invalid_arg
      (Printf.sprintf "Pmem(%s): byte offset %d out of bounds" t.region_name off)

(* Byte access needs all 64 bits of the cell (the word API's unboxed ints
   carry only 62-bit payloads), so it goes through boxed-Int64 stubs. *)
let load_byte t off =
  check_byte t off;
  let w = off lsr 3 and b = off land 7 in
  if Pcheck.on () then Pcheck.on_load (shadow t) w;
  Int64.to_int (Int64.shift_right_logical (raw_load64 t.vol w) (8 * b))
  land 0xFF

let store_byte t off v =
  check_byte t off;
  Obs.Counter.add obs_logical_bytes 1;
  let w = off lsr 3 and b = off land 7 in
  if Pcheck.on () then begin
    (* the word read-modify-write can observe the lost bytes it keeps *)
    Pcheck.on_load (shadow t) w;
    Pcheck.on_store (shadow t) w
  end;
  let old = raw_load64 t.vol w in
  let mask = Int64.lognot (Int64.shift_left 0xFFL (8 * b)) in
  let v64 = Int64.shift_left (Int64.of_int (v land 0xFF)) (8 * b) in
  raw_store64 t.vol w (Int64.logor (Int64.logand old mask) v64);
  if t.evict_threshold > 0 && next_rng t < t.evict_threshold then evict_line t w

let store_string t off s = String.iteri (fun i c -> store_byte t (off + i) (Char.code c)) s

let load_string t off len =
  String.init len (fun i -> Char.chr (load_byte t (off + i)))

let seek_exact fd off =
  let pos = Unix.lseek fd off Unix.SEEK_SET in
  if pos <> off then
    failwith (Printf.sprintf "Pmem: seek to %d landed at %d" off pos)

let write_header fd nwords name =
  let buf = Bytes.make data_offset '\000' in
  Bytes.blit_string file_magic 0 buf 0 (String.length file_magic);
  Bytes.set_int64_le buf 16 (Int64.of_int nwords);
  let name = if String.length name > 255 then String.sub name 0 255 else name in
  Bytes.set buf 24 (Char.chr (String.length name));
  Bytes.blit_string name 0 buf 25 (String.length name);
  seek_exact fd 0;
  let n = Unix.write fd buf 0 data_offset in
  if n <> data_offset then
    failwith (Printf.sprintf "Pmem: short header write (%d of %d)" n data_offset)

let read_header fd path =
  let buf = Bytes.create data_offset in
  seek_exact fd 0;
  let n = Unix.read fd buf 0 data_offset in
  if
    n < data_offset
    || not
         (String.equal
            (Bytes.sub_string buf 0 (String.length file_magic))
            file_magic)
  then failwith (Printf.sprintf "Pmem.open_file: %s is not a pmem image" path);
  let nwords = Int64.to_int (Bytes.get_int64_le buf 16) in
  if nwords <= 0 || nwords mod words_per_line <> 0 then
    failwith (Printf.sprintf "Pmem.open_file: %s has a bad word count" path);
  let name_len = Char.code (Bytes.get buf 24) in
  (nwords, Bytes.sub_string buf 25 name_len)

(* Map the image's data area, the [nwords] words past the header: shared,
   so write-backs land in the file (a persistent view), or private, so
   they never can (a volatile view, or rstat's persistent view).  Words
   are in host order, which is the format's little-endian on every
   platform this runs on.  [Unix.map_file] silently
   grows a short file, so a truncated image is refused before mapping. *)
let map_image fd path ~nwords ~shared : buf =
  if nwords > ((Unix.fstat fd).Unix.st_size - data_offset) / 8 then
    failwith ("Pmem: truncated image " ^ path);
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int data_offset) Bigarray.int64
       Bigarray.c_layout shared [| nwords |])

let open_file ?name ~path ~size_bytes () =
  let existed = Sys.file_exists path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  try
    let t =
      let name, nwords =
        if existed then begin
          let nwords, stored_name = read_header fd path in
          (Option.value name ~default:stored_name, nwords)
        end
        else begin
          let nwords = round_up_words size_bytes in
          let name = Option.value name ~default:"pmem" in
          write_header fd nwords name;
          (* give the file its final size; the data area reads as zeros *)
          Unix.ftruncate fd (data_offset + (nwords * 8));
          (name, nwords)
        end
      in
      (* Both views map the image: the volatile one privately, so it
         starts as the durable contents and costs only the pages touched *)
      region ~name ~nwords
        ~vol:(map_image fd path ~nwords ~shared:false)
        ~vol_private:true
        ~pers:(map_image fd path ~nwords ~shared:true)
    in
    t.backing <- Some fd;
    (t, existed)
  with e ->
    Unix.close fd;
    raise e

(* Map an image privately into a fresh region: the caller gets the durable
   state to inspect (or even recover) without any risk of writing the file,
   which is bin/rstat's contract. *)
let load_image ~path =
  if not (Sys.file_exists path) then
    failwith ("Pmem.load_image: no such image " ^ path);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let nwords, name = read_header fd path in
      let pers = map_image fd path ~nwords ~shared:false in
      let t =
        region ~name ~nwords ~vol:(make_buf nwords) ~vol_private:false ~pers
      in
      crash t (* volatile view = durable contents *);
      t)

let close_file t =
  match t.backing with
  | None -> ()
  | Some fd ->
    (* A graceful close completes the outstanding posted write-backs (a
       crash would not — that path discards them). *)
    if Pcheck.on () then Pcheck.on_drain_all (shadow t);
    Mutex.lock t.pending_lock;
    List.iter (fun p -> ignore (drain_pending t p)) !(t.pending_all);
    Mutex.unlock t.pending_lock;
    Unix.fsync fd;
    Unix.close fd;
    t.backing <- None

(* The flight recorder lives in lib/obs, below this library in the
   dependency order, so it reaches its reserved NVM window through this
   record of closures: loads/stores/fetch_adds on window-relative word
   indices, flush and fence routed through the write-combining pipeline
   like any other persistence traffic (and therefore counted, charged,
   crash-simulated and written through to the backing file like any
   other). *)
(* Flight traffic is attributed to its own checker site, allowlisted for
   durability violations: the ring's entries are checksummed and attach
   tolerates torn lines by design, and the head cursor is deliberately
   never flushed (attach rebuilds and rewrites it before any record can
   read it). *)
let flight_site =
  Pcheck.allow "obs.flight"
    ~reason:"ring entries are checksummed; torn reads are by design"

let flight_backend t ~first_word ~words =
  if first_word < 0 || words < 0 || first_word + words > t.nwords then
    invalid_arg
      (Printf.sprintf
         "Pmem(%s).flight_backend: window [%d,%d) exceeds region of %d words"
         t.region_name first_word (first_word + words) t.nwords);
  if first_word mod words_per_line <> 0 then
    invalid_arg
      (Printf.sprintf
         "Pmem(%s).flight_backend: window start %d is not line-aligned"
         t.region_name first_word);
  let abs w =
    if w < 0 || w >= words then
      invalid_arg
        (Printf.sprintf "Pmem(%s): flight window index %d out of [0,%d)"
           t.region_name w words);
    first_word + w
  in
  {
    Obs.Flight.words;
    load =
      (fun w ->
        Pcheck.set_site flight_site;
        load t (abs w));
    store =
      (fun w v ->
        Pcheck.set_site flight_site;
        store t (abs w) v);
    fetch_add =
      (fun w d ->
        Pcheck.set_site flight_site;
        fetch_add t (abs w) d);
    flush =
      (fun w ->
        Pcheck.set_site flight_site;
        flush t (abs w));
    fence =
      (fun () ->
        Pcheck.set_site flight_site;
        fence t);
  }

module Stats = struct
  type snapshot = { flushes : int; fences : int; cas_ops : int; evictions : int }

  let read (r : t) =
    {
      flushes = Atomic.get r.flushes;
      fences = Atomic.get r.fences;
      cas_ops = Atomic.get r.cas_ops;
      evictions = Atomic.get r.evictions;
    }

  let reset (r : t) =
    Atomic.set r.flushes 0;
    Atomic.set r.fences 0;
    Atomic.set r.cas_ops 0;
    Atomic.set r.evictions 0

  let diff a b =
    {
      flushes = a.flushes - b.flushes;
      fences = a.fences - b.fences;
      cas_ops = a.cas_ops - b.cas_ops;
      evictions = a.evictions - b.evictions;
    }

  (* Process-wide totals via the Obs registry counters, summed over every
     region in the process.  Frozen at zero while Obs metrics are off. *)
  let global () =
    {
      flushes = Obs.Counter.read obs_flushes;
      fences = Obs.Counter.read obs_fences;
      cas_ops = Obs.Counter.read obs_cas;
      evictions = Obs.Counter.read obs_evictions;
    }
end

(* The persistency checker, re-exported as the library-level [Check]
   submodule; pcheck.ml holds the implementation so the hooks above can
   reach it without a dependency cycle. *)
module Check = Pcheck
