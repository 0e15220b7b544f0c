external now_ns : unit -> int = "obs_now_ns" [@@noalloc]

(* OBS_DISABLED in the environment (any value but "" or "0") hard-disables
   every instrument: the enable toggles become no-ops, so no code path —
   not even one that calls [set_enabled true] itself — can turn recording
   on.  Checked at toggle time, not per record: the hot paths still test
   only their plain-ref flag. *)
let hard_disabled () =
  match Sys.getenv_opt "OBS_DISABLED" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Flags are plain refs: a racy read at worst delays one domain's view of
   a toggle by an instruction or two, and the read is one load on every
   hot path. *)
let metrics_on = ref false
let set_enabled b = metrics_on := b && not (hard_disabled ())
let enabled () = !metrics_on
let on = enabled

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)
(*                                                                    *)
(* Counters and histogram buckets are arrays of shards indexed by      *)
(* domain id mod nshards.  Live domains carry consecutive ids, so they *)
(* land on distinct shards in practice; a collision only costs cache-   *)
(* line contention, never a lost update (cells are atomics).           *)
(* ------------------------------------------------------------------ *)

let nshards = 8
let shard () = (Domain.self () :> int) land (nshards - 1)

(* ------------------------------------------------------------------ *)
(* Metric kinds                                                       *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; cell : int Atomic.t }

(* Log-linear ("HDR") buckets: values [0,16) map to their own bucket;
   each power-of-two octave [2^k, 2^(k+1)) for k in [4,30] is split into
   16 equal sub-buckets; >= 2^31 overflows into the last bucket.  The
   relative quantile error is bounded by one sub-bucket: 1/16. *)
let sub_bits = 4
let sub = 1 lsl sub_bits (* 16 *)
let max_octave = 30

(* The [sub] unit buckets for values < 16 plus [sub] sub-buckets for each
   octave k in [sub_bits, max_octave]: the top octave k=30 occupies
   indices 432..447, so the overflow bucket sits at 448. *)
let overflow_bucket = (max_octave - sub_bits + 2) * sub (* 448 *)
let nbuckets = overflow_bucket + 1
let clamp_value = 1 lsl (max_octave + 1)

let ilog2 v =
  (* floor(log2 v) for v > 0 *)
  let k = ref 0 and v = ref v in
  if !v >= 1 lsl 32 then begin k := !k + 32; v := !v lsr 32 end;
  if !v >= 1 lsl 16 then begin k := !k + 16; v := !v lsr 16 end;
  if !v >= 1 lsl 8 then begin k := !k + 8; v := !v lsr 8 end;
  if !v >= 1 lsl 4 then begin k := !k + 4; v := !v lsr 4 end;
  if !v >= 1 lsl 2 then begin k := !k + 2; v := !v lsr 2 end;
  if !v >= 1 lsl 1 then k := !k + 1;
  !k

let bucket_of v =
  if v < sub then if v < 0 then 0 else v
  else if v >= clamp_value then overflow_bucket
  else
    let k = ilog2 v in
    ((k - sub_bits + 1) lsl sub_bits) + ((v lsr (k - sub_bits)) - sub)

(* Largest value that maps to bucket [i]: the quantile estimate. *)
let bucket_upper i =
  if i < sub then i
  else if i >= overflow_bucket then clamp_value
  else
    let k = (i lsr sub_bits) + sub_bits - 1 in
    let s = i land (sub - 1) in
    (1 lsl k) + ((s + 1) lsl (k - sub_bits)) - 1

type histogram = {
  h_name : string;
  buckets : int Atomic.t array array; (* nshards x nbuckets *)
  sums : int Atomic.t array;
  maxs : int Atomic.t array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Derived of (unit -> float)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Derived _ -> "derived"

(* Find-or-create: instrumented libraries call [make] at module init;
   tests may ask for the same name again and must get the same cells. *)
let intern name create match_kind =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = create () in
      Hashtbl.replace registry name m;
      m
  in
  Mutex.unlock registry_lock;
  match match_kind m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs: metric %S already registered as a %s" name
         (kind_name m))

let register_derived name f =
  Mutex.lock registry_lock;
  Hashtbl.replace registry name (Derived f);
  Mutex.unlock registry_lock

module Counter = struct
  type t = counter

  let make name =
    intern name
      (fun () ->
        Counter
          { c_name = name; cells = Array.init nshards (fun _ -> Atomic.make 0) })
      (function Counter c -> Some c | _ -> None)

  let add t d =
    if !metrics_on then
      ignore (Atomic.fetch_and_add t.cells.(shard ()) d)

  let incr t = add t 1
  let read t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells
  let reset t = Array.iter (fun c -> Atomic.set c 0) t.cells
  let name t = t.c_name
end

module Gauge = struct
  type t = gauge

  let make name =
    intern name
      (fun () -> Gauge { g_name = name; cell = Atomic.make 0 })
      (function Gauge g -> Some g | _ -> None)

  let set t v = if !metrics_on then Atomic.set t.cell v
  let add t d = if !metrics_on then ignore (Atomic.fetch_and_add t.cell d)
  let read t = Atomic.get t.cell
  let reset t = Atomic.set t.cell 0
  let name t = t.g_name
end

module Histogram = struct
  type t = histogram

  let make name =
    intern name
      (fun () ->
        Histogram
          {
            h_name = name;
            buckets =
              Array.init nshards (fun _ ->
                  Array.init nbuckets (fun _ -> Atomic.make 0));
            sums = Array.init nshards (fun _ -> Atomic.make 0);
            maxs = Array.init nshards (fun _ -> Atomic.make 0);
          })
      (function Histogram h -> Some h | _ -> None)

  let record t v =
    if !metrics_on then begin
      let v = if v < 0 then 0 else if v > clamp_value then clamp_value else v in
      let s = shard () in
      ignore (Atomic.fetch_and_add t.buckets.(s).(bucket_of v) 1);
      ignore (Atomic.fetch_and_add t.sums.(s) v);
      (* a loop, not a local recursive closure, so it never allocates *)
      let m = t.maxs.(s) in
      let cur = ref (Atomic.get m) in
      while v > !cur && not (Atomic.compare_and_set m !cur v) do
        cur := Atomic.get m
      done
    end

  type snap = { counts : int array; sum : int; max_v : int }

  let snapshot t =
    let counts = Array.make nbuckets 0 in
    for s = 0 to nshards - 1 do
      let b = t.buckets.(s) in
      for i = 0 to nbuckets - 1 do
        counts.(i) <- counts.(i) + Atomic.get b.(i)
      done
    done;
    {
      counts;
      sum = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.sums;
      max_v = Array.fold_left (fun acc c -> max acc (Atomic.get c)) 0 t.maxs;
    }

  let diff a b =
    {
      counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
      sum = a.sum - b.sum;
      max_v = a.max_v;
    }

  let snap_count s = Array.fold_left ( + ) 0 s.counts

  let snap_quantile s q =
    let total = snap_count s in
    if total = 0 then 0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let acc = ref 0 and i = ref 0 and result = ref 0 in
      (try
         while !i < nbuckets do
           acc := !acc + s.counts.(!i);
           if !acc >= rank then begin
             result := bucket_upper !i;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      !result
    end

  let count t = snap_count (snapshot t)
  let quantile t q = snap_quantile (snapshot t) q
  let max_value t = (snapshot t).max_v

  let mean t =
    let s = snapshot t in
    let n = snap_count s in
    if n = 0 then 0.0 else float_of_int s.sum /. float_of_int n

  let reset t =
    Array.iter (Array.iter (fun c -> Atomic.set c 0)) t.buckets;
    Array.iter (fun c -> Atomic.set c 0) t.sums;
    Array.iter (fun c -> Atomic.set c 0) t.maxs

  let name t = t.h_name
end

(* ------------------------------------------------------------------ *)
(* Event tracing                                                      *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  let tracing_on = ref false
  let set_enabled b = tracing_on := b && not (hard_disabled ())
  let enabled () = !tracing_on

  (* One ring per shard; an event is a row across the parallel arrays.
     Writers claim a slot with fetch_add on [head] (drop-oldest by ring
     wrap).  Two domains sharing a shard can interleave rows only if they
     also collide mod capacity — harmless for diagnostics. *)
  type ring = {
    names : string array;
    ts : int array;
    dur : int array; (* -1 = instant event *)
    tids : int array;
    mask : int; (* capacity - 1; capacity is a power of two.  Kept in the
                   ring so an emitter masks with the same ring it indexes
                   even if [set_capacity] swaps the rings concurrently. *)
    head : int Atomic.t;
  }

  let make_ring cap =
    {
      names = Array.make cap "";
      ts = Array.make cap 0;
      dur = Array.make cap 0;
      tids = Array.make cap 0;
      mask = cap - 1;
      head = Atomic.make 0;
    }

  let default_capacity = 4096
  let rings = ref (Array.init nshards (fun _ -> make_ring default_capacity))

  let set_capacity n =
    if n < 1 then invalid_arg "Obs.Trace.set_capacity";
    let rec pow2 p = if p >= n then p else pow2 (p * 2) in
    let cap = pow2 1 in
    rings := Array.init nshards (fun _ -> make_ring cap)

  let clear () = Array.iter (fun r -> Atomic.set r.head 0) !rings

  let emit_tid name ts dur tid =
    let r = !rings.(shard ()) in
    let i = Atomic.fetch_and_add r.head 1 land r.mask in
    r.names.(i) <- name;
    r.ts.(i) <- ts;
    r.dur.(i) <- dur;
    r.tids.(i) <- tid

  let emit name ts dur = emit_tid name ts dur (Domain.self () :> int)

  let begin_span () = if !tracing_on then now_ns () else 0

  let span name t0 =
    if !tracing_on && t0 <> 0 then emit name t0 (now_ns () - t0)

  let complete ?tid name ~ts_ns ~dur_ns =
    if !tracing_on then
      match tid with
      | None -> emit name ts_ns dur_ns
      | Some t -> emit_tid name ts_ns dur_ns t

  let instant name = if !tracing_on then emit name (now_ns ()) (-1)

  (* Counter samples ride the same ring: the dur field is overloaded as
     [-2 - value] (dur >= 0 is a span, -1 an instant), so no per-event
     allocation and no ring reshape. *)
  let counter name v =
    if !tracing_on then emit name (now_ns ()) (-2 - max 0 v)

  (* Timestamps are reported relative to process start so the JSON stays
     readable (CLOCK_MONOTONIC's zero is boot time). *)
  let epoch_ns = now_ns ()

  let events () =
    let acc = ref [] in
    Array.iter
      (fun r ->
        let n = min (Atomic.get r.head) (r.mask + 1) in
        for i = 0 to n - 1 do
          if r.names.(i) <> "" then
            acc := (r.tids.(i), r.ts.(i), r.dur.(i), r.names.(i)) :: !acc
        done)
      !rings;
    List.sort compare !acc

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let write_chrome_trace path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "{\"traceEvents\":[";
        List.iteri
          (fun i (tid, ts, dur, name) ->
            if i > 0 then output_char oc ',';
            let ts_us = float_of_int (ts - epoch_ns) /. 1e3 in
            if dur >= 0 then
              Printf.fprintf oc
                "\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
                (json_escape name) tid ts_us
                (float_of_int dur /. 1e3)
            else if dur = -1 then
              Printf.fprintf oc
                "\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f}"
                (json_escape name) tid ts_us
            else
              Printf.fprintf oc
                "\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"value\":%d}}"
                (json_escape name) tid ts_us (-dur - 2))
          (events ());
        output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n")

  let pp_text ppf =
    List.iter
      (fun (tid, ts, dur, name) ->
        if dur >= 0 then
          Format.fprintf ppf "[%12d ns] tid=%-3d %-32s dur=%d ns@."
            (ts - epoch_ns) tid name dur
        else if dur = -1 then
          Format.fprintf ppf "[%12d ns] tid=%-3d %-32s (instant)@."
            (ts - epoch_ns) tid name
        else
          Format.fprintf ppf "[%12d ns] tid=%-3d %-32s value=%d@."
            (ts - epoch_ns) tid name (-dur - 2))
      (events ())
end

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(*                                                                    *)
(* Request-stage timing on top of the registry and the trace ring.  A  *)
(* stage is an interned small integer owning one latency histogram     *)
(* ("span.<name>_ns"), so the hot path records with two array loads    *)
(* and never consults the registry.  Nesting state is one fixed int    *)
(* pair of arrays per domain (Domain.DLS), so enter/leave allocate     *)
(* nothing.  The "sink" is an ambient per-domain int array into which  *)
(* deep layers (ralloc, pmem) add elapsed nanoseconds by channel; a    *)
(* request pipeline points the sink at the request's own accumulator   *)
(* array for the duration of its service, and a per-domain scratch     *)
(* array absorbs adds made while no sink is set, keeping sink_add      *)
(* branch-free.                                                       *)
(* ------------------------------------------------------------------ *)

module Span = struct
  let spans_on = ref false
  let set_enabled b = spans_on := b && not (hard_disabled ())
  let enabled () = !spans_on
  let on = enabled

  type stage = int

  let max_stages = 256
  let stage_lock = Mutex.create ()
  let stage_names = Array.make max_stages ""
  let stage_hists : Histogram.t option array = Array.make max_stages None
  let n_stages = ref 0

  let stage name =
    Mutex.lock stage_lock;
    let found = ref (-1) in
    for i = 0 to !n_stages - 1 do
      if !found < 0 && stage_names.(i) = name then found := i
    done;
    let id =
      if !found >= 0 then !found
      else if !n_stages >= max_stages then -1
      else begin
        let id = !n_stages in
        stage_names.(id) <- name;
        stage_hists.(id) <- Some (Histogram.make ("span." ^ name ^ "_ns"));
        incr n_stages;
        id
      end
    in
    Mutex.unlock stage_lock;
    if id < 0 then invalid_arg "Obs.Span.stage: too many stages";
    id

  let stage_name id =
    if id >= 0 && id < !n_stages then stage_names.(id) else ""

  let record id dur =
    if !spans_on then
      match stage_hists.(id) with
      | Some h -> Histogram.record h dur
      | None -> ()

  let stage_count id =
    match stage_hists.(id) with Some h -> Histogram.count h | None -> 0

  let stage_quantile id q =
    match stage_hists.(id) with Some h -> Histogram.quantile h q | None -> 0

  (* Flat begin/end pair: the token is the start timestamp (0 = span was
     started while disabled, end_ then drops it). *)
  let begin_ () = if !spans_on then now_ns () else 0

  let end_ id t0 =
    if !spans_on && t0 <> 0 then begin
      let dur = now_ns () - t0 in
      record id dur;
      if !Trace.tracing_on then Trace.emit (stage_name id) t0 dur
    end

  (* Nested spans: a per-domain stack of (stage, t0) frames.  Frames past
     max_depth are counted but not stored, so pathological recursion
     degrades to depth accounting instead of corrupting the stack. *)
  let max_depth = 32

  type frames = { f_stage : int array; f_t0 : int array; mutable depth : int }

  let stack_key =
    Domain.DLS.new_key (fun () ->
        { f_stage = Array.make max_depth 0;
          f_t0 = Array.make max_depth 0;
          depth = 0 })

  let enter id =
    if !spans_on then begin
      let s = Domain.DLS.get stack_key in
      if s.depth < max_depth then begin
        s.f_stage.(s.depth) <- id;
        s.f_t0.(s.depth) <- now_ns ()
      end;
      s.depth <- s.depth + 1
    end

  let leave _id =
    let s = Domain.DLS.get stack_key in
    if s.depth > 0 then begin
      s.depth <- s.depth - 1;
      if s.depth < max_depth && !spans_on then begin
        let id = s.f_stage.(s.depth) in
        let t0 = s.f_t0.(s.depth) in
        let dur = now_ns () - t0 in
        record id dur;
        if !Trace.tracing_on then Trace.emit (stage_name id) t0 dur
      end
    end

  let depth () = (Domain.DLS.get stack_key).depth

  let current () =
    let s = Domain.DLS.get stack_key in
    if s.depth = 0 || s.depth > max_depth then None
    else Some s.f_stage.(s.depth - 1)

  let with_stage id f =
    if not !spans_on then f ()
    else begin
      enter id;
      Fun.protect ~finally:(fun () -> leave id) f
    end

  (* Ambient sink *)

  let channels = 4
  let ch_alloc = 0
  let ch_persist = 1
  let ch_fence = 2

  type sinks = { mutable sink : int array; scratch : int array }

  let sink_dls =
    Domain.DLS.new_key (fun () ->
        let scratch = Array.make channels 0 in
        { sink = scratch; scratch })

  let sink_set a =
    if Array.length a < channels then invalid_arg "Obs.Span.sink_set";
    (Domain.DLS.get sink_dls).sink <- a

  let sink_clear () =
    let s = Domain.DLS.get sink_dls in
    s.sink <- s.scratch

  let sink_add ch d =
    let a = (Domain.DLS.get sink_dls).sink in
    a.(ch) <- a.(ch) + d

  let sink_get ch = (Domain.DLS.get sink_dls).sink.(ch)
end

(* ------------------------------------------------------------------ *)
(* Persistent windows: one record ring and one name table             *)
(*                                                                    *)
(* Every crash-surviving view below is built from these two codecs.   *)
(* lib/pmem depends on lib/obs, so a window is reached through a      *)
(* record of closures that Pmem.flight_backend builds.  Records hold  *)
(* offsets and sequence numbers, never virtual addresses.             *)
(* ------------------------------------------------------------------ *)

type backend = {
  words : int;
  load : int -> int;
  store : int -> int -> unit;
  fetch_add : int -> int -> int;
  flush : int -> unit;
  fence : unit -> unit;
}

let line_words = 8

(* The checksummed ring: [capacity] slots of [lines] cache lines each.
   A record is

     [seq | payload ... | checksum | 0]

   with seq (word 0) starting at 1 (0 = never written), the checksum
   (second-to-last word) a nonzero 62-bit fold of seq and every payload
   word seeded per view, and the last word reserved zero.  The
   simulated NVM never tears within a line, so a slot is the complete
   old record, the complete new one, or — if an eviction persisted some
   of its lines mid-composition — a mix whose checksum cannot match: a
   torn record is always detected and never misparsed.

   Write protocol: [claim] a sequence number (fetch_add on the head
   cursor), store the payload, [seal] (stamp seq and checksum, flush
   every line); the caller fences.  The head cursor is a window word
   that is never flushed — its durable value would race the records it
   counts — and [rebuild] recomputes it at attach as max(valid seq)+1. *)
module Ring = struct
  type t = {
    b : backend;
    head : int;
    base : int;
    lines : int;
    rec_words : int;
    capacity : int;
    seed : int;
  }

  let words_for ~lines ~capacity = capacity * lines * line_words
  let checksum_word ~lines = (lines * line_words) - 2

  (* The caller has checked that the ring fits its window. *)
  let make b ~head ~base ~lines ~capacity ~seed =
    { b; head; base; lines; rec_words = lines * line_words; capacity; seed }

  let capacity t = t.capacity
  let slot t s = t.base + (s * t.rec_words)
  let slot_of_seq t seq = slot t ((seq - 1) mod t.capacity)

  (* splitmix-style finalizer steps, wrapping OCaml multiplication;
     straight-line, so it allocates nothing *)
  let mix h v =
    let h = h lxor (v + 0x1e3779b97f4a7c15 + (h lsl 6) + (h lsr 2)) in
    let h = h * 0x3f58476d1ce4e5b9 in
    h lxor (h lsr 27)

  (* A top-level loop, not a local closure: the write path allocates
     nothing. *)
  let rec fold (b : backend) h w i last =
    if i > last then h else fold b (mix h (b.load (w + i))) w (i + 1) last

  (* forced nonzero so a zeroed slot can never look checksummed *)
  let checksum t w =
    let h = fold t.b t.seed w 0 (t.rec_words - 3) land max_int in
    if h = 0 then 1 else h

  let valid t w = t.b.load w <> 0 && t.b.load (w + t.rec_words - 2) = checksum t w

  (* zero the slots (a stale image fragment must not parse as records)
     and restart the cursor *)
  let clear t =
    for w = t.base to slot t t.capacity - 1 do
      t.b.store w 0
    done;
    t.b.store t.head 1

  let rebuild t =
    let hi = ref 0 in
    for s = 0 to t.capacity - 1 do
      let w = slot t s in
      if valid t w && t.b.load w > !hi then hi := t.b.load w
    done;
    t.b.store t.head (!hi + 1)

  let claim t = t.b.fetch_add t.head 1

  let seal t seq =
    let w = slot_of_seq t seq in
    t.b.store w seq;
    t.b.store (w + t.rec_words - 1) 0;
    t.b.store (w + t.rec_words - 2) (checksum t w);
    for l = 0 to t.lines - 1 do
      t.b.flush (w + (l * line_words))
    done

  (* First words of the complete records, oldest first; after a crash
     these are exactly the records whose write had fenced (plus any that
     happened to be evicted whole). *)
  let tail ?limit t =
    let acc = ref [] in
    for s = 0 to t.capacity - 1 do
      let w = slot t s in
      if valid t w then acc := (t.b.load w, w) :: !acc
    done;
    let recs = List.map snd (List.sort compare !acc) in
    match limit with
    | Some n when n >= 0 && List.length recs > n ->
      (* keep the newest n *)
      let drop = List.length recs - n in
      List.filteri (fun i _ -> i >= drop) recs
    | _ -> recs

  let torn_slots t =
    let n = ref 0 in
    for s = 0 to t.capacity - 1 do
      let w = slot t s in
      if t.b.load w <> 0 && not (valid t w) then incr n
    done;
    !n

  let total_recorded t = t.b.load t.head - 1
end

(* The name table: [capacity] one-line records indexed by id.  Word 0
   is the name length in bytes (0 = empty slot), words 1..7 hold up to
   49 bytes packed 7 per word little-endian.  The length is stored last
   within the record's single line, so an eviction that persists the
   line mid-write reads back as an empty slot, never a torn name. *)
module Names = struct
  type t = { b : backend; base : int; capacity : int }

  let max_name = 7 * (line_words - 1)
  let words_for ~capacity = capacity * line_words

  let make b ~base ~capacity = { b; base; capacity }

  let capacity t = t.capacity

  let clear t =
    for w = t.base to t.base + words_for ~capacity:t.capacity - 1 do
      t.b.store w 0
    done

  (* Durable when it returns: one line, so 1 flush + 1 fence.
     Out-of-range ids are skipped. *)
  let persist t id name =
    if id >= 0 && id < t.capacity then begin
      let w0 = t.base + (id * line_words) in
      let n = min (String.length name) max_name in
      for wi = 0 to line_words - 2 do
        let word = ref 0 in
        for bi = 0 to 6 do
          let i = (wi * 7) + bi in
          if i < n then word := !word lor (Char.code name.[i] lsl (bi * 8))
        done;
        t.b.store (w0 + 1 + wi) !word
      done;
      t.b.store w0 n;
      t.b.flush w0;
      t.b.fence ()
    end

  let get t id =
    if id < 0 || id >= t.capacity then None
    else
      let w0 = t.base + (id * line_words) in
      let n = t.b.load w0 in
      if n <= 0 || n > max_name then None
      else begin
        let buf = Bytes.create n in
        for i = 0 to n - 1 do
          Bytes.set buf i
            (Char.chr ((t.b.load (w0 + 1 + (i / 7)) lsr (i mod 7 * 8)) land 0xFF))
        done;
        Some (Bytes.to_string buf)
      end

  let count t =
    let n = ref 0 in
    for id = 0 to t.capacity - 1 do
      if get t id <> None then incr n
    done;
    !n
end

(* ------------------------------------------------------------------ *)
(* Persistent flight recorder                                         *)
(*                                                                    *)
(* A 1-line ring of rare lifecycle events, so the last N of them       *)
(* survive a crash and explain how the heap got into its state.        *)
(* Layout, in words relative to the backend window:                    *)
(*                                                                    *)
(*   line 0   (words 0..7)    magic, capacity, head cursor, reserved   *)
(*   lines 1-2 (words 8..23)  16 per-kind lifetime event counters      *)
(*   word 24 onward           the ring, one line per entry:            *)
(*                                                                    *)
(*   [seq | kind | a | b | c | ts_ns | checksum | 0]                   *)
(*                                                                    *)
(* Write protocol per event: claim + compose + seal the entry (1       *)
(* flush), bump + flush the kind counter's line, fence.  Exactly 2     *)
(* flushes + 1 fence per event in any pmem mode, zero when disabled.   *)
(* ------------------------------------------------------------------ *)

module Flight = struct
  type nonrec backend = backend = {
    words : int;
    load : int -> int;
    store : int -> int -> unit;
    fetch_add : int -> int -> int;
    flush : int -> unit;
    fence : unit -> unit;
  }

  module Kind = struct
    let malloc = 1
    let free = 2
    let sb_provision = 3
    let sb_acquire = 4
    let sb_retire = 5
    let txn_commit = 6
    let txn_abort = 7
    let recovery_begin = 8
    let recovery_trace = 9
    let recovery_done = 10
    let heap_open = 11
    let heap_close = 12
    let root_set = 13
    let slow_op = 14
    let slo_breach = 15

    let name = function
      | 1 -> "malloc"
      | 2 -> "free"
      | 3 -> "sb_provision"
      | 4 -> "sb_acquire"
      | 5 -> "sb_retire"
      | 6 -> "txn_commit"
      | 7 -> "txn_abort"
      | 8 -> "recovery_begin"
      | 9 -> "recovery_trace"
      | 10 -> "recovery_done"
      | 11 -> "heap_open"
      | 12 -> "heap_close"
      | 13 -> "root_set"
      | 14 -> "slow_op"
      | 15 -> "slo_breach"
      | k -> Printf.sprintf "kind_%d" k
  end

  let off_magic = 0
  let off_capacity = 1
  let off_head = 2
  let off_counters = 8
  let nkinds = 16
  let header_words = off_counters + nkinds (* 24: a multiple of a line *)
  let magic = 0x464C495245434F52 land max_int (* "FLIRECOR", 62-bit *)
  let seed = 0x52414C4C4F43

  let recording_on = ref false
  let set_enabled b = recording_on := b && not (hard_disabled ())
  let enabled () = !recording_on

  type t = Ring.t

  let capacity = Ring.capacity

  let round_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let words_for ~capacity =
    header_words + Ring.words_for ~lines:1 ~capacity:(round_pow2 (max 1 capacity))

  let slot_word s = header_words + (s * line_words)

  let ring b ~capacity =
    Ring.make b ~head:off_head ~base:header_words ~lines:1 ~capacity ~seed

  let format b ~capacity =
    let capacity = round_pow2 (max 1 capacity) in
    if words_for ~capacity > b.words then
      invalid_arg "Obs.Flight.format: window too small for capacity";
    b.store off_magic magic;
    b.store off_capacity capacity;
    for i = 0 to nkinds - 1 do
      b.store (off_counters + i) 0
    done;
    let t = ring b ~capacity in
    Ring.clear t;
    t

  let attach b =
    if b.words < header_words || b.load off_magic <> magic then None
    else begin
      let cap = b.load off_capacity in
      if cap < 1 || cap land (cap - 1) <> 0 || words_for ~capacity:cap > b.words
      then None
      else begin
        let t = ring b ~capacity:cap in
        Ring.rebuild t;
        Some t
      end
    end

  (* The ungated write path: used by [record] under this module's flag,
     and by the provenance ring ([Prof.Ring] below) under the profiler's
     own flag — the two recorders share one entry protocol but toggle
     independently. *)
  let record_now (t : t) ~kind ?(a = 0) ?(b = 0) ?(c = 0) () =
    let seq = Ring.claim t in
    let w = Ring.slot_of_seq t seq in
    let bk = t.Ring.b in
    bk.store (w + 1) kind;
    bk.store (w + 2) a;
    bk.store (w + 3) b;
    bk.store (w + 4) c;
    bk.store (w + 5) (now_ns ());
    Ring.seal t seq;
    let kc = off_counters + (kind land (nkinds - 1)) in
    ignore (bk.fetch_add kc 1);
    bk.flush kc;
    bk.fence ()

  let record t ~kind ?a ?b ?c () =
    if !recording_on then record_now t ~kind ?a ?b ?c ()

  type event = {
    seq : int;
    kind : int;
    a : int;
    arg_b : int;
    c : int;
    ts_ns : int;
  }

  let event_at (t : t) w =
    let l i = t.Ring.b.load (w + i) in
    { seq = l 0; kind = l 1; a = l 2; arg_b = l 3; c = l 4; ts_ns = l 5 }

  let tail ?limit t = List.map (event_at t) (Ring.tail ?limit t)
  let torn_slots = Ring.torn_slots

  let kind_count (t : t) k =
    if k < 0 || k >= nkinds then 0 else t.Ring.b.load (off_counters + k)

  let total_recorded = Ring.total_recorded

  let pp_event ppf e =
    Format.fprintf ppf "#%-6d %-15s a=%-8d b=%-8d c=%-10d ts=%d" e.seq
      (Kind.name e.kind) e.a e.arg_b e.c e.ts_ns

  let pp_tail ?limit ppf t =
    let evs = tail ?limit t in
    if evs = [] then Format.fprintf ppf "(flight recorder empty)@."
    else
      List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) evs;
    let torn = torn_slots t in
    if torn > 0 then Format.fprintf ppf "(%d torn slot(s) detected)@." torn
end

(* ------------------------------------------------------------------ *)
(* Heap provenance profiler                                           *)
(*                                                                    *)
(* A jemalloc-style byte-triggered sampling heap profiler: every       *)
(* domain keeps a countdown of bytes-to-next-sample; each allocation   *)
(* decrements it by its size, and the allocation that drives it        *)
(* through zero is sampled and attributed to the calling domain's      *)
(* ambient allocation site (interned names, pcheck-style).  A sample   *)
(* of a block of [s] bytes at rate [r] stands in for ~max(s, r) bytes  *)
(* and ~max(1, r/s) blocks, which makes the per-site live/cumulative   *)
(* tallies unbiased estimates of the true census.                      *)
(*                                                                    *)
(* The volatile side is the site table + tallies + a sampled-block map *)
(* (so a free cancels its sample).  The crash-surviving side is the    *)
(* provenance ring ([Ring], a second ring in the flight recorder's     *)
(* format, next to it in the black-box window) plus a persistent       *)
(* site-name table ([Ptab]) so an offline inspector can resolve site   *)
(* ids without the process that interned them.                         *)
(*                                                                    *)
(* Costs: disabled, every hook is one plain-ref flag test.  Enabled,   *)
(* the malloc path pays one DLS countdown decrement and the free path  *)
(* one atomic bitmap probe; everything heavier happens only on the     *)
(* sampled (1-in-rate-bytes) path.                                     *)
(* ------------------------------------------------------------------ *)

module Prof = struct
  let prof_on = ref false
  let default_rate = 512 * 1024
  let sample_rate = ref default_rate

  (* Budget generation: an allocator may cache its byte countdown in
     per-domain state it already fetches on its fast path (ralloc keeps
     it next to the thread caches), saving the extra DLS lookup here.
     Such caches revalidate against this generation, so set_rate, reset
     and re-enabling all take effect at the very next allocation instead
     of after up to a rate's worth of stale budget. *)
  let budget_gen = ref 1
  let generation () = !budget_gen
  let bump_generation () = incr budget_gen

  let set_enabled b =
    prof_on := b && not (hard_disabled ());
    bump_generation ()

  let enabled () = !prof_on
  let on () = !prof_on

  let set_rate r =
    sample_rate := max 1 r;
    bump_generation ()

  let rate () = !sample_rate

  (* ---- interned allocation sites (pcheck-style) ---- *)

  let site_lock = Mutex.create ()
  let site_ids : (string, int) Hashtbl.t = Hashtbl.create 64
  let site_names = ref (Array.make 16 "")
  let nsites = ref 0

  let site name =
    Mutex.lock site_lock;
    let id =
      match Hashtbl.find_opt site_ids name with
      | Some id -> id
      | None ->
        let id = !nsites in
        if id = Array.length !site_names then begin
          let names = Array.make (2 * id) "" in
          Array.blit !site_names 0 names 0 id;
          site_names := names
        end;
        !site_names.(id) <- name;
        Hashtbl.add site_ids name id;
        incr nsites;
        id
    in
    Mutex.unlock site_lock;
    id

  let unattributed = site "(unattributed)" (* always id 0 *)

  let site_name id =
    if id >= 0 && id < !nsites then !site_names.(id) else "(unknown)"

  let site_count () = !nsites

  (* The ambient site is per-domain: the last [set_site] before an
     allocation owns its sample. *)
  let site_key = Domain.DLS.new_key (fun () -> ref 0)
  let set_site id = if !prof_on then Domain.DLS.get site_key := id
  let current_site () = !(Domain.DLS.get site_key)
  let ambient_slot () = Domain.DLS.get site_key

  let with_site id f =
    if not !prof_on then f ()
    else begin
      let r = Domain.DLS.get site_key in
      let saved = !r in
      r := id;
      Fun.protect ~finally:(fun () -> r := saved) f
    end

  (* ---- byte-triggered countdown ---- *)

  let countdown_key = Domain.DLS.new_key (fun () -> ref 0)

  let should_sample size =
    let c = Domain.DLS.get countdown_key in
    let v = !c - size in
    if v > 0 then begin
      c := v;
      false
    end
    else begin
      c := !sample_rate;
      true
    end

  (* Scaled weights: at rate r, a sampled block of s bytes was picked
     with probability ~min(1, s/r), so it represents max(s, r) bytes and
     max(1, r/s) blocks. *)
  let weights size =
    let r = !sample_rate and size = max 1 size in
    if size >= r then (size, 1) else (r, max 1 (r / size))

  (* ---- tallies and the sampled-block map ---- *)

  type stat = {
    mutable live_blocks : int;
    mutable live_bytes : int;
    mutable cum_blocks : int;
    mutable cum_bytes : int;
  }

  let tally_lock = Mutex.create ()
  let tallies : (int, stat) Hashtbl.t = Hashtbl.create 64
  let sampled : (int, int * int * int) Hashtbl.t = Hashtbl.create 256
  let samples_total = ref 0

  let tally site =
    match Hashtbl.find_opt tallies site with
    | Some s -> s
    | None ->
      let s = { live_blocks = 0; live_bytes = 0; cum_blocks = 0; cum_bytes = 0 } in
      Hashtbl.add tallies site s;
      s

  (* Quick filter in front of the sampled map: the free path must ask
     "was this block sampled?" on every free, and the answer is almost
     always no.  A fixed bitmap of hashed keys turns the common case into
     one atomic load; bits are only set, so a miss is authoritative and a
     hit falls through to the locked map.  False-positive rate stays low
     because live samples number ~live_bytes/rate. *)
  let filter_words = 8192
  let filter = Array.make filter_words 0

  (* A key's slot is its hash's low bits (the word) and bits 13..17 (the
     bit).  Word and bit are derived at each use, not returned as a pair:
     without flambda the pair would be allocated on every free. *)
  let filter_hash key =
    let h = key * 0x3f58476d1ce4e5b9 in
    (h lxor (h lsr 29)) land max_int

  let filter_word h = h land (filter_words - 1)
  let filter_bit h = 1 lsl ((h lsr 13) land 31)

  (* Marks are rare (one per sample) and always made under [tally_lock],
     so the read-modify-write cannot lose bits; the flat int array keeps
     the probe a single plain load.  A prober only ever asks about a
     block whose address it obtained — transitively — from the malloc
     that set the bit, so the happens-before edge that delivered the
     address also delivers the bit. *)
  let filter_mark key =
    let h = filter_hash key in
    let w = filter_word h in
    filter.(w) <- filter.(w) lor filter_bit h

  let filter_probably key =
    let h = filter_hash key in
    Array.unsafe_get filter (filter_word h) land filter_bit h <> 0

  let sample_alloc ~key ~site ~size =
    let wb, wn = weights size in
    Mutex.lock tally_lock;
    filter_mark key;
    incr samples_total;
    (* a key can recur without an observed free (crash_and_reopen reuses
       offsets); the stale sample must be cancelled, not double-counted *)
    (match Hashtbl.find_opt sampled key with
    | Some (os, ob, on_) ->
      let st = tally os in
      st.live_blocks <- st.live_blocks - on_;
      st.live_bytes <- st.live_bytes - ob;
      Hashtbl.remove sampled key
    | None -> ());
    Hashtbl.replace sampled key (site, wb, wn);
    let st = tally site in
    st.live_blocks <- st.live_blocks + wn;
    st.live_bytes <- st.live_bytes + wb;
    st.cum_blocks <- st.cum_blocks + wn;
    st.cum_bytes <- st.cum_bytes + wb;
    Mutex.unlock tally_lock

  let note_free ~key =
    if not (filter_probably key) then None
    else begin
      Mutex.lock tally_lock;
      let r =
        match Hashtbl.find_opt sampled key with
        | None -> None
        | Some (site, wb, wn) ->
          Hashtbl.remove sampled key;
          let st = tally site in
          st.live_blocks <- st.live_blocks - wn;
          st.live_bytes <- st.live_bytes - wb;
          Some site
      in
      Mutex.unlock tally_lock;
      r
    end

  let samples () =
    Mutex.lock tally_lock;
    let n = !samples_total in
    Mutex.unlock tally_lock;
    n

  type site_stat = {
    s_site : int;
    s_name : string;
    s_live_blocks : int;
    s_live_bytes : int;
    s_cum_blocks : int;
    s_cum_bytes : int;
  }

  let stats () =
    Mutex.lock tally_lock;
    let rows =
      Hashtbl.fold
        (fun site st acc ->
          {
            s_site = site;
            s_name = site_name site;
            s_live_blocks = st.live_blocks;
            s_live_bytes = st.live_bytes;
            s_cum_blocks = st.cum_blocks;
            s_cum_bytes = st.cum_bytes;
          }
          :: acc)
        tallies []
    in
    Mutex.unlock tally_lock;
    List.sort (fun a b -> compare b.s_live_bytes a.s_live_bytes) rows

  let live_bytes () =
    List.fold_left (fun acc r -> acc + max 0 r.s_live_bytes) 0 (stats ())

  let live_blocks () =
    List.fold_left (fun acc r -> acc + max 0 r.s_live_blocks) 0 (stats ())

  let reset () =
    Mutex.lock tally_lock;
    Hashtbl.reset tallies;
    Hashtbl.reset sampled;
    samples_total := 0;
    Array.fill filter 0 filter_words 0;
    Mutex.unlock tally_lock;
    Domain.DLS.get countdown_key := 0;
    bump_generation ()

  (* ---- exports ---- *)

  let report ppf =
    let rows = stats () in
    if rows = [] then Format.fprintf ppf "(no heap samples)@."
    else begin
      Format.fprintf ppf "heap profile: %d samples, rate %d bytes@." (samples ())
        !sample_rate;
      Format.fprintf ppf "  %-32s %12s %12s %14s %12s@." "site" "live_blocks"
        "live_bytes" "cum_blocks" "cum_bytes";
      List.iter
        (fun r ->
          Format.fprintf ppf "  %-32s %12d %12d %14d %12d@." r.s_name
            r.s_live_blocks r.s_live_bytes r.s_cum_blocks r.s_cum_bytes)
        rows
    end

  (* Collapsed-stack format (one frame deep: sites, not call stacks),
     weighted by estimated live bytes — feedable to any flamegraph tool. *)
  let collapsed buf =
    List.iter
      (fun r ->
        if r.s_live_bytes > 0 then
          Buffer.add_string buf
            (Printf.sprintf "heap;%s %d\n" r.s_name r.s_live_bytes))
      (stats ())

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Speedscope "sampled" profile: one frame per site, one sample per
     site, weights in estimated live bytes. *)
  let speedscope buf =
    let rows = List.filter (fun r -> r.s_live_bytes > 0) (stats ()) in
    Buffer.add_string buf
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",";
    Buffer.add_string buf "\"shared\":{\"frames\":[";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\"}" (json_escape r.s_name)))
      rows;
    Buffer.add_string buf "]},\"profiles\":[{\"type\":\"sampled\",";
    Buffer.add_string buf
      "\"name\":\"heap (estimated live bytes)\",\"unit\":\"bytes\",";
    let total =
      List.fold_left (fun acc r -> acc + r.s_live_bytes) 0 rows
    in
    Buffer.add_string buf
      (Printf.sprintf "\"startValue\":0,\"endValue\":%d,\"samples\":[" total);
    List.iteri
      (fun i _ ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "[%d]" i))
      rows;
    Buffer.add_string buf "],\"weights\":[";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int r.s_live_bytes))
      rows;
    Buffer.add_string buf "]}]}\n"

  let prom_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let prometheus ppf =
    let rows = stats () in
    Format.fprintf ppf "# TYPE prof_sample_rate_bytes gauge@.";
    Format.fprintf ppf "prof_sample_rate_bytes %d@." !sample_rate;
    Format.fprintf ppf "# TYPE prof_samples_total counter@.";
    Format.fprintf ppf "prof_samples_total %d@." (samples ());
    let family name get =
      Format.fprintf ppf "# TYPE %s gauge@." name;
      List.iter
        (fun r ->
          Format.fprintf ppf "%s{site=\"%s\"} %d@." name (prom_escape r.s_name)
            (get r))
        rows
    in
    family "prof_live_bytes" (fun r -> r.s_live_bytes);
    family "prof_live_blocks" (fun r -> r.s_live_blocks);
    let cum name get =
      Format.fprintf ppf "# TYPE %s counter@." name;
      List.iter
        (fun r ->
          Format.fprintf ppf "%s{site=\"%s\"} %d@." name (prom_escape r.s_name)
            (get r))
        rows
    in
    cum "prof_cum_bytes_total" (fun r -> r.s_cum_bytes);
    cum "prof_cum_blocks_total" (fun r -> r.s_cum_blocks)

  (* ---- crash-surviving side ---- *)

  (* The provenance ring: the flight recorder's checksummed one-line
     entry protocol (2 flushes + 1 fence per entry, torn tails detected,
     head cursor rebuilt at attach) over its own view, recording
     sampled allocations and their frees.  Recording is NOT gated on the
     flight recorder's flag — the caller gates on [Prof.on]. *)
  module Ring = struct
    type t = Flight.t

    let alloc_kind = 1
    let free_kind = 2
    let words_for = Flight.words_for
    let capacity = Flight.capacity
    let format b ~capacity = Flight.format b ~capacity
    let attach = Flight.attach

    let record_alloc t ~site ~size ~off =
      Flight.record_now t ~kind:alloc_kind ~a:site ~b:size ~c:off ()

    let record_free t ~site ~size ~off =
      Flight.record_now t ~kind:free_kind ~a:site ~b:size ~c:off ()

    type entry = {
      pseq : int;
      is_alloc : bool;
      psite : int;
      psize : int;
      poff : int;
    }

    let entries t =
      List.filter_map
        (fun (e : Flight.event) ->
          if e.kind = alloc_kind || e.kind = free_kind then
            Some
              {
                pseq = e.seq;
                is_alloc = e.kind = alloc_kind;
                psite = e.a;
                psize = e.arg_b;
                poff = e.c;
              }
          else None)
        (Flight.tail t)

    (* Replay the window: sampled allocations not cancelled by a later
       free of the same offset — the sampled blocks live at the moment of
       the crash (as far as the surviving window can tell). *)
    let live t =
      let tbl : (int, entry) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun e ->
          if e.is_alloc then Hashtbl.replace tbl e.poff e
          else Hashtbl.remove tbl e.poff)
        (entries t);
      let rows = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
      List.sort (fun a b -> compare a.pseq b.pseq) rows

    let torn_slots = Flight.torn_slots
    let total_recorded = Flight.total_recorded
    let alloc_count t = Flight.kind_count t alloc_kind
    let free_count t = Flight.kind_count t free_kind
  end

  (* The persistent interned site-name table: a header line (magic,
     capacity) over the shared name table, indexed by site id and
     written durably the first time a site is sampled on a given heap,
     so [Ring] entries resolve to names offline. *)
  module Ptab = struct
    let magic = 0x50524F4653495445 land max_int (* "PROFSITE" *)
    let header_words = line_words
    let max_name = Names.max_name

    type t = Names.t

    let capacity = Names.capacity
    let words_for ~capacity = header_words + Names.words_for ~capacity
    let slot_word id = header_words + (id * line_words)

    let format b ~capacity =
      if capacity < 1 || words_for ~capacity > b.words then
        invalid_arg "Obs.Prof.Ptab.format: window too small for capacity";
      b.store 0 magic;
      b.store 1 capacity;
      let t = Names.make b ~base:header_words ~capacity in
      Names.clear t;
      t

    let attach b =
      if b.words < header_words || b.load 0 <> magic then None
      else
        let cap = b.load 1 in
        if cap < 1 || words_for ~capacity:cap > b.words then None
        else Some (Names.make b ~base:header_words ~capacity:cap)

    let persist = Names.persist
    let name = Names.get
    let count = Names.count
  end

end

(* ------------------------------------------------------------------ *)
(* Persistent metrics time-series black box                           *)
(*                                                                    *)
(* An aircraft-style flight-data recorder for metrics: three 4-line    *)
(* rings of sample records at increasing aggregation — every tick      *)
(* lands in the fine ring, every [mid_ratio] ticks their sum is        *)
(* appended to the mid ring, every [coarse_ratio] ticks to the coarse  *)
(* ring — so after a crash the image still holds a recent              *)
(* high-resolution timeline plus hours of coarse history, with no      *)
(* replay needed at recovery: the downsampling happened at write time. *)
(*                                                                    *)
(* Geometry, in words relative to the backend window:                 *)
(*                                                                    *)
(*   line 0                  magic + fixed geometry descriptor        *)
(*   line 1                  the three rings' never-flushed cursors   *)
(*   max_series lines        series names (the shared name table)     *)
(*   fine/mid/coarse rings   capacity * record_lines lines each       *)
(*                                                                    *)
(* A sample record is one ring record of [record_lines] lines:        *)
(*                                                                    *)
(*   [seq | ts_ns | count | v0 .. v23 | 0 0 0 | checksum | 0]          *)
(*                                                                    *)
(* where [count] is the number of fine ticks aggregated (1 in the     *)
(* fine ring) and each value word is the SUM of those ticks' values,  *)
(* so sums — and therefore means, via count — are conserved exactly   *)
(* across resolutions.                                                *)
(*                                                                    *)
(* Write protocol per tick: compose + seal the fine record            *)
(* ([record_lines] flushes), ditto for a mid/coarse record when the   *)
(* tick closes their window, then exactly one fence.  Zero work of    *)
(* any kind when disabled.                                            *)
(* ------------------------------------------------------------------ *)

module Tsdb = struct
  let max_series = 24
  let max_name = Names.max_name

  let fine_capacity = 320
  let mid_capacity = 360
  let coarse_capacity = 256
  let mid_ratio = 10
  let coarse_ratio = 60

  (* seq, ts, count, the values, checksum and the reserved word *)
  let record_lines = (max_series + 5 + line_words - 1) / line_words
  let ring_words capacity = Ring.words_for ~lines:record_lines ~capacity
  let off_heads = line_words
  let names_base = 2 * line_words
  let fine_base = names_base + Names.words_for ~capacity:max_series
  let mid_base = fine_base + ring_words fine_capacity
  let coarse_base = mid_base + ring_words mid_capacity
  let total_words = coarse_base + ring_words coarse_capacity
  let words_for () = total_words
  let magic = 0x5453444252494E47 land max_int (* "TSDBRING" *)
  let seed = 0x54534442

  let tsdb_on = ref false
  let set_enabled b = tsdb_on := b && not (hard_disabled ())
  let enabled () = !tsdb_on

  type ring = [ `Fine | `Mid | `Coarse ]

  let ring_index = function `Fine -> 0 | `Mid -> 1 | `Coarse -> 2
  let bases = [| fine_base; mid_base; coarse_base |]
  let capacities = [| fine_capacity; mid_capacity; coarse_capacity |]
  let slot_word r s = bases.(ring_index r) + (s * record_lines * line_words)

  type t = {
    b : backend;
    lock : Mutex.t;
    table : Names.t;
    mutable nseries : int;
    names : string array;
    rings : Ring.t array; (* fine, mid, coarse *)
    acc_mid : int array;
    acc_coarse : int array;
    mutable acc_mid_count : int;
    mutable acc_coarse_count : int;
  }

  let fresh b =
    let ring i =
      Ring.make b ~head:(off_heads + i) ~base:bases.(i) ~lines:record_lines
        ~capacity:capacities.(i) ~seed
    in
    {
      b;
      lock = Mutex.create ();
      table = Names.make b ~base:names_base ~capacity:max_series;
      nseries = 0;
      names = Array.make max_series "";
      rings = Array.init 3 ring;
      acc_mid = Array.make max_series 0;
      acc_coarse = Array.make max_series 0;
      acc_mid_count = 0;
      acc_coarse_count = 0;
    }

  let format b =
    if b.words < total_words then
      invalid_arg "Obs.Tsdb.format: window too small";
    b.store 0 magic;
    b.store 1 max_series;
    b.store 2 fine_capacity;
    b.store 3 mid_capacity;
    b.store 4 coarse_capacity;
    b.store 5 mid_ratio;
    b.store 6 coarse_ratio;
    b.store 7 0;
    let t = fresh b in
    Names.clear t.table;
    Array.iter Ring.clear t.rings;
    t

  (* ---- sample records ---- *)

  type point = {
    p_seq : int;
    p_ts_ns : int;
    p_count : int;
    p_values : int array; (* SUMS of [p_count] fine ticks, length max_series *)
  }

  let point_at (b : backend) w =
    {
      p_seq = b.load w;
      p_ts_ns = b.load (w + 1);
      p_count = b.load (w + 2);
      p_values = Array.init max_series (fun i -> b.load (w + 3 + i));
    }

  let attach b =
    if b.words < total_words then None
    else if b.load 0 <> magic then None
    else if
      b.load 1 <> max_series
      || b.load 2 <> fine_capacity
      || b.load 3 <> mid_capacity
      || b.load 4 <> coarse_capacity
      || b.load 5 <> mid_ratio
      || b.load 6 <> coarse_ratio
    then None (* formatted by a build with a different geometry *)
    else begin
      let t = fresh b in
      (* rebuild the volatile series table from the persisted names *)
      for id = 0 to max_series - 1 do
        match Names.get t.table id with
        | Some n ->
          t.names.(id) <- n;
          t.nseries <- id + 1
        | None -> ()
      done;
      Array.iter Ring.rebuild t.rings;
      Some t
    end

  let declare t name =
    Mutex.lock t.lock;
    let id =
      let rec find i =
        if i >= t.nseries then -1
        else if t.names.(i) = name then i
        else find (i + 1)
      in
      match find 0 with
      | i when i >= 0 -> i
      | _ ->
        if t.nseries >= max_series then begin
          Mutex.unlock t.lock;
          invalid_arg "Obs.Tsdb.declare: series table full"
        end;
        let id = t.nseries in
        t.names.(id) <- name;
        t.nseries <- id + 1;
        if !tsdb_on then Names.persist t.table id name;
        id
    in
    Mutex.unlock t.lock;
    id

  let series_count t = t.nseries

  let series_name t id =
    if id >= 0 && id < t.nseries && t.names.(id) <> "" then Some t.names.(id)
    else None

  let series_index t name =
    let rec find i =
      if i >= t.nseries then None
      else if t.names.(i) = name then Some i
      else find (i + 1)
    in
    find 0

  (* Compose + seal one record; the caller owns the fence. *)
  let write_record t r ~ts ~count vals =
    let ring = t.rings.(ring_index r) and b = t.b in
    let seq = Ring.claim ring in
    let w = Ring.slot_of_seq ring seq in
    b.store (w + 1) ts;
    b.store (w + 2) count;
    for i = 0 to max_series - 1 do
      b.store (w + 3 + i) (if i < Array.length vals then vals.(i) else 0)
    done;
    (* the spare words before the checksum stay zero from [format] *)
    Ring.seal ring seq

  let sample t ~ts_ns values =
    if !tsdb_on then begin
      Mutex.lock t.lock;
      write_record t `Fine ~ts:ts_ns ~count:1 values;
      for i = 0 to max_series - 1 do
        let v = if i < Array.length values then values.(i) else 0 in
        t.acc_mid.(i) <- t.acc_mid.(i) + v;
        t.acc_coarse.(i) <- t.acc_coarse.(i) + v
      done;
      t.acc_mid_count <- t.acc_mid_count + 1;
      if t.acc_mid_count >= mid_ratio then begin
        write_record t `Mid ~ts:ts_ns ~count:t.acc_mid_count t.acc_mid;
        Array.fill t.acc_mid 0 max_series 0;
        t.acc_mid_count <- 0
      end;
      t.acc_coarse_count <- t.acc_coarse_count + 1;
      if t.acc_coarse_count >= coarse_ratio then begin
        write_record t `Coarse ~ts:ts_ns ~count:t.acc_coarse_count t.acc_coarse;
        Array.fill t.acc_coarse 0 max_series 0;
        t.acc_coarse_count <- 0
      end;
      t.b.fence ();
      Mutex.unlock t.lock
    end

  (* ---- read side ---- *)

  let points t r =
    List.map (point_at t.b) (Ring.tail t.rings.(ring_index r))

  let torn_slots t =
    Array.fold_left (fun n ring -> n + Ring.torn_slots ring) 0 t.rings

  let total_samples t = Ring.total_recorded t.rings.(0)

  let series_points t r id =
    if id < 0 || id >= max_series then []
    else
      List.map
        (fun p ->
          (p.p_ts_ns, float_of_int p.p_values.(id) /. float_of_int (max 1 p.p_count)))
        (points t r)

  let mean_sigma values =
    let n = List.length values in
    if n = 0 then (0., 0.)
    else begin
      let mean = List.fold_left ( +. ) 0. values /. float_of_int n in
      let var =
        List.fold_left (fun a v -> a +. ((v -. mean) *. (v -. mean))) 0. values
        /. float_of_int n
      in
      (mean, sqrt var)
    end

  let series_stats t r id =
    mean_sigma (List.map snd (series_points t r id))

  type anomaly = {
    an_series : int;
    an_name : string;
    an_last : float; (* mean of the trailing window *)
    an_mean : float; (* whole-ring mean *)
    an_sigma : float; (* whole-ring standard deviation *)
  }

  let anomalies ?(k = 3.0) ?(window = 60) t =
    let out = ref [] in
    for id = t.nseries - 1 downto 0 do
      let pts = List.map snd (series_points t `Fine id) in
      let n = List.length pts in
      (* need enough history for the ring mean to be a reference *)
      if n >= 2 * window then begin
        let mean, sigma = mean_sigma pts in
        let tail_pts =
          List.filteri (fun i _ -> i >= n - window) pts
        in
        let last, _ = mean_sigma tail_pts in
        (* sigma floor: a flat series (sigma 0) breaches on any change *)
        let floor_s = Float.max sigma (0.02 *. Float.abs mean +. 1e-9) in
        if Float.abs (last -. mean) > k *. floor_s then
          out :=
            {
              an_series = id;
              an_name = t.names.(id);
              an_last = last;
              an_mean = mean;
              an_sigma = sigma;
            }
            :: !out
      end
    done;
    !out

  (* ---- the sampler: one shared snapshot path ---- *)

  (* A declared set of (name, read) sources ticked periodically: each
     tick evaluates every source (passing the seconds since the previous
     tick, 0.0 on the first, so rate series can diff their own state),
     writes one fine sample, and returns the values so the caller — the
     bench [metrics] printer, the server's SLO watchdog — can reuse the
     very snapshot that was persisted instead of re-deriving its own. *)
  module Sampler = struct
    type tsdb = t

    type t = {
      db : tsdb;
      ids : int array;
      sources : (float -> int) array;
      mutable last_ns : int;
    }

    let create db specs =
      let specs = Array.of_list specs in
      {
        db;
        ids = Array.map (fun (n, _) -> declare db n) specs;
        sources = Array.map snd specs;
        last_ns = 0;
      }

    let tick s =
      if not !tsdb_on then [||]
      else begin
        let now = now_ns () in
        let dt =
          if s.last_ns = 0 then 0.
          else float_of_int (now - s.last_ns) /. 1e9
        in
        s.last_ns <- now;
        let values = Array.make max_series 0 in
        Array.iteri
          (fun i src -> values.(s.ids.(i)) <- src dt)
          s.sources;
        sample s.db ~ts_ns:now values;
        values
      end

    let index s name = series_index s.db name
  end
end

(* ------------------------------------------------------------------ *)
(* The black box: every crash-surviving view in one window            *)
(*                                                                    *)
(* The flight ring, the provenance ring, the site-name table and the   *)
(* metrics rings share one line-aligned window, split here so a heap   *)
(* reserves a single carve-out and can never drift from the writers:   *)
(*                                                                    *)
(*   flight ring (256) | provenance ring (1024) | site names (128)     *)
(*   | metrics black box                                              *)
(*                                                                    *)
(* Each view writes through its own bounds-checked sub-window, so no   *)
(* view can write into, or parse, its neighbour's records.             *)
(* ------------------------------------------------------------------ *)

module Blackbox = struct
  let flight_capacity = 256
  let prov_capacity = 1024
  let sites_capacity = 128
  let prov_base = Flight.words_for ~capacity:flight_capacity
  let sites_base = prov_base + Prof.Ring.words_for ~capacity:prov_capacity
  let tsdb_base = sites_base + Prof.Ptab.words_for ~capacity:sites_capacity
  let words = tsdb_base + Tsdb.words_for ()

  type t = {
    flight : Flight.t;
    prov : Prof.Ring.t;
    sites : Prof.Ptab.t;
    tsdb : Tsdb.t;
  }

  let sub b ~first ~last =
    let n = last - first in
    let abs w =
      if w < 0 || w >= n then invalid_arg "Obs.Blackbox: index outside its view";
      first + w
    in
    {
      words = n;
      load = (fun w -> b.load (abs w));
      store = (fun w v -> b.store (abs w) v);
      fetch_add = (fun w d -> b.fetch_add (abs w) d);
      flush = (fun w -> b.flush (abs w));
      fence = b.fence;
    }

  let views b =
    ( sub b ~first:0 ~last:prov_base,
      sub b ~first:prov_base ~last:sites_base,
      sub b ~first:sites_base ~last:tsdb_base,
      sub b ~first:tsdb_base ~last:words )

  let format b =
    if b.words < words then invalid_arg "Obs.Blackbox.format: window too small";
    let fb, pb, sb, tb = views b in
    {
      flight = Flight.format fb ~capacity:flight_capacity;
      prov = Prof.Ring.format pb ~capacity:prov_capacity;
      sites = Prof.Ptab.format sb ~capacity:sites_capacity;
      tsdb = Tsdb.format tb;
    }

  let attach b =
    if b.words < words then None
    else
      let fb, pb, sb, tb = views b in
      match
        (Flight.attach fb, Prof.Ring.attach pb, Prof.Ptab.attach sb, Tsdb.attach tb)
      with
      | Some flight, Some prov, Some sites, Some tsdb ->
        Some { flight; prov; sites; tsdb }
      | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Registry dump                                                      *)
(* ------------------------------------------------------------------ *)

let sorted_metrics () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let dump ppf =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
        (* zero counters are omitted: with per-size-class metric arrays
           most registered counters are silent in any given run *)
        let v = Counter.read c in
        if v <> 0 then Format.fprintf ppf "counter   %-36s %d@." name v
      | Gauge g -> Format.fprintf ppf "gauge     %-36s %d@." name (Gauge.read g)
      | Histogram h ->
        let s = Histogram.snapshot h in
        let n = Histogram.snap_count s in
        Format.fprintf ppf
          "histogram %-36s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d@."
          name n
          (if n = 0 then 0.0 else float_of_int s.sum /. float_of_int n)
          (Histogram.snap_quantile s 0.5)
          (Histogram.snap_quantile s 0.9)
          (Histogram.snap_quantile s 0.99)
          s.max_v
      | Derived f -> Format.fprintf ppf "derived   %-36s %.6f@." name (f ()))
    (sorted_metrics ())

(* Prometheus text exposition: metric names sanitized ('.' -> '_'),
   histograms rendered as summaries (quantile labels + _sum/_count),
   derived metrics as gauges. *)
let prom_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prometheus ppf =
  List.iter
    (fun (name, m) ->
      let n = prom_name name in
      match m with
      | Counter c ->
        let v = Counter.read c in
        if v <> 0 then
          Format.fprintf ppf "# TYPE %s counter@.%s %d@." n n v
      | Gauge g ->
        Format.fprintf ppf "# TYPE %s gauge@.%s %d@." n n (Gauge.read g)
      | Histogram h ->
        let s = Histogram.snapshot h in
        let cnt = Histogram.snap_count s in
        if cnt <> 0 then begin
          Format.fprintf ppf "# TYPE %s summary@." n;
          List.iter
            (fun q ->
              Format.fprintf ppf "%s{quantile=\"%g\"} %d@." n q
                (Histogram.snap_quantile s q))
            [ 0.5; 0.9; 0.99 ];
          Format.fprintf ppf "%s_sum %d@.%s_count %d@." n s.sum n cnt
        end
      | Derived f ->
        Format.fprintf ppf "# TYPE %s gauge@.%s %.6f@." n n (f ()))
    (sorted_metrics ());
  (* heap-profile families ride along whenever the profiler has (or is
     collecting) samples, so one scrape serves both *)
  if Prof.enabled () || Prof.samples () > 0 then Prof.prometheus ppf

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c -> Counter.reset c
      | Gauge g -> Gauge.reset g
      | Histogram h -> Histogram.reset h
      | Derived _ -> ())
    (sorted_metrics ())
