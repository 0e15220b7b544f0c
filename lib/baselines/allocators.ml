(* Registry of every allocator evaluated in the paper (§6.1), packaged
   behind {!Alloc_iface.S}:

   - ralloc    — this paper's contribution (persistence on)
   - lrmalloc  — literally "Ralloc without flush and fence"
   - makalu    — lock-based persistent allocator with eager logging and a
                 half-returning thread cache (Bhandari et al., OOPSLA'16)
   - pmdk      — libpmemobj-style malloc-to/free-from with redo logging
                 under a global lock
   - mnemosyne — Mnemosyne's built-in persistent Hoard/DLMalloc hybrid
                 (used only in the Vacation experiment, Fig. 5e)
   - jemalloc  — transient high-performance allocator *)

module Ralloc_alloc : Alloc_iface.S with type t = Ralloc.t = struct
  type t = Ralloc.t

  let name = "ralloc"
  let persistent = true
  let create ~size = Ralloc.create ~name ~persist:true ~size ()
  let malloc = Ralloc.malloc
  let free = Ralloc.free
  let load = Ralloc.load
  let store = Ralloc.store
  let cas = Ralloc.cas
  let thread_exit = Ralloc.flush_thread_cache
  let stats = Ralloc.stats

  let frag t =
    let c = Ralloc.census t in
    Some (c.Ralloc.Census.occupancy, c.Ralloc.Census.external_frag)
end

module Lrmalloc_alloc : Alloc_iface.S with type t = Ralloc.t = struct
  include Ralloc_alloc

  let name = "lrmalloc"
  let persistent = false
  let create ~size = Ralloc.create ~name ~persist:false ~size ()
end

(* Ralloc over file-backed regions: each region's persistent view is a
   shared mapping of a real heap file, so every drained line lands in the
   page cache, on top of the latency model.  The scratch files are
   unlinked immediately — their descriptors and mappings keep them alive
   for the benchmark's lifetime. *)
module Ralloc_file_alloc : Alloc_iface.S with type t = Ralloc.t = struct
  include Ralloc_alloc

  let name = "ralloc_file"

  let create ~size =
    let base = Filename.temp_file "ralloc_bench" ".heap" in
    Sys.remove base;
    let heap, _ = Ralloc.init ~path:base ~size () in
    List.iter
      (fun suffix -> try Sys.remove (base ^ suffix) with Sys_error _ -> ())
      [ ".meta"; ".desc"; ".sb" ];
    heap
end

let makalu_config =
  {
    Lockalloc.cfg_name = "makalu";
    global_lock = false;
    log_words = 4;
    log_flushes = 2;
    metadata_flushes = 1;
    tcache_capacity = 32;
    half_return = true;
    persist_pointer_on_malloc = false;
    medium_threshold = 400;
    medium_extra_flushes = 6;
  }

let pmdk_config =
  {
    Lockalloc.cfg_name = "pmdk";
    global_lock = true;
    log_words = 6;
    log_flushes = 2;
    metadata_flushes = 1;
    tcache_capacity = 0;
    half_return = false;
    persist_pointer_on_malloc = true;
    medium_threshold = 0;
    medium_extra_flushes = 0;
  }

let mnemosyne_config =
  {
    Lockalloc.cfg_name = "mnemosyne";
    global_lock = true;
    log_words = 4;
    log_flushes = 1;
    metadata_flushes = 1;
    tcache_capacity = 0;
    half_return = false;
    persist_pointer_on_malloc = false;
    medium_threshold = 0;
    medium_extra_flushes = 0;
  }

module Lock_common = struct
  type t = Lockalloc.t

  let persistent = true
  let malloc = Lockalloc.malloc
  let free = Lockalloc.free
  let load = Lockalloc.load
  let store = Lockalloc.store
  let cas = Lockalloc.cas
  let thread_exit = Lockalloc.thread_exit
  let stats = Lockalloc.stats
  let frag _ = None
end

module Makalu_alloc : Alloc_iface.S with type t = Lockalloc.t = struct
  include Lock_common

  let name = "makalu"
  let create ~size = Lockalloc.create makalu_config ~size
end

module Pmdk_alloc : Alloc_iface.S with type t = Lockalloc.t = struct
  include Lock_common

  let name = "pmdk"
  let create ~size = Lockalloc.create pmdk_config ~size
end

module Mnemosyne_alloc : Alloc_iface.S with type t = Lockalloc.t = struct
  include Lock_common

  let name = "mnemosyne"
  let create ~size = Lockalloc.create mnemosyne_config ~size
end

module Jemalloc_alloc : Alloc_iface.S with type t = Jemalloc_sim.t = struct
  type t = Jemalloc_sim.t

  let name = Jemalloc_sim.name
  let persistent = Jemalloc_sim.persistent
  let create ~size = Jemalloc_sim.create ~size
  let malloc = Jemalloc_sim.malloc
  let free = Jemalloc_sim.free
  let load = Jemalloc_sim.load
  let store = Jemalloc_sim.store
  let cas = Jemalloc_sim.cas
  let thread_exit = Jemalloc_sim.thread_exit
  let stats = Jemalloc_sim.stats
  let frag _ = None
end

module Michael_alloc : Alloc_iface.S with type t = Ralloc.t = struct
  include Ralloc_alloc

  let name = "michael"
  let persistent = false

  (* Michael's 2004 lock-free allocator: no thread caches, an anchor CAS
     per operation (paper §3: "noticeably slower than the fastest
     lock-based allocators"; LRMalloc added the caching). *)
  let create ~size = Ralloc.create ~name ~persist:false ~tcache:false ~size ()
end

let names =
  [
    "ralloc"; "ralloc_file"; "makalu"; "pmdk"; "lrmalloc"; "jemalloc";
    "mnemosyne"; "michael";
  ]

(* The paper's standard line-up for the allocator benchmarks (Figs 5a-5d),
   plus the file-backed Ralloc variant as a repro-only series: it prices
   the backing-file I/O of the flush pipeline so the perf trajectory of
   the file path is tracked by the same figures. *)
let benchmark_names =
  [ "ralloc"; "ralloc_file"; "makalu"; "pmdk"; "lrmalloc"; "jemalloc" ]

(* Persistent allocators only, for the Vacation experiment (Fig. 5e). *)
let persistent_names = [ "ralloc"; "makalu"; "pmdk"; "mnemosyne" ]

let make name ~size : Alloc_iface.instance =
  match name with
  | "ralloc" -> Alloc_iface.I ((module Ralloc_alloc), Ralloc_alloc.create ~size)
  | "ralloc_file" ->
    Alloc_iface.I ((module Ralloc_file_alloc), Ralloc_file_alloc.create ~size)
  | "lrmalloc" ->
    Alloc_iface.I ((module Lrmalloc_alloc), Lrmalloc_alloc.create ~size)
  | "makalu" -> Alloc_iface.I ((module Makalu_alloc), Makalu_alloc.create ~size)
  | "pmdk" -> Alloc_iface.I ((module Pmdk_alloc), Pmdk_alloc.create ~size)
  | "mnemosyne" ->
    Alloc_iface.I ((module Mnemosyne_alloc), Mnemosyne_alloc.create ~size)
  | "jemalloc" ->
    Alloc_iface.I ((module Jemalloc_alloc), Jemalloc_alloc.create ~size)
  | "michael" ->
    Alloc_iface.I ((module Michael_alloc), Michael_alloc.create ~size)
  | other -> invalid_arg ("Allocators.make: unknown allocator " ^ other)
