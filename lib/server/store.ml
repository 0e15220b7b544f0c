type t = {
  heap : Ralloc.t;
  tree : Dstruct.Nmtree.t;
  smap : Dstruct.Phashmap.t;
  smr : Ebr.t option;
  status : Ralloc.status;
  recovery : Ralloc.recovery_stats option;
}

let default_size = 64 * 1024 * 1024

let open_store ?(concurrent = false) ?(size = default_size) path =
  let heap, status = Ralloc.init ~path ~size () in
  let smr = if concurrent then Some (Ebr.create heap) else None in
  (* the CLI frees removed nodes immediately; the server must not, or a
     deferred release fence could leave a durable edge to a recycled block *)
  let reclaim = not concurrent in
  let attach () =
    ( Dstruct.Nmtree.attach ~reclaim ?smr heap ~root:0,
      Dstruct.Phashmap.attach ~reclaim heap ~root:1 )
  in
  let tree, smap, recovery =
    match status with
    | Ralloc.Fresh ->
      ( Dstruct.Nmtree.create ~reclaim ?smr heap ~root:0,
        Dstruct.Phashmap.create ~reclaim heap ~root:1 ~buckets:1024,
        None )
    | Ralloc.Clean_restart ->
      let tree, smap = attach () in
      (tree, smap, None)
    | Ralloc.Dirty_restart ->
      (* attach first: recovery needs the structures' filters registered *)
      let tree, smap = attach () in
      let r = Ralloc.recover heap in
      (tree, smap, Some r)
  in
  { heap; tree; smap; smr; status; recovery }

let close t = Ralloc.close t.heap

(* Nested spans around each store operation: on the worker's trace track
   they enclose the allocator's own events (e.g. ralloc.refill), and the
   "span.store.*_ns" histograms give structure-level latency without the
   queueing noise of the request-stage view. *)
let sp_iset = Obs.Span.stage "store.iset"
let sp_iget = Obs.Span.stage "store.iget"
let sp_idel = Obs.Span.stage "store.idel"
let sp_sset = Obs.Span.stage "store.sset"
let sp_sget = Obs.Span.stage "store.sget"
let sp_sdel = Obs.Span.stage "store.sdel"

(* Matching heap-provenance sites: any allocation sampled inside an
   operation is attributed to that operation in `pkvc prof` / rstat
   --prof output.  [Obs.Prof.with_site] calls the thunk directly while
   the profiler is off. *)
let pv_iset = Obs.Prof.site "store.iset"
let pv_iget = Obs.Prof.site "store.iget"
let pv_idel = Obs.Prof.site "store.idel"
let pv_sset = Obs.Prof.site "store.sset"
let pv_sget = Obs.Prof.site "store.sget"
let pv_sdel = Obs.Prof.site "store.sdel"

let iset t key value =
  Obs.Prof.with_site pv_iset (fun () ->
      Obs.Span.with_stage sp_iset (fun () ->
          ignore (Dstruct.Nmtree.set t.tree key value)))

let iget t key =
  Obs.Prof.with_site pv_iget (fun () ->
      Obs.Span.with_stage sp_iget (fun () -> Dstruct.Nmtree.find t.tree key))

let idel t key =
  Obs.Prof.with_site pv_idel (fun () ->
      Obs.Span.with_stage sp_idel (fun () -> Dstruct.Nmtree.delete t.tree key))

let sset t key value =
  Obs.Prof.with_site pv_sset (fun () ->
      Obs.Span.with_stage sp_sset (fun () ->
          ignore (Dstruct.Phashmap.set t.smap key value)))

let sget t key =
  Obs.Prof.with_site pv_sget (fun () ->
      Obs.Span.with_stage sp_sget (fun () -> Dstruct.Phashmap.get t.smap key))

let sdel t key =
  Obs.Prof.with_site pv_sdel (fun () ->
      Obs.Span.with_stage sp_sdel (fun () -> Dstruct.Phashmap.delete t.smap key))
