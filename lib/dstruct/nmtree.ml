(* Node layout (32 B): [0] key, [1] left edge, [2] right edge, [3] value.
   An edge word is an off-holder plus a flag bit (delete of the target
   leaf in progress) and a tag bit (edge frozen for pruning) in the spare
   bits.  Leaves have null (0) child edges. *)

type t = {
  heap : Ralloc.t;
  root : int;
  reclaim : bool;
  smr : Ebr.t option;
}

let dispose t va =
  match t.smr with
  | Some ebr -> Ebr.retire ebr va
  | None -> if t.reclaim then Ralloc.free t.heap va

let guard t f = match t.smr with Some ebr -> Ebr.protect ebr f | None -> f ()

let node_bytes = 32
let flag_bit = 1 lsl 57
let tag_bit = 1 lsl 58
let inf0 = max_int - 2
let inf1 = max_int - 1
let inf2 = max_int
let max_key = max_int - 3
let key_word n = n
let left_word n = n + 8
let right_word n = n + 16
let value_word n = n + 24
let flagged w = w land flag_bit <> 0
let tagged w = w land tag_bit <> 0

(* the pointer part of an edge word (spare bits stripped) *)
let edge_ref ~holder w = Pptr.decode_counted ~holder w

let make_edge ~holder ~target ~flag ~tag =
  Pptr.encode ~holder ~target
  lor (if flag then flag_bit else 0)
  lor if tag then tag_bit else 0

let rec node_filter heap (gc : Ralloc.gc) va =
  List.iter
    (fun holder ->
      let target = edge_ref ~holder (Ralloc.load heap holder) in
      if target <> 0 then gc.visit ~filter:(node_filter heap) target)
    [ left_word va; right_word va ]

let filter heap gc va = node_filter heap gc va

let alloc_node t key value =
  let n = Ralloc.malloc t.heap node_bytes in
  if n = 0 then failwith "Nmtree: out of memory";
  Ralloc.store t.heap (key_word n) key;
  Ralloc.store t.heap (left_word n) 0;
  Ralloc.store t.heap (right_word n) 0;
  Ralloc.store t.heap (value_word n) value;
  n

let persist_node t n =
  Ralloc.flush_block_range t.heap n node_bytes;
  Ralloc.fence t.heap

let persist_word t va =
  Ralloc.flush t.heap va;
  Ralloc.fence t.heap

(* Release-fence variant for post-publish durability fences (group commit).
   Deferring is only safe when a removed node cannot be recycled before the
   deferred drain: leak-to-GC mode ([reclaim:false]) or SMR with the pin
   held across the whole batch.  Immediate-free mode keeps a real fence —
   otherwise a freed block could be reused and republished durably while a
   stale durable edge still points at it. *)
let persist_word_release t va =
  Ralloc.flush t.heap va;
  if t.reclaim && t.smr = None then Ralloc.fence t.heap
  else Ralloc.fence_release t.heap

let create ?(reclaim = false) ?smr heap ~root =
  let t = { heap; root = 0; reclaim; smr } in
  let r = alloc_node t inf2 0 in
  let s = alloc_node t inf1 0 in
  let leaf0 = alloc_node t inf0 0 in
  let leaf1 = alloc_node t inf1 0 in
  let leaf2 = alloc_node t inf2 0 in
  let link parent word child =
    Ralloc.store heap word
      (make_edge ~holder:word ~target:child ~flag:false ~tag:false);
    ignore parent
  in
  link s (left_word s) leaf0;
  link s (right_word s) leaf1;
  link r (left_word r) s;
  link r (right_word r) leaf2;
  List.iter (persist_node t) [ leaf0; leaf1; leaf2; s; r ];
  Ralloc.set_root heap root r;
  ignore (Ralloc.get_root ~filter:(filter heap) heap root);
  { heap; root = r; reclaim; smr }

let attach ?(reclaim = false) ?smr heap ~root =
  let r = Ralloc.get_root ~filter:(filter heap) heap root in
  if r = 0 then invalid_arg "Nmtree.attach: root is unset";
  { heap; root = r; reclaim; smr }

type seek_record = {
  mutable ancestor : int;
  mutable successor : int;
  mutable parent : int;
  mutable leaf : int;
  mutable leaf_edge : int;
      (* the edge word [leaf] was reached through: a flagged one means the
         leaf's delete has taken effect and only its unlinking is left *)
}

let key_of t n = Ralloc.load t.heap (key_word n)

let child_word t n key =
  if key < key_of t n then left_word n else right_word n

let seek t key =
  let load = Ralloc.load t.heap in
  let r = t.root in
  let s = edge_ref ~holder:(left_word r) (load (left_word r)) in
  let s_left_word = load (left_word s) in
  let first = edge_ref ~holder:(left_word s) s_left_word in
  let sr =
    {
      ancestor = r;
      successor = s;
      parent = s;
      leaf = first;
      leaf_edge = s_left_word;
    }
  in
  let rec walk pf_word =
    let cf_addr = child_word t sr.leaf key in
    let cf_word = load cf_addr in
    let current = edge_ref ~holder:cf_addr cf_word in
    if current <> 0 then begin
      if not (tagged pf_word) then begin
        sr.ancestor <- sr.parent;
        sr.successor <- sr.leaf
      end;
      sr.parent <- sr.leaf;
      sr.leaf <- current;
      walk cf_word
    end
    else sr.leaf_edge <- pf_word
  in
  walk s_left_word;
  sr

(* Physically remove the leaf whose edge is flagged, together with its
   parent, by swinging the ancestor's edge to the sibling.  Returns true
   iff this call performed the removal. *)
let cleanup t key sr =
  let load = Ralloc.load t.heap in
  let parent = sr.parent in
  let child_addr, sibling_addr =
    if key < key_of t parent then (left_word parent, right_word parent)
    else (right_word parent, left_word parent)
  in
  let child_addr, sibling_addr =
    if flagged (load child_addr) then (child_addr, sibling_addr)
    else (sibling_addr, child_addr) (* the flag is on the other edge *)
  in
  (* freeze the sibling edge so no modification can happen under it *)
  let rec tag_edge () =
    let w = load sibling_addr in
    if tagged w then w
    else if Ralloc.cas t.heap sibling_addr ~expected:w ~desired:(w lor tag_bit)
    then w lor tag_bit
    else tag_edge ()
  in
  let sw = tag_edge () in
  persist_word t sibling_addr;
  let a_addr = child_word t sr.ancestor key in
  let expected =
    make_edge ~holder:a_addr ~target:sr.successor ~flag:false ~tag:false
  in
  let sibling = edge_ref ~holder:sibling_addr sw in
  let desired =
    (* the sibling may itself be under deletion: its flag travels *)
    make_edge ~holder:a_addr ~target:sibling ~flag:(flagged sw) ~tag:false
  in
  let ok = Ralloc.cas t.heap a_addr ~expected ~desired in
  if ok then begin
    (* the swing is the publish point; its durability is ack-only *)
    persist_word_release t a_addr;
    if t.reclaim || t.smr <> None then begin
      let removed = edge_ref ~holder:child_addr (load child_addr) in
      dispose t parent;
      if removed <> 0 then dispose t removed
    end
  end;
  ok

(* Insert [key], or with [replace] overwrite a live binding in place.
   True iff [key] was absent.  A live leaf's value word is read only by
   lookups that reached the leaf through an unflagged edge, so one aligned
   store replaces the binding: no new node, no ordering fence, and a crash
   keeps the old value or the new one, never neither. *)
let rec upsert t key value ~replace =
  if key < 0 || key > max_key then invalid_arg "Nmtree: key out of range";
  let sr = seek t key in
  let leaf_key = key_of t sr.leaf in
  if leaf_key = key && flagged sr.leaf_edge then begin
    (* deleted but still linked (say, across a crash): unlink, retry *)
    ignore (cleanup t key sr);
    upsert t key value ~replace
  end
  else if leaf_key = key then begin
    if replace then begin
      Ralloc.store t.heap (value_word sr.leaf) value;
      persist_word_release t (value_word sr.leaf)
    end;
    false
  end
  else begin
    let parent = sr.parent in
    let child_addr = child_word t parent key in
    let existing = sr.leaf in
    let new_leaf = alloc_node t key value in
    let internal = alloc_node t (max key leaf_key) 0 in
    let lchild, rchild =
      if key < leaf_key then (new_leaf, existing) else (existing, new_leaf)
    in
    Ralloc.store t.heap (left_word internal)
      (make_edge ~holder:(left_word internal) ~target:lchild ~flag:false
         ~tag:false);
    Ralloc.store t.heap (right_word internal)
      (make_edge ~holder:(right_word internal) ~target:rchild ~flag:false
         ~tag:false);
    (* one ordering fence covers both fresh nodes' content *)
    Ralloc.flush_block_range t.heap new_leaf node_bytes;
    Ralloc.flush_block_range t.heap internal node_bytes;
    Ralloc.fence t.heap;
    let expected =
      make_edge ~holder:child_addr ~target:existing ~flag:false ~tag:false
    in
    let desired =
      make_edge ~holder:child_addr ~target:internal ~flag:false ~tag:false
    in
    if Ralloc.cas t.heap child_addr ~expected ~desired then begin
      persist_word_release t child_addr;
      true
    end
    else begin
      Ralloc.free t.heap new_leaf;
      Ralloc.free t.heap internal;
      (* help an obstructing delete of [existing], then retry *)
      let w = Ralloc.load t.heap child_addr in
      if edge_ref ~holder:child_addr w = existing && (flagged w || tagged w)
      then ignore (cleanup t key sr);
      upsert t key value ~replace
    end
  end

let insert t key value = guard t (fun () -> upsert t key value ~replace:false)
let set t key value = guard t (fun () -> upsert t key value ~replace:true)

let rec delete_cleanup t key leaf =
  let sr = seek t key in
  if sr.leaf <> leaf then true (* another thread finished the removal *)
  else if cleanup t key sr then true
  else delete_cleanup t key leaf

let rec delete_raw t key =
  let sr = seek t key in
  if key_of t sr.leaf <> key then false
  else begin
    let parent = sr.parent in
    let child_addr = child_word t parent key in
    let leaf = sr.leaf in
    let expected =
      make_edge ~holder:child_addr ~target:leaf ~flag:false ~tag:false
    in
    let desired =
      make_edge ~holder:child_addr ~target:leaf ~flag:true ~tag:false
    in
    if Ralloc.cas t.heap child_addr ~expected ~desired then begin
      persist_word t child_addr;
      (* injection done: the delete is now guaranteed to complete *)
      if cleanup t key sr then true else delete_cleanup t key leaf
    end
    else begin
      let w = Ralloc.load t.heap child_addr in
      if edge_ref ~holder:child_addr w = leaf && (flagged w || tagged w) then
        ignore (cleanup t key sr);
      delete_raw t key
    end
  end

let delete t key = guard t (fun () -> delete_raw t key)

let find t key =
  guard t (fun () ->
      let sr = seek t key in
      if key_of t sr.leaf = key && not (flagged sr.leaf_edge) then
        Some (Ralloc.load t.heap (value_word sr.leaf))
      else None)

let mem t key = find t key <> None

let iter f t =
  let load = Ralloc.load t.heap in
  (* [via] is the edge word [n] was reached through *)
  let rec walk n via =
    let lw = load (left_word n) in
    let l = edge_ref ~holder:(left_word n) lw in
    if l = 0 then begin
      (* leaf: report live client keys only *)
      let k = key_of t n in
      if k <= max_key && not (flagged via) then f k (load (value_word n))
    end
    else begin
      walk l lw;
      let rw = load (right_word n) in
      walk (edge_ref ~holder:(right_word n) rw) rw
    end
  in
  walk t.root 0

let size t =
  let n = ref 0 in
  iter (fun _ _ -> incr n) t;
  !n

let check_invariants t =
  let load = Ralloc.load t.heap in
  let rec walk n lo hi =
    let k = key_of t n in
    if not (lo <= k && k <= hi) then
      failwith (Printf.sprintf "Nmtree: key %d outside (%d, %d)" k lo hi);
    let l = edge_ref ~holder:(left_word n) (load (left_word n)) in
    let r = edge_ref ~holder:(right_word n) (load (right_word n)) in
    match (l, r) with
    | 0, 0 -> ()
    | 0, _ | _, 0 -> failwith "Nmtree: internal node with one child"
    | l, r ->
      (* left subtree strictly below k, right at or above *)
      walk l lo (k - 1);
      walk r k hi
  in
  walk t.root min_int max_int
