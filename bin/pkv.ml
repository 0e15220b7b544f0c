(* pkv: a crash-safe persistent key-value store CLI backed by Ralloc.

   The store is a Natarajan-Mittal tree in a file-backed persistent heap;
   every invocation re-opens the heap (recovering first if the previous
   process died dirty), performs one operation, and closes cleanly.

     pkv set 10 42          # store 10 -> 42
     pkv get 10
     pkv del 10
     pkv list
     pkv stats
     pkv crash-test         # die without closing, to exercise recovery
     pkv sset name claude   # string store (a persistent hash map)
     pkv sget name
     pkv sdel name
   Use --heap PATH to choose the store; the default is per-user
   ($PKV_HEAP, else $XDG_RUNTIME_DIR/pkv-heap, else /tmp/pkv-heap-$USER)
   so two users on one machine cannot corrupt each other's heap. *)

(* Two structures share the heap: an ordered int store (NM tree, root 0)
   and a string store (persistent hash map, root 1) — see
   Server.Store, which pkvd shares. *)
let open_store path =
  let st = Server.Store.open_store path in
  (match st.recovery with
  | Some r ->
    Printf.eprintf
      "pkv: previous run did not close cleanly; recovered %d blocks in %.3fs\n"
      r.reachable_blocks
      (r.trace_seconds +. r.rebuild_seconds)
  | None -> ());
  (st.heap, st.tree, st.smap)

let cmd_set path key value =
  let heap, store, _ = open_store path in
  ignore (Dstruct.Nmtree.set store key value);
  Printf.printf "%d -> %d\n" key value;
  Ralloc.close heap

let cmd_get path key =
  let heap, store, _ = open_store path in
  (match Dstruct.Nmtree.find store key with
  | Some v -> Printf.printf "%d\n" v
  | None ->
    Printf.eprintf "key %d not found\n" key;
    Ralloc.close heap;
    exit 1);
  Ralloc.close heap

let cmd_del path key =
  let heap, store, _ = open_store path in
  let existed = Dstruct.Nmtree.delete store key in
  Ralloc.close heap;
  if not existed then begin
    Printf.eprintf "key %d not found\n" key;
    exit 1
  end

let cmd_list path =
  let heap, store, _ = open_store path in
  Dstruct.Nmtree.iter (fun k v -> Printf.printf "%d -> %d\n" k v) store;
  Ralloc.close heap

let cmd_stats path =
  let heap, store, strings = open_store path in
  let s = Ralloc.stats heap in
  Printf.printf "entries:   %d int, %d string\n" (Dstruct.Nmtree.size store)
    (Dstruct.Phashmap.length strings);
  Printf.printf "capacity:  %d bytes\n" (Ralloc.capacity_bytes heap);
  Printf.printf "flushes:   %d (this session)\n" s.flushes;
  Printf.printf "fences:    %d\n" s.fences;
  Printf.printf "cas ops:   %d\n" s.cas_ops;
  Ralloc.close heap

let cmd_crash_test path n =
  let _heap, store, _ = open_store path in
  for i = 0 to n - 1 do
    ignore (Dstruct.Nmtree.insert store (1_000_000 + i) i)
  done;
  Printf.printf
    "inserted %d keys starting at 1000000 and exiting WITHOUT close();\n\
     the next pkv command will run recovery.\n"
    n;
  exit 0 (* no close: leaves the dirty flag set *)

let cmd_sset path key value =
  let heap, _, strings = open_store path in
  ignore (Dstruct.Phashmap.set strings key value);
  Printf.printf "%s -> %s\n" key value;
  Ralloc.close heap

let cmd_sget path key =
  let heap, _, strings = open_store path in
  (match Dstruct.Phashmap.get strings key with
  | Some v -> print_endline v
  | None ->
    Printf.eprintf "key %s not found\n" key;
    Ralloc.close heap;
    exit 1);
  Ralloc.close heap

let cmd_sdel path key =
  let heap, _, strings = open_store path in
  let existed = Dstruct.Phashmap.delete strings key in
  Ralloc.close heap;
  if not existed then begin
    Printf.eprintf "key %s not found\n" key;
    exit 1
  end

let cmd_slist path =
  let heap, _, strings = open_store path in
  Dstruct.Phashmap.iter (fun k v -> Printf.printf "%s -> %s\n" k v) strings;
  Ralloc.close heap

open Cmdliner

let heap_arg =
  Arg.(
    value
    & opt string (Server.Heap_path.default_heap ())
    & info [ "heap" ] ~docv:"PATH" ~doc:"Heap file path prefix.")

let key_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"KEY")
let value_arg = Arg.(required & pos 1 (some int) None & info [] ~docv:"VALUE")

let skey_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY")

let svalue_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE")

let cmds =
  [
    Cmd.v (Cmd.info "set" ~doc:"Store KEY -> VALUE durably.")
      Term.(const cmd_set $ heap_arg $ key_arg $ value_arg);
    Cmd.v (Cmd.info "get" ~doc:"Print the value bound to KEY.")
      Term.(const cmd_get $ heap_arg $ key_arg);
    Cmd.v (Cmd.info "del" ~doc:"Delete KEY.")
      Term.(const cmd_del $ heap_arg $ key_arg);
    Cmd.v (Cmd.info "list" ~doc:"List all entries in key order.")
      Term.(const cmd_list $ heap_arg);
    Cmd.v (Cmd.info "stats" ~doc:"Show store statistics.")
      Term.(const cmd_stats $ heap_arg);
    Cmd.v (Cmd.info "sset" ~doc:"Store a string binding durably.")
      Term.(const cmd_sset $ heap_arg $ skey_arg $ svalue_arg);
    Cmd.v (Cmd.info "sget" ~doc:"Print the string bound to KEY.")
      Term.(const cmd_sget $ heap_arg $ skey_arg);
    Cmd.v (Cmd.info "sdel" ~doc:"Delete a string binding.")
      Term.(const cmd_sdel $ heap_arg $ skey_arg);
    Cmd.v (Cmd.info "slist" ~doc:"List string bindings.")
      Term.(const cmd_slist $ heap_arg);
    Cmd.v
      (Cmd.info "crash-test"
         ~doc:"Insert keys and exit without closing, to exercise recovery.")
      Term.(
        const cmd_crash_test $ heap_arg
        $ Arg.(value & pos 0 int 100 & info [] ~docv:"N"));
  ]

let () =
  let info = Cmd.info "pkv" ~doc:"Crash-safe persistent key-value store" in
  exit (Cmd.eval (Cmd.group info cmds))
