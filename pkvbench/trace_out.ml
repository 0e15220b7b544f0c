(* Chrome trace_event JSON of the traced run: one complete event per
   client request (track = connection, from due time to reply, with the
   send lag as an argument) and one per replayed layer call. *)

let write path ~(client : Client.span list) ~(replay : Replay.span list) =
  let client = List.rev client in
  let oc = open_out path in
  let first = ref true in
  let event fmt =
    output_string oc (if !first then "[\n" else ",\n");
    first := false;
    Printf.fprintf oc fmt
  in
  let t0 =
    match (client, replay) with
    | s :: _, _ -> s.s_due
    | [], (_, t, _) :: _ -> t
    | [], [] -> 0
  in
  let us ns = float_of_int (ns - t0) /. 1000. in
  List.iter
    (fun (s : Client.span) ->
      event
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"lag_us\":%.3f}}"
        Replay.kinds.(Replay.kind s.s_op) s.s_conn (us s.s_due)
        (float_of_int (s.s_done - s.s_due) /. 1000.)
        (float_of_int (s.s_sent - s.s_due) /. 1000.))
    client;
  List.iter
    (fun (name, t, d) ->
      event "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}" name (us t)
        (float_of_int d /. 1000.))
    replay;
  output_string oc (if !first then "[]\n" else "\n]\n");
  close_out oc
