(* Seeded op streams for the pkvd benchmark and the model that predicts
   every reply.  The socket driver and the in-process replay both draw
   from here, so a seed names one op stream for both.

   Keys are partitioned by connection: int key k and string key i belong
   to connection [k land 1] / [i land 1].  pkvd keeps one connection's
   requests in FIFO order per key, so applying each op to the model at
   the moment it is generated predicts the reply the server must send. *)

let conns = 2

type op =
  | Get of int
  | Set of int * int
  | Del of int
  | Sget of int  (** string keys and values are named by index *)
  | Sset of int * int

type reply = Ok | Value of int | Svalue of int | Missing

type spec = {
  name : string;
  int_keys : int;  (** int key space [0, int_keys) *)
  int_preload : int;  (** how many of those keys the preload binds *)
  str_keys : int;
  str_preload : int;
  rate : float;  (** open-loop arrivals per second; 0 means closed loop *)
  draw : Random.State.t -> conn:int -> spec -> op;
}

(* a key of [n] owned by connection [conn] (key spaces are even) *)
let pick rs ~conn n = conn + (2 * Random.State.int rs (n / 2))
let value rs = Random.State.bits rs
let skey i = Printf.sprintf "user:%08d" i
let sval v = Printf.sprintf "%016x" v
let sval_index s = int_of_string ("0x" ^ s)

let churn =
  {
    name = "churn";
    int_keys = 100_000;
    int_preload = 50_000;
    str_keys = 0;
    str_preload = 0;
    rate = 0.;
    draw =
      (fun rs ~conn s ->
        let k = pick rs ~conn s.int_keys in
        if Random.State.bool rs then Set (k, value rs) else Del k);
  }

let read_only =
  {
    name = "read_only";
    int_keys = 100_000;
    int_preload = 100_000;
    str_keys = 0;
    str_preload = 0;
    rate = 0.;
    draw = (fun rs ~conn s -> Get (pick rs ~conn s.int_keys));
  }

let open_loop =
  {
    name = "open_loop";
    int_keys = 100_000;
    int_preload = 100_000;
    str_keys = 20_000;
    str_preload = 20_000;
    rate = 10_000.;
    draw =
      (fun rs ~conn s ->
        match Random.State.int rs 4 with
        | 0 -> Get (pick rs ~conn s.int_keys)
        | 1 -> Set (pick rs ~conn s.int_keys, value rs)
        | 2 -> Sget (pick rs ~conn s.str_keys)
        | _ -> Sset (pick rs ~conn s.str_keys, value rs));
  }

let workloads = [ churn; read_only; open_loop ]

let op_name = function
  | Get k -> Printf.sprintf "GET %d" k
  | Set (k, v) -> Printf.sprintf "SET %d %d" k v
  | Del k -> Printf.sprintf "DEL %d" k
  | Sget i -> "SGET " ^ skey i
  | Sset (i, v) -> Printf.sprintf "SSET %s %s" (skey i) (sval v)

let is_write = function Set _ | Del _ | Sset _ -> true | Get _ | Sget _ -> false
let owner = function Get k | Set (k, _) | Del k | Sget k | Sset (k, _) -> k land 1

(* ------------------------------- model --------------------------------- *)

let absent = -1

type model = { ints : int array; strs : int array }

let model spec =
  { ints = Array.make spec.int_keys absent; strs = Array.make spec.str_keys absent }

(* one int names a model slot: int key k is k, string key i is -(i+1) *)
let slot = function
  | Get k | Set (k, _) | Del k -> k
  | Sget i | Sset (i, _) -> -i - 1

let read m s = if s >= 0 then m.ints.(s) else m.strs.(-s - 1)
let write m s v = if s >= 0 then m.ints.(s) <- v else m.strs.(-s - 1) <- v

(* Apply [op] to the model and return the reply pkvd owes it. *)
let apply m op =
  let s = slot op in
  let cur = read m s in
  match op with
  | Get _ -> if cur = absent then Missing else Value cur
  | Sget _ -> if cur = absent then Missing else Svalue cur
  | Set (_, v) | Sset (_, v) ->
    write m s v;
    Ok
  | Del _ ->
    write m s absent;
    if cur = absent then Missing else Ok

(* The slot's value once a write has landed. *)
let post = function
  | Set (_, v) | Sset (_, v) -> v
  | Del _ -> absent
  | Get _ | Sget _ -> invalid_arg "Gen.post: not a write"

(* ------------------------------- streams ------------------------------- *)

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The preload binds a seeded random subset of each key space in a seeded
   random order.  Order matters: the Natarajan-Mittal tree is unbalanced,
   so ascending keys build a list.  Measured on a 2-core box, 100k
   ascending keys took 47 s to preload and then served 733 ops/s; the same
   keys shuffled took 1.5 s and served about 30k ops/s. *)
let preload spec ~seed =
  let rs = Random.State.make [| seed; 0x5eed |] in
  let ik = Array.init spec.int_keys Fun.id and sk = Array.init spec.str_keys Fun.id in
  shuffle rs ik;
  shuffle rs sk;
  let ops =
    Array.append
      (Array.init spec.int_preload (fun i -> Set (ik.(i), value rs)))
      (Array.init spec.str_preload (fun i -> Sset (sk.(i), value rs)))
  in
  shuffle rs ops;
  Array.init conns (fun c -> List.filter (fun op -> owner op = c) (Array.to_list ops))

(* Connection [conn]'s endless op stream. *)
let stream spec ~seed ~conn =
  let rs = Random.State.make [| seed; conn; 0x0b5 |] in
  fun () -> spec.draw rs ~conn spec

(* Open-loop arrivals: (gap to the next arrival in ns, its connection). *)
let arrivals spec ~seed =
  let rs = Random.State.make [| seed; 0xa77 |] in
  fun () ->
    let u = Random.State.float rs 1.0 in
    let gap = -.log (1.0 -. u) /. spec.rate in
    (int_of_float (gap *. 1e9), Random.State.int rs conns)
