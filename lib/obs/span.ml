type closed = {
  path : string;
  name : string;
  depth : int;
  seq : int;
  start_s : float;
  stop_s : float;
}

type open_span = { o_name : string; o_path : string; o_seq : int; o_start : float }

type t = {
  epoch : float;
  mutable last : float;  (* monotonicity clamp *)
  mutable stack : open_span list;
  mutable closed_rev : closed list;
  mutable n_closed : int;
  mutable n_opened : int;
}

let create () =
  let t0 = Unix.gettimeofday () in
  { epoch = t0; last = t0; stack = []; closed_rev = []; n_closed = 0; n_opened = 0 }

let now t =
  let v = Unix.gettimeofday () in
  if v > t.last then t.last <- v;
  t.last

let epoch t = t.epoch

let enter t name =
  let path =
    match t.stack with [] -> name | parent :: _ -> parent.o_path ^ "/" ^ name
  in
  t.stack <- { o_name = name; o_path = path; o_seq = t.n_opened; o_start = now t } :: t.stack;
  t.n_opened <- t.n_opened + 1

let exit t =
  match t.stack with
  | [] -> invalid_arg "Ripple_obs.Span.exit: no open span"
  | s :: rest ->
    t.stack <- rest;
    t.closed_rev <-
      {
        path = s.o_path;
        name = s.o_name;
        depth = List.length rest;
        seq = s.o_seq;
        start_s = s.o_start;
        stop_s = now t;
      }
      :: t.closed_rev;
    t.n_closed <- t.n_closed + 1

let with_span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> exit t) f

let open_spans t = List.length t.stack
let opened_total t = t.n_opened

let closed t =
  List.sort (fun a b -> compare a.seq b.seq) (List.rev t.closed_rev)

let paths t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Hashtbl.replace counts c.path
        (1 + Option.value (Hashtbl.find_opt counts c.path) ~default:0))
    t.closed_rev;
  Hashtbl.fold (fun path n acc -> (path, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
