type counter = { c_name : string; c_help : string; mutable count : int }
type gauge = { g_name : string; g_help : string; mutable value : float }

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;
  counts : int array;
  mutable sum : float;
  mutable observations : int;
}

type series = {
  s_name : string;
  s_help : string;
  mutable at : int array;
  mutable values : float array;
  mutable n : int;
}

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let set g v = g.value <- v

let observe h v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.observations <- h.observations + 1

let sample s ~at v =
  if s.n = Array.length s.at then begin
    let cap = max 16 (2 * s.n) in
    let at' = Array.make cap 0 and values' = Array.make cap 0.0 in
    Array.blit s.at 0 at' 0 s.n;
    Array.blit s.values 0 values' 0 s.n;
    s.at <- at';
    s.values <- values'
  end;
  s.at.(s.n) <- at;
  s.values.(s.n) <- v;
  s.n <- s.n + 1

let series_points s = Array.init s.n (fun i -> (s.at.(i), s.values.(i)))

(* OpenMetrics label-value escaping: backslash, double quote, newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labelled name labels =
  match labels with
  | [] -> name
  | labels ->
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

let family_of name = match String.index_opt name '{' with None -> name | Some i -> String.sub name 0 i
let labels_of name = match String.index_opt name '{' with None -> "" | Some i -> String.sub name i (String.length name - i)
