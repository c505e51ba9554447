module Json = Ripple_util.Json

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }
  | Series of (int * float) array

type t = { metrics : (string * value) list; spans : (string * int) list }

let empty = { metrics = []; spans = [] }

let value_of_cell = function
  | Registry.Counter c -> Counter c.Metric.count
  | Registry.Gauge g -> Gauge g.Metric.value
  | Registry.Histogram h ->
    Histogram
      {
        bounds = Array.copy h.Metric.bounds;
        counts = Array.copy h.Metric.counts;
        sum = h.Metric.sum;
        count = h.Metric.observations;
      }
  | Registry.Series s -> Series (Metric.series_points s)

let v ~registry ~spans =
  {
    metrics = List.map (fun (name, cell) -> (name, value_of_cell cell)) (Registry.cells registry);
    spans = Span.paths spans;
  }

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y
  | Histogram h1, Histogram h2 ->
    if h1.bounds <> h2.bounds then
      invalid_arg
        (Printf.sprintf "Ripple_obs.Snapshot.merge: histogram %S bucket bounds differ" name);
    Histogram
      {
        bounds = h1.bounds;
        counts = Array.map2 ( + ) h1.counts h2.counts;
        sum = h1.sum +. h2.sum;
        count = h1.count + h2.count;
      }
  | Series xs, Series ys -> Series (Array.append xs ys)
  | _ ->
    invalid_arg (Printf.sprintf "Ripple_obs.Snapshot.merge: metric %S changes type" name)

(* Merge two name-sorted association lists, combining values on name
   collision.  Both inputs are sorted (the [v]/[merge] invariant), so
   this is a linear zip. *)
let rec merge_sorted combine xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (nx, vx) :: tx, (ny, vy) :: ty ->
    let c = String.compare nx ny in
    if c = 0 then (nx, combine nx vx vy) :: merge_sorted combine tx ty
    else if c < 0 then (nx, vx) :: merge_sorted combine tx ys
    else (ny, vy) :: merge_sorted combine xs ty

let merge a b =
  {
    metrics = merge_sorted merge_value a.metrics b.metrics;
    spans = merge_sorted (fun _ x y -> x + y) a.spans b.spans;
  }

let value_to_json = function
  | Counter n -> Json.Int n
  | Gauge v -> Json.Float v
  | Histogram h ->
    Json.Obj
      [
        ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
        ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
        ("sum", Json.Float h.sum);
        ("count", Json.Int h.count);
      ]
  | Series points ->
    Json.List
      (Array.to_list
         (Array.map (fun (at, v) -> Json.List [ Json.Int at; Json.Float v ]) points))

let to_json t =
  Json.Obj
    [
      ("metrics", Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) t.metrics));
      ("spans", Json.Obj (List.map (fun (path, n) -> (path, Json.Int n)) t.spans));
    ]

(* OpenMetrics wants a decimal rendering; reuse the JSON float printer
   so equal values render identically everywhere. *)
let float_str v = Json.to_string (Json.Float v)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ | Series _ -> "gauge"
  | Histogram _ -> "histogram"

(* Merge [extra] (e.g. [le="0.5"]) into a rendered label set: [""] gains
   braces, [{k="v"}] gains a trailing [,extra]. *)
let with_label labels extra =
  if labels = "" then Printf.sprintf "{%s}" extra
  else Printf.sprintf "%s,%s}" (String.sub labels 0 (String.length labels - 1)) extra

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  (* Metrics are name-sorted, and a family is never both labeled and
     unlabeled, so every family's cells are contiguous: one [# TYPE]
     line opens each group. *)
  let current = ref "" in
  List.iter
    (fun (name, value) ->
      let family = Metric.family_of name in
      let labels = Metric.labels_of name in
      if family <> !current then begin
        current := family;
        line "# TYPE %s %s" family (kind_name value)
      end;
      match value with
      | Counter n -> line "%s_total%s %d" family labels n
      | Gauge v -> line "%s%s %s" family labels (float_str v)
      | Histogram h ->
        let cumulative = ref 0 in
        Array.iteri
          (fun i c ->
            cumulative := !cumulative + c;
            let le =
              if i < Array.length h.bounds then float_str h.bounds.(i) else "+Inf"
            in
            line "%s_bucket%s %d" family
              (with_label labels (Printf.sprintf "le=\"%s\"" le))
              !cumulative)
          h.counts;
        line "%s_sum%s %s" family labels (float_str h.sum);
        line "%s_count%s %d" family labels h.count
      | Series points ->
        let last =
          if Array.length points = 0 then 0.0 else snd points.(Array.length points - 1)
        in
        line "%s%s %s" family labels (float_str last))
    t.metrics;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
