module Json = Ripple_util.Json

let us ~epoch t = Json.Float (1e6 *. (t -. epoch))

let span_event ~epoch (c : Span.closed) =
  Json.Obj
    [
      ("name", Json.String c.Span.name);
      ("cat", Json.String "ripple");
      ("ph", Json.String "X");
      ("ts", us ~epoch c.Span.start_s);
      ("dur", Json.Float (1e6 *. (c.Span.stop_s -. c.Span.start_s)));
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("args", Json.Obj [ ("path", Json.String c.Span.path) ]);
    ]

let counter_events (s : Metric.series) =
  Array.to_list
    (Array.map
       (fun (at, v) ->
         Json.Obj
           [
             ("name", Json.String s.Metric.s_name);
             ("cat", Json.String "ripple");
             ("ph", Json.String "C");
             ("ts", Json.Int at);
             ("pid", Json.Int 2);
             ("tid", Json.Int 0);
             ("args", Json.Obj [ ("value", Json.Float v) ]);
           ])
       (Metric.series_points s))

let process_meta ~pid name =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let trace_events run =
  let spans = Run.spans run in
  let epoch = Span.epoch spans in
  let span_events = List.map (span_event ~epoch) (Span.closed spans) in
  let series_events =
    List.concat_map
      (fun (_, cell) ->
        match cell with Registry.Series s -> counter_events s | _ -> [])
      (Registry.cells (Run.registry run))
  in
  let meta =
    [ process_meta ~pid:1 "ripple-sim"; process_meta ~pid:2 "ripple-sim (virtual time)" ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ span_events @ series_events));
      ("displayTimeUnit", Json.String "ms");
    ]

let chrome_trace run = Json.to_string (trace_events run) ^ "\n"

let write ~path run =
  let rendered = chrome_trace run in
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
  try
    let oc = open_out_bin tmp in
    output_string oc rendered;
    close_out oc;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
