(* The benchmark program: runs one workload for a given seed and time,
   checks its outputs, and prints its metrics.  run.py builds it and
   passes the machine facts it cannot see itself (build profile,
   commit).

     perfbench --workload verify|sweep|serve --seed N --seconds S
               --trace 0|1 --cli PATH [--size full|tiny]
               [--profile P] [--commit C] [--source S]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it is the
   full results record (seed, machine facts, output digest, checks,
   sample counts).  Exit code 0 when every output check passed, 1 when
   one failed, 2 when the run could not complete. *)

module Json = Ripple_util.Json

let usage () =
  prerr_endline
    "usage: perfbench --workload verify|sweep|serve --seed N --seconds S --trace 0|1 --cli PATH \
     [--size full|tiny] [--profile P] [--commit C] [--source S]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg ?default name =
    match (Hashtbl.find_opt args name, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()
  in
  let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage () in
  let workload = arg "workload" in
  let seed = int_arg "seed" in
  let trace = match arg "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let size =
    match arg ~default:"full" "size" with "full" -> Ctx.Full | "tiny" -> Ctx.Tiny | _ -> usage ()
  in
  let seconds = match float_of_string_opt (arg "seconds") with Some s -> s | None -> usage () in
  let run =
    match workload with
    | "verify" -> Wl_verify.run
    | "sweep" -> Wl_sweep.run
    | "serve" -> Wl_serve.run
    | _ -> usage ()
  in
  let run_dir =
    Filename.concat ".perfbench" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir run_dir 0o755;
  let ctx = { Ctx.seed; seconds; size; cli = arg "cli"; run_dir } in
  let cleanup () =
    Wl_serve.kill_live ();
    Ctx.kill_child ();
    Ctx.rm_rf run_dir;
    try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ()
  in
  let interrupted _ =
    cleanup ();
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let result =
    match run ~trace ctx with
    | r ->
      cleanup ();
      r
    | exception e ->
      cleanup ();
      Printf.eprintf "perfbench: %s workload failed: %s\n%!" workload (Printexc.to_string e);
      exit 2
  in
  let catalogue = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  let value name = Option.value (List.assoc_opt name result.Catalogue.metrics) ~default:0.0 in
  let correct = result.Catalogue.failed = 0 && List.for_all snd result.Catalogue.checks in
  List.iter
    (fun (name, unit) -> Printf.printf "%-32s %16.6f %s\n" name (value name) unit)
    catalogue;
  List.iter
    (fun (name, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" name)
    result.Catalogue.checks;
  let metrics =
    Json.Obj
      (List.map
         (fun (name, unit) ->
           (name, Json.Obj [ ("value", Json.Float (value name)); ("unit", Json.String unit) ]))
         catalogue)
  in
  let record =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("trace", Json.Bool trace);
        ("seconds", Json.Float seconds);
        ("size", Json.String (match size with Ctx.Full -> "full" | Ctx.Tiny -> "tiny"));
        ( "machine",
          Json.Obj
            [
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("profile", Json.String (arg ~default:"unknown" "profile"));
              ("commit", Json.String (arg ~default:"unknown" "commit"));
              ("source", Json.String (arg ~default:"unknown" "source"));
            ] );
        ("digest", Json.String result.Catalogue.digest);
        ( "checks",
          Json.List
            (List.map
               (fun (name, ok) -> Json.Obj [ ("check", Json.String name); ("ok", Json.Bool ok) ])
               result.Catalogue.checks) );
        ( "samples",
          Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) result.Catalogue.samples) );
        ("ops_ms", Json.List (List.map (fun x -> Json.Float x) result.Catalogue.ops_ms));
        ("metrics", metrics);
      ]
  in
  print_endline (Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int result.Catalogue.attempted);
            ("failed", Json.Int result.Catalogue.failed);
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)
