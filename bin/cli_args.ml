(* Shared cmdliner vocabulary for ripple-sim subcommands.

   One definition per concept: the application, prefetcher and policy
   converters (the latter two driven by the live registries, so a policy
   added to {!Ripple_cache.Registry} is immediately accepted — and
   documented — everywhere), plus the argument bundles every subcommand
   reuses.  Subcommands never roll their own parsers. *)

module W = Ripple_workloads
module Registry = Ripple_cache.Registry
module Pipeline = Ripple_core.Pipeline
open Cmdliner

let app_conv =
  let parse s =
    match W.Apps.by_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown application %S (known: %s)" s
             (String.concat ", " (List.map (fun m -> m.W.App_model.name) W.Apps.all))))
  in
  let print fmt (m : W.App_model.t) = Format.fprintf fmt "%s" m.W.App_model.name in
  Arg.conv (parse, print)

let prefetch_conv =
  let parse = function
    | "none" -> Ok Pipeline.No_prefetch
    | "nlp" -> Ok Pipeline.Nlp
    | "fdip" -> Ok Pipeline.Fdip
    | s -> Error (`Msg (Printf.sprintf "unknown prefetcher %S (none|nlp|fdip)" s))
  in
  let print fmt p = Format.fprintf fmt "%s" (Pipeline.prefetch_name p) in
  Arg.conv (parse, print)

(* The policy vocabulary (parser and help text) comes from the one
   registry, so a policy added there is immediately accepted here.
   Names parse case-insensitively to the registry's lowercase name,
   which is what JSONL rows record. *)
let policy_conv =
  let parse s =
    match Registry.find s with
    | Some e -> Ok e.Registry.name
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown policy %S (known: %s)" s
             (String.concat ", " Registry.names)))
  in
  let print fmt name = Format.fprintf fmt "%s" name in
  Arg.conv (parse, print)

let policy_doc =
  "Replacement policy.  Known: "
  ^ String.concat "; "
      (List.map
         (fun e -> Printf.sprintf "$(b,%s) (%s)" e.Registry.name e.Registry.description)
         Registry.all)
  ^ "."

let app_arg =
  Arg.(
    required
    & opt (some app_conv) None
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application model (see $(b,ripple-sim apps)).")

let app_pos_arg =
  Arg.(
    required
    & pos 0 (some app_conv) None
    & info [] ~docv:"APP" ~doc:"Application model (see $(b,ripple-sim apps)).")

let apps_arg ~verb =
  Arg.(
    value
    & opt (list app_conv) W.Apps.all
    & info [ "apps" ] ~docv:"APP,.."
        ~doc:(Printf.sprintf "Applications to %s (comma-separated; default: all nine)." verb))

let prefetch_arg =
  Arg.(
    value
    & opt prefetch_conv Pipeline.Fdip
    & info [ "p"; "prefetch" ] ~docv:"PF" ~doc:"Prefetcher: none, nlp or fdip.")

let policy_arg =
  Arg.(value & opt policy_conv "lru" & info [ "policy" ] ~docv:"POLICY" ~doc:policy_doc)

let instrs_arg =
  Arg.(
    value
    & opt int 2_000_000
    & info [ "n"; "instrs" ] ~docv:"N" ~doc:"Trace length in instructions.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the runtime's recommended domain count).  Results are \
           identical for every $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's merged metric snapshot to $(docv) as OpenMetrics text \
           (deterministic: byte-identical across $(b,--jobs) values).")

let backing_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Ripple_util.Int_stream.backing_of_string s)
  in
  let print fmt b = Format.fprintf fmt "%s" (Ripple_util.Int_stream.backing_name b) in
  Arg.conv (parse, print)

let backing_arg =
  Arg.(
    value
    & opt backing_conv Ripple_util.Int_stream.Heap
    & info [ "backing" ] ~docv:"BACKING"
        ~doc:
          "Access-stream storage: $(b,heap) keeps recorded streams and Belady tables in \
           memory; $(b,mmap) writes them through to unlinked temp files so paper-scale \
           traces run in bounded heap.  Results are byte-identical either way.")

(* Rejects values below 1 as a usage error naming the flag, as
   [geometry_term] does for --ways and --sets. *)
let positive flag arg =
  Term.term_result
    Term.(
      const (fun n -> if n < 1 then Error (`Msg (flag ^ " must be positive")) else Ok n) $ arg)

(* Geometry bundle: one --sets/--ways/--line vocabulary for every
   subcommand that analyses or simulates a cache, defaulting to
   {!Ripple_cache.Geometry.l1i} (64 sets, 8 ways, 64-byte lines —
   32 KiB).  The line size is fixed by the ISA's address arithmetic
   ({!Ripple_isa.Addr.line_size}); the flag exists so scripts state
   their assumption explicitly and get a hard error if it drifts. *)
let sets_arg =
  Arg.(
    value
    & opt int 64
    & info [ "sets" ] ~docv:"N" ~doc:"Cache set count (positive power of two; default 64).")

let ways_arg =
  Arg.(
    value & opt int 8 & info [ "ways" ] ~docv:"N" ~doc:"Cache associativity (default 8).")

let line_arg =
  Arg.(
    value
    & opt int Ripple_isa.Addr.line_size
    & info [ "line" ] ~docv:"BYTES"
        ~doc:
          (Printf.sprintf "Cache-line size in bytes (the ISA fixes this at %d)."
             Ripple_isa.Addr.line_size))

let geometry_term =
  Term.term_result
    Term.(
      const (fun sets ways line ->
          if line <> Ripple_isa.Addr.line_size then
            Error
              (`Msg
                (Printf.sprintf "--line must be %d: the ISA's address arithmetic fixes the \
                                 line size" Ripple_isa.Addr.line_size))
          else if ways <= 0 then Error (`Msg "--ways must be positive")
          else if sets <= 0 || sets land (sets - 1) <> 0 then
            Error (`Msg "--sets must be a positive power of two")
          else
            match Ripple_cache.Geometry.v ~size_bytes:(sets * ways * line) ~ways with
            | g -> Ok g
            | exception Invalid_argument m -> Error (`Msg m))
      $ sets_arg $ ways_arg $ line_arg)

let threshold_arg =
  Arg.(
    value
    & opt float 0.55
    & info [ "t"; "threshold" ] ~docv:"P" ~doc:"Invalidation threshold in [0,1].")

(* Writes already-rendered output (OpenMetrics text, a JSON report) to
   [path], truncating it. *)
let write_text path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc
