module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Geometry = Ripple_cache.Geometry
module Json = Ripple_util.Json

type provenance = { block : int; line : Addr.line; probability : float; windows : int }

type hint_counts = {
  total : int;
  safe_dead : int;
  safe_pressure : int;
  harmful : int;
  redundant : int;
}

let no_hints = { total = 0; safe_dead = 0; safe_pressure = 0; harmful = 0; redundant = 0 }

type proof_counts = {
  proved_noop : int;
  proved_dead : int;
  proved_persistent : int;
  proved_pressure : int;
  proved_harmful : int;
  unproved : int;
  disagreements : int;
}

let no_proofs =
  {
    proved_noop = 0;
    proved_dead = 0;
    proved_persistent = 0;
    proved_pressure = 0;
    proved_harmful = 0;
    unproved = 0;
    disagreements = 0;
  }

let proved_safe p = p.proved_dead + p.proved_persistent + p.proved_pressure

type summary = {
  findings : Finding.t list;
  errors : int;
  warnings : int;
  infos : int;
  hints : hint_counts;
  proofs : proof_counts;
  abstract : Abs_cache.summary option;
  structural_gate : bool;
}

let footprint_lines blocks =
  let lines = Hashtbl.create 4096 in
  Array.iter
    (fun b -> List.iter (fun l -> Hashtbl.replace lines l ()) (Basic_block.lines b))
    blocks;
  lines

let provenance_clause = function
  | Some p ->
    Printf.sprintf " (injected at P=%.2f over %d windows)" p.probability p.windows
  | None -> ""

let hint_findings ~geometry ~provenance ~entry ~abs blocks =
  let footprint = footprint_lines blocks in
  (* Each hint's provenance by (block, line); the first record wins. *)
  let provenance_of = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if not (Hashtbl.mem provenance_of (p.block, p.line)) then
        Hashtbl.add provenance_of (p.block, p.line) p)
    provenance;
  let classified = Invalidation_check.classify ~geometry ~entry blocks in
  let counts = ref no_hints in
  let proofs = ref no_proofs in
  let findings = ref [] in
  List.iter
    (fun ((s : Invalidation_check.site), c) ->
      let verdict =
        Abs_cache.prove abs ~block:s.Invalidation_check.block
          ~index:s.Invalidation_check.index
      in
      (proofs :=
         (let p = !proofs in
          match verdict with
          | Abs_cache.Proved_noop -> { p with proved_noop = p.proved_noop + 1 }
          | Abs_cache.Proved_dead -> { p with proved_dead = p.proved_dead + 1 }
          | Abs_cache.Proved_persistent ->
            { p with proved_persistent = p.proved_persistent + 1 }
          | Abs_cache.Proved_pressure -> { p with proved_pressure = p.proved_pressure + 1 }
          | Abs_cache.Proved_harmful -> { p with proved_harmful = p.proved_harmful + 1 }
          | Abs_cache.Unproved -> { p with unproved = p.unproved + 1 }));
      if Invalidation_check.disagreement c verdict then begin
        proofs := { !proofs with disagreements = !proofs.disagreements + 1 };
        findings :=
          Finding.v Finding.Error Finding.Classifier_disagreement
            ~block:s.Invalidation_check.block ~line:s.Invalidation_check.line
            (Printf.sprintf
               "classifier disagreement: path search says %s but the abstract proof says \
                %s — one of the two analyses is wrong about this hint"
               (Invalidation_check.classification_name c)
               (Abs_cache.verdict_name verdict))
          :: !findings
      end;
      let prov =
        Hashtbl.find_opt provenance_of (s.Invalidation_check.block, s.Invalidation_check.line)
      in
      let why = provenance_clause prov in
      let verb = if s.Invalidation_check.demote then "demotion" else "invalidation" in
      let n = !counts in
      counts := { n with total = n.total + 1 };
      (match c with
      | Invalidation_check.Safe_dead -> counts := { !counts with safe_dead = !counts.safe_dead + 1 }
      | Invalidation_check.Safe_pressure ->
        counts := { !counts with safe_pressure = !counts.safe_pressure + 1 }
      | Invalidation_check.Harmful { reuse_block; conflicts } ->
        counts := { !counts with harmful = !counts.harmful + 1 };
        (* A statically cheap path back to the line is indistinguishable
           from the loop-carried reuse Ripple deliberately targets (the
           line is live in the CFG, dead in the profile).  Profile
           provenance is the tie-breaker: with quoted evidence the
           finding is a [Warning] to audit; an unjustified hint — no
           provenance at all — is an [Error].  Demotions never error:
           the line survives until a genuine conflict arrives. *)
        let severity =
          if s.Invalidation_check.demote || prov <> None then Finding.Warning
          else Finding.Error
        in
        findings :=
          Finding.v severity Finding.Harmful_invalidation ~block:s.Invalidation_check.block
            ~line:s.Invalidation_check.line
            (Printf.sprintf
               "harmful %s: line re-referenced by bb%d after only %d same-set conflict(s) — \
                likely hit-to-miss conversion%s"
               verb reuse_block conflicts why)
          :: !findings
      | Invalidation_check.Redundant { earlier } ->
        counts := { !counts with redundant = !counts.redundant + 1 };
        findings :=
          Finding.v Finding.Warning Finding.Redundant_invalidation
            ~block:s.Invalidation_check.block ~line:s.Invalidation_check.line
            (Printf.sprintf
               "redundant %s: dominated by the hint in bb%d with no intervening reference%s"
               verb earlier why)
          :: !findings);
      if not (Hashtbl.mem footprint s.Invalidation_check.line) then
        findings :=
          Finding.v Finding.Warning Finding.Hint_outside_footprint
            ~block:s.Invalidation_check.block ~line:s.Invalidation_check.line
            (Printf.sprintf "%s operand is not a line of the program text%s" verb why)
          :: !findings)
    classified;
  (List.rev !findings, !counts, !proofs)

let order findings =
  (* Severity-descending, then by anchor block, stable within. *)
  List.stable_sort
    (fun (a : Finding.t) b ->
      match compare (Finding.severity_rank b.Finding.severity) (Finding.severity_rank a.Finding.severity) with
      | 0 ->
        compare
          (Option.value a.Finding.block ~default:(-1))
          (Option.value b.Finding.block ~default:(-1))
      | c -> c)
    findings

let summarize ~hints ~proofs ~abstract ~structural_gate findings =
  let findings = order findings in
  let count sev =
    List.length (List.filter (fun f -> f.Finding.severity = sev) findings)
  in
  {
    findings;
    errors = count Finding.Error;
    warnings = count Finding.Warning;
    infos = count Finding.Info;
    hints;
    proofs;
    abstract;
    structural_gate;
  }

let check_blocks ?(geometry = Geometry.l1i) ?aligned ?(provenance = []) ?exec_counts ?obs
    ~entry blocks =
  let layer name f =
    match obs with
    | None -> f ()
    | Some o -> Ripple_obs.Span.with_span (Ripple_obs.Run.spans o) name f
  in
  let structural = layer "structural" (fun () -> Cfg.check ~entry ?aligned blocks) in
  let structural_errors =
    List.exists (fun f -> f.Finding.severity = Finding.Error) structural
  in
  if structural_errors then
    summarize ~hints:no_hints ~proofs:no_proofs ~abstract:None ~structural_gate:true
      structural
  else begin
    let abs = layer "abstract" (fun () -> Abs_cache.analyze ~geometry ~entry blocks) in
    let abstract = Some (Abs_cache.summarize ?exec_counts abs) in
    let hint_fs, hints, proofs =
      layer "hints" (fun () -> hint_findings ~geometry ~provenance ~entry ~abs blocks)
    in
    summarize ~hints ~proofs ~abstract ~structural_gate:false (structural @ hint_fs)
  end

let check_program ?geometry ?provenance ?exec_counts ?obs program =
  check_blocks ?geometry ~aligned:(Program.aligned program) ?provenance ?exec_counts ?obs
    ~entry:(Program.entry program) (Program.blocks program)

let max_severity t = Finding.max_severity t.findings

let exit_code t =
  match max_severity t with
  | Some Finding.Error -> 2
  | Some Finding.Warning -> 1
  | Some Finding.Info | None -> 0

let hints_to_json h =
  Json.Obj
    [
      ("total", Json.Int h.total);
      ("safe_dead", Json.Int h.safe_dead);
      ("safe_pressure", Json.Int h.safe_pressure);
      ("harmful", Json.Int h.harmful);
      ("redundant", Json.Int h.redundant);
    ]

let proofs_to_json p =
  Json.Obj
    [
      ("proved_noop", Json.Int p.proved_noop);
      ("proved_dead", Json.Int p.proved_dead);
      ("proved_persistent", Json.Int p.proved_persistent);
      ("proved_pressure", Json.Int p.proved_pressure);
      ("proved_harmful", Json.Int p.proved_harmful);
      ("unproved", Json.Int p.unproved);
      ("disagreements", Json.Int p.disagreements);
    ]

let to_json t =
  Json.Obj
    [
      ("errors", Json.Int t.errors);
      ("warnings", Json.Int t.warnings);
      ("infos", Json.Int t.infos);
      ("hints", hints_to_json t.hints);
      ("proofs", proofs_to_json t.proofs);
      ("structural_gate", Json.Bool t.structural_gate);
      ( "abstract",
        match t.abstract with
        | Some a -> Abs_cache.summary_to_json a
        | None -> Json.Null );
      ("findings", Json.List (List.map Finding.to_json t.findings));
    ]

let pp fmt t =
  (* Info findings (orphan blocks on generated CFGs number in the
     hundreds) are folded into the trailer count; the JSON form keeps
     every finding. *)
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.severity <> Finding.Info then Format.fprintf fmt "%a@." Finding.pp f)
    t.findings;
  Format.fprintf fmt
    "@[%d error(s), %d warning(s), %d info(s); hints: %d total, %d safe (dead), %d safe \
     (pressure), %d harmful, %d redundant; proofs: %d safe, %d noop, %d harmful, %d \
     unproved, %d disagreement(s)%s@]"
    t.errors t.warnings t.infos t.hints.total t.hints.safe_dead t.hints.safe_pressure
    t.hints.harmful t.hints.redundant (proved_safe t.proofs) t.proofs.proved_noop
    t.proofs.proved_harmful t.proofs.unproved t.proofs.disagreements
    (if t.structural_gate then " [semantic layers skipped: structural errors]" else "")
