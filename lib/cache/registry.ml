type entry = {
  name : string;
  display : string;
  description : string;
  storage_note : string;
  factory : seed:int -> Policy.factory;
}

let all =
  [
    {
      name = "lru";
      display = "LRU";
      description = "least-recently-used, the baseline of every experiment";
      storage_note = "1 bit per line";
      factory = (fun ~seed:_ -> Lru.make);
    };
    {
      name = "ghrp";
      display = "GHRP";
      description = "global history reuse predictor (Ajorpaz et al. 2018)";
      storage_note = "3 KiB tables, dead bits, signatures, history";
      factory = (fun ~seed:_ -> Ghrp.make);
    };
    {
      name = "srrip";
      display = "SRRIP";
      description = "static re-reference interval prediction (Jaleel et al. 2010)";
      storage_note = "2 bits per line";
      factory = (fun ~seed:_ -> Rrip.srrip);
    };
    {
      name = "drrip";
      display = "DRRIP";
      description = "set-dueling SRRIP/bimodal insertion (Jaleel et al. 2010)";
      storage_note = "2 bits per line + PSEL";
      factory = (fun ~seed:_ -> Rrip.drrip);
    };
    {
      name = "ship";
      display = "SHiP";
      description = "signature-based hit prediction (Wu et al. 2011)";
      storage_note = "SHCT counters + 2 bits per line";
      factory = (fun ~seed:_ -> Rrip.ship);
    };
    {
      name = "hawkeye";
      display = "Hawkeye/Harmony";
      description = "Hawkeye/Harmony: OPTgen sampling + PC predictor (Jain & Lin 2016)";
      storage_note = "sampler, occupancy vectors, predictor, RRIP counters";
      factory = (fun ~seed:_ -> Hawkeye.make ~ehc:false);
    };
    {
      name = "trrip";
      display = "TRRIP";
      description = "temperature-based RRIP for I-caches (Kao et al. 2025)";
      storage_note = "2 bits per line + 1 KiB temperature table + PSEL";
      factory = (fun ~seed:_ -> Rrip.trrip);
    };
    {
      name = "ehc-hawkeye";
      display = "EHC-Hawkeye";
      description = "expected-hit-count victim refinement over Hawkeye (Vakil-Ghahani et al. 2018)";
      storage_note = "Hawkeye + hit counters + 768 B EHC table + PSEL";
      factory = (fun ~seed:_ -> Hawkeye.make ~ehc:true);
    };
    {
      name = "ship-sb";
      display = "SHiP-SB";
      description = "SHiP-lite + streaming bypass over dueling insertion";
      storage_note = "64-entry outcome table, signatures, stream detectors + PSEL";
      factory = (fun ~seed:_ -> Rrip.ship_sb);
    };
    {
      name = "random";
      display = "Random";
      description = "uniform random victim, zero replacement metadata";
      storage_note = "none";
      factory = (fun ~seed -> Random_policy.make ~seed);
    };
  ]

let names = List.map (fun e -> e.name) all

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> e.name = name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown policy %S (known: %s)" name
         (String.concat ", " names))

let factory ?(seed = 1234) name = (find_exn name).factory ~seed
