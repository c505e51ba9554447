module Param = struct
  type value = Int of int | Bool of bool

  type spec = { key : string; doc : string; default : value }

  type set = (string * value) list

  let type_name = function Int _ -> "int" | Bool _ -> "bool"

  let value_to_string = function
    | Int i -> string_of_int i
    | Bool b -> string_of_bool b

  let value_equal a b =
    match (a, b) with
    | Int a, Int b -> a = b
    | Bool a, Bool b -> a = b
    | _ -> false

  (* Values parse against the *declared* type of the key. *)
  let value_of_string ~like s =
    match like with
    | Int _ -> Option.map (fun i -> Int i) (int_of_string_opt s)
    | Bool _ -> Option.map (fun b -> Bool b) (bool_of_string_opt s)

  let defaults specs = List.map (fun s -> (s.key, s.default)) specs

  let missing key = invalid_arg (Printf.sprintf "Registry.Param: missing key %S" key)

  let get_int set key =
    match List.assoc_opt key set with
    | Some (Int i) -> i
    | Some v -> invalid_arg (Printf.sprintf "Registry.Param: %S is %s, not int" key (type_name v))
    | None -> missing key

  let get_bool set key =
    match List.assoc_opt key set with
    | Some (Bool b) -> b
    | Some v -> invalid_arg (Printf.sprintf "Registry.Param: %S is %s, not bool" key (type_name v))
    | None -> missing key
end

type entry = {
  name : string;
  display : string;
  description : string;
  storage_note : string;
  params : Param.spec list;
  factory : seed:int -> params:Param.set -> Policy.factory;
}

let no_params (f : seed:int -> Policy.factory) ~seed ~params:_ = f ~seed

let all =
  [
    {
      name = "lru";
      display = "LRU";
      description = "least-recently-used, the baseline of every experiment";
      storage_note = "1 bit per line";
      params = [];
      factory = no_params (fun ~seed:_ -> Lru.make);
    };
    {
      name = "ghrp";
      display = "GHRP";
      description = "global history reuse predictor (Ajorpaz et al. 2018)";
      storage_note = "3 KiB tables, dead bits, signatures, history";
      params = [];
      factory = no_params (fun ~seed:_ -> Ghrp.make ());
    };
    {
      name = "srrip";
      display = "SRRIP";
      description = "static re-reference interval prediction (Jaleel et al. 2010)";
      storage_note = "2 bits per line";
      params = [];
      factory = no_params (fun ~seed:_ -> Rrip.srrip);
    };
    {
      name = "drrip";
      display = "DRRIP";
      description = "set-dueling SRRIP/bimodal insertion (Jaleel et al. 2010)";
      storage_note = "2 bits per line + PSEL";
      params =
        [
          { Param.key = "psel_bits"; doc = "PSEL counter width"; default = Param.Int 10 };
          {
            Param.key = "throttle";
            doc = "bimodal rate: 1-in-N fills insert long";
            default = Param.Int 32;
          };
          { Param.key = "spacing"; doc = "sets between leader sets"; default = Param.Int 16 };
        ];
      factory =
        (fun ~seed:_ ~params ->
          Rrip.drrip
            ~psel_bits:(Param.get_int params "psel_bits")
            ~throttle:(Param.get_int params "throttle")
            ~spacing:(Param.get_int params "spacing")
            ());
    };
    {
      name = "ship";
      display = "SHiP";
      description = "signature-based hit prediction (Wu et al. 2011)";
      storage_note = "SHCT counters + 2 bits per line";
      params = [];
      factory = no_params (fun ~seed:_ -> Rrip.ship);
    };
    {
      name = "hawkeye";
      display = "Hawkeye/Harmony";
      description = "Hawkeye/Harmony: OPTgen sampling + PC predictor (Jain & Lin 2016)";
      storage_note = "sampler, occupancy vectors, predictor, RRIP counters";
      params =
        [
          {
            Param.key = "harmony";
            doc = "prefetch-aware (Demand-MIN) OPTgen training";
            default = Param.Bool true;
          };
        ];
      factory =
        (fun ~seed:_ ~params -> Hawkeye.make ~harmony:(Param.get_bool params "harmony") ());
    };
    {
      name = "trrip";
      display = "TRRIP";
      description = "temperature-based RRIP for I-caches (Mehta et al. 2025)";
      storage_note = "2 bits per line + 1 KiB temperature table + PSEL";
      params =
        [
          {
            Param.key = "table_bits";
            doc = "log2 of the temperature-table entries";
            default = Param.Int 12;
          };
          {
            Param.key = "hot";
            doc = "temperature at or above which a PC inserts near-MRU";
            default = Param.Int 2;
          };
        ];
      factory =
        (fun ~seed:_ ~params ->
          Rrip.trrip
            ~table_bits:(Param.get_int params "table_bits")
            ~hot:(Param.get_int params "hot")
            ());
    };
    {
      name = "ehc-hawkeye";
      display = "EHC-Hawkeye";
      description = "expected-hit-count victim refinement over Hawkeye (Vakil-Ghahani et al. 2018)";
      storage_note = "Hawkeye + hit counters + 768 B EHC table + PSEL";
      params =
        [
          {
            Param.key = "harmony";
            doc = "prefetch-aware (Demand-MIN) OPTgen training";
            default = Param.Bool true;
          };
          {
            Param.key = "max_hits";
            doc = "saturation of the per-line hit counters";
            default = Param.Int 7;
          };
        ];
      factory =
        (fun ~seed:_ ~params ->
          Hawkeye.make
            ~harmony:(Param.get_bool params "harmony")
            ~ehc:true
            ~max_hits:(Param.get_int params "max_hits")
            ());
    };
    {
      name = "ship-sb";
      display = "SHiP-SB";
      description = "SHiP-lite + streaming bypass over dueling insertion";
      storage_note = "64-entry outcome table, signatures, stream detectors + PSEL";
      params =
        [
          {
            Param.key = "bypass";
            doc = "bypass dead-signature fills in streaming sets";
            default = Param.Bool true;
          };
          {
            Param.key = "throttle";
            doc = "bimodal rate: 1-in-N fills insert long";
            default = Param.Int 32;
          };
          {
            Param.key = "stream_window";
            doc = "misses a detected stream keeps the bypass window open";
            default = Param.Int 8;
          };
        ];
      factory =
        (fun ~seed:_ ~params ->
          Rrip.ship_sb
            ~bypass:(Param.get_bool params "bypass")
            ~throttle:(Param.get_int params "throttle")
            ~stream_window:(Param.get_int params "stream_window")
            ());
    };
    {
      name = "random";
      display = "Random";
      description = "uniform random victim, zero replacement metadata";
      storage_note = "none";
      params = [];
      factory = no_params (fun ~seed -> Random_policy.make ~seed);
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

(* ------------------------------------------------------------------ *)
(* Policy specs: "name" or "name:key=val,key=val".  '+' is accepted as
   an alternative pair separator so specs survive comma-splitting list
   parsers (e.g. sweep's --policies). *)

type spec = { policy : string; overrides : (string * Param.value) list }

let split_pairs s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char '+')
  |> List.filter (fun p -> p <> "")

let parse_spec str =
  let name, rest =
    match String.index_opt str ':' with
    | None -> (str, None)
    | Some i ->
      (String.sub str 0 i, Some (String.sub str (i + 1) (String.length str - i - 1)))
  in
  match find name with
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (known: %s)" name (String.concat ", " names))
  | Some entry -> (
    let known_keys = List.map (fun (p : Param.spec) -> p.Param.key) entry.params in
    let parse_pair acc pair =
      match acc with
      | Error _ as e -> e
      | Ok overrides -> (
        match String.index_opt pair '=' with
        | None ->
          Error
            (Printf.sprintf "policy %s: malformed parameter %S (expected key=value)"
               entry.name pair)
        | Some i -> (
          let key = String.lowercase_ascii (String.sub pair 0 i) in
          let v = String.sub pair (i + 1) (String.length pair - i - 1) in
          match
            List.find_opt (fun (p : Param.spec) -> p.Param.key = key) entry.params
          with
          | None ->
            Error
              (if known_keys = [] then
                 Printf.sprintf "policy %s takes no parameters (got %S)" entry.name key
               else
                 Printf.sprintf "policy %s: unknown parameter %S (known: %s)" entry.name
                   key
                   (String.concat ", " known_keys))
          | Some p -> (
            match Param.value_of_string ~like:p.Param.default v with
            | None ->
              Error
                (Printf.sprintf "policy %s: parameter %s expects %s, got %S" entry.name
                   key
                   (Param.type_name p.Param.default)
                   v)
            | Some value -> Ok ((key, value) :: List.remove_assoc key overrides))))
    in
    match rest with
    | None -> Ok { policy = entry.name; overrides = [] }
    | Some rest ->
      Result.map
        (fun overrides -> { policy = entry.name; overrides })
        (List.fold_left parse_pair (Ok []) (split_pairs rest)))

let parse_spec_exn str =
  match parse_spec str with Ok s -> s | Error m -> invalid_arg ("Registry.parse_spec: " ^ m)

(* Canonical print form: overrides that differ from the default, sorted
   by key — so "drrip:spacing=16" and "drrip" name the same cell. *)
let spec_to_string { policy; overrides } =
  let entry = find_exn policy in
  let effective =
    List.filter
      (fun (k, v) ->
        match List.find_opt (fun (p : Param.spec) -> p.Param.key = k) entry.params with
        | Some p -> not (Param.value_equal v p.Param.default)
        | None -> true)
      overrides
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if effective = [] then policy
  else
    policy ^ ":"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=" ^ Param.value_to_string v) effective)

let spec_params { policy; overrides } =
  let entry = find_exn policy in
  List.map
    (fun (p : Param.spec) ->
      match List.assoc_opt p.Param.key overrides with
      | Some v -> (p.Param.key, v)
      | None -> (p.Param.key, p.Param.default))
    entry.params

let spec_factory ?(seed = 1234) spec =
  let entry = find_exn spec.policy in
  entry.factory ~seed ~params:(spec_params spec)

let factory ?(seed = 1234) str = spec_factory ~seed (parse_spec_exn str)

let canonical str = spec_to_string (parse_spec_exn str)
