module Pipeline = Ripple_core.Pipeline
module Json = Ripple_util.Json

type input = Eval of int | Train

type kind =
  | Policy of string
  | Ideal_cache
  | Oracle
  | Ripple of { policy : string; threshold : float }

type t = {
  app : string;
  n_instrs : int;
  seed : int;
  input : input;
  prefetch : Pipeline.prefetch;
  kind : kind;
}

let v ?(n_instrs = 2_000_000) ?(seed = 1234) ?(input = Eval 0) ?(prefetch = Pipeline.Fdip)
    ~app kind =
  { app; n_instrs; seed; input; prefetch; kind }

let kind_name = function
  | Policy p -> p
  | Ideal_cache -> "ideal-cache"
  | Oracle -> "oracle"
  | Ripple { policy; threshold } -> Printf.sprintf "ripple:%s@%g" policy threshold

let input_name = function Eval i -> Printf.sprintf "eval%d" i | Train -> "train"

let to_string t =
  Printf.sprintf "%s/%s/%s/n=%d/i=%s/s=%d" t.app
    (Pipeline.prefetch_name t.prefetch)
    (kind_name t.kind) t.n_instrs (input_name t.input) t.seed

let compare a b = Stdlib.compare (to_string a) (to_string b)
let equal a b = compare a b = 0

let policy_name t =
  match t.kind with
  | Policy p -> Some p
  | Ripple { policy; _ } -> Some policy
  | Ideal_cache | Oracle -> None

let threshold t = match t.kind with Ripple { threshold; _ } -> Some threshold | _ -> None

(* FNV-1a over the cell key: stable across runs and OCaml versions
   (unlike [Hashtbl.hash], which is documented only per-process). *)
let prng_seed t = Ripple_util.Prng.seed_of_string (to_string t)

(* Seed used for retry attempt [attempt] of a cell (attempt 0 is the
   spec's own seed): a large odd stride keeps perturbed seeds disjoint
   across neighbouring base seeds for any plausible retry budget. *)
let perturb_seed seed ~attempt = seed + (attempt * 1_000_003)

let to_fields t =
  [
    ("spec", Json.String (to_string t));
    ("app", Json.String t.app);
    ("prefetch", Json.String (Pipeline.prefetch_name t.prefetch));
    ("kind", Json.String (kind_name t.kind));
    ("policy", match policy_name t with Some p -> Json.String p | None -> Json.Null);
    ("threshold", match threshold t with Some x -> Json.Float x | None -> Json.Null);
    ("instrs", Json.Int t.n_instrs);
    ("input", Json.String (input_name t.input));
    ("seed", Json.Int t.seed);
  ]

let to_json t = Json.Obj (to_fields t)
