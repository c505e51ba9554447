(** The single name → replacement-policy catalogue.

    Every hardware policy the system can simulate is registered here
    once, with the description, Table-I storage note and typed parameter
    schema that user-facing surfaces print.  The CLI's [--policy] parser
    and help text, the bench's Table I, and the experiment runner's spec
    resolution all read this table, so adding a policy in one place
    makes it available everywhere — the name → constructor match can no
    longer drift between front ends.

    Policies are addressed by *specs*: ["drrip"] or
    ["drrip:psel_bits=8,throttle=16"].  [parse_spec] validates both the
    name and every key/value against the schema; [spec_to_string]
    canonicalises (default-valued overrides dropped, keys sorted) so the
    same cell always prints the same string in JSONL rows.

    Factories take a [seed] so stochastic policies (Random) are
    reproducible from an experiment spec; deterministic policies ignore
    it. *)

(** Typed policy parameters. *)
module Param : sig
  type value = Int of int | Bool of bool

  type spec = {
    key : string;  (** lowercase identifier, e.g. ["psel_bits"] *)
    doc : string;  (** one-line summary for help text *)
    default : value;  (** also fixes the key's type *)
  }

  type set = (string * value) list
  (** A resolved parameter set: every declared key bound exactly once. *)

  val value_to_string : value -> string
  val defaults : spec list -> set

  val get_int : set -> string -> int
  (** @raise Invalid_argument if the key is absent or not an int. *)

end

type entry = {
  name : string;  (** CLI-facing identifier, lowercase *)
  display : string;  (** print form, e.g. ["SHiP"], ["Hawkeye/Harmony"] *)
  description : string;  (** one-line summary for help text *)
  storage_note : string;  (** Table I replacement-metadata note *)
  params : Param.spec list;  (** the policy's tunable knobs, possibly empty *)
  factory : seed:int -> params:Param.set -> Policy.factory;
      (** [params] must bind every declared key; resolve specs through
          {!factory} rather than calling this
          directly. *)
}

val all : entry list
(** Every registered policy, in Table I order (LRU first). *)

val names : string list

val find : string -> entry option
(** Case-insensitive lookup by bare [name] (no parameters). *)

val find_exn : string -> entry
(** @raise Invalid_argument on unknown names, listing the known ones. *)

(** A parsed policy spec: a registry name plus parameter overrides. *)
type spec = { policy : string; overrides : (string * Param.value) list }

val parse_spec : string -> (spec, string) result
(** Parse ["name"] or ["name:key=val,key=val"].  ['+'] is accepted as an
    alternative pair separator (so specs survive comma-splitting list
    parsers, e.g. sweep's [--policies]).  Unknown names and unknown keys
    both error listing the known ones; values are checked against the
    key's declared type. *)

val parse_spec_exn : string -> spec
(** @raise Invalid_argument with the [parse_spec] error message. *)

val spec_to_string : spec -> string
(** Canonical form: overrides equal to their default are dropped and the
    rest print sorted by key, so equal cells render equal strings. *)

val canonical : string -> string
(** [canonical s = spec_to_string (parse_spec_exn s)].
    @raise Invalid_argument on invalid specs. *)

val spec_params : spec -> Param.set
(** The fully resolved parameter set: declared defaults overlaid with
    the spec's overrides. *)

val factory : ?seed:int -> string -> Policy.factory
(** [factory str] parses [str] as a spec and resolves it ([seed]
    defaults to 1234, the historical fixed seed of the bench).
    @raise Invalid_argument on unknown names, unknown keys or ill-typed
    values. *)
