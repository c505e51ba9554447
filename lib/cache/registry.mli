(** The single name → replacement-policy catalogue.

    Every hardware policy the system can simulate is registered here
    once, with the description and Table-I storage note that user-facing
    surfaces print.  The CLI's [--policy] parser and help text, the
    bench's Table I, and the experiment runner's policy resolution all
    read this table, so adding a policy in one place makes it available
    everywhere — the name → constructor match can no longer drift
    between front ends.

    Each entry is one fixed configuration, the one the paper compares
    against: policies take no parameters, so a name is the whole cell
    key in JSONL rows.

    Factories take a [seed] so stochastic policies (Random) are
    reproducible from an experiment spec; deterministic policies ignore
    it. *)

type entry = {
  name : string;  (** CLI-facing identifier, lowercase *)
  display : string;  (** print form, e.g. ["SHiP"], ["Hawkeye/Harmony"] *)
  description : string;  (** one-line summary for help text *)
  storage_note : string;  (** Table I replacement-metadata note *)
  factory : seed:int -> Policy.factory;
}

val all : entry list
(** Every registered policy, in Table I order (LRU first). *)

val names : string list

val find : string -> entry option
(** Case-insensitive lookup by [name]. *)

val find_exn : string -> entry
(** @raise Invalid_argument on unknown names, listing the known ones. *)

val factory : ?seed:int -> string -> Policy.factory
(** [factory name] is [(find_exn name).factory ~seed] ([seed] defaults
    to 1234, the historical fixed seed of the bench).
    @raise Invalid_argument on unknown names. *)
