(** Fetch-directed instruction prefetching (Reinman, Calder & Austin 1999).

    A decoupled front end: a runahead engine walks the program's CFG from
    the current fetch point, resolving conditional branches with gshare,
    indirect targets with a BTB and returns with a return-address stack,
    and pushes predicted basic blocks into a fetch-target queue whose
    cache lines are prefetched into the L1I.  When the actual executed
    block disagrees with the queue head the runahead state is flushed and
    re-seeded from architectural state, just as a pipeline flush would —
    the wrong-path lines already prefetched remain in the cache as
    pollution, which is the waste Ripple's Observation #1 targets.

    A runahead stall (BTB miss on an indirect target, empty RAS, or
    program exit) pauses prefetching until the next flush resynchronises,
    modelling fetch-target starvation on hard-to-predict control flow. *)

module Program := Ripple_isa.Program

type internals = {
  gshare : Branch_pred.Gshare.t;
  btb : Branch_pred.Btb.t;
  mispredicts : unit -> int;  (** runahead flushes caused by wrong paths *)
  issued : unit -> int;  (** prefetch accesses issued *)
}

val create : ?ftq_depth:int -> program:Program.t -> unit -> Prefetcher.t
(** [ftq_depth] defaults to 24 fetch targets, in line with the FTQ
    sizing the IPC-1 studies use.  Two prefetch lines issue per fetched
    block: finite fill bandwidth, so a flushed front end takes several
    blocks to re-cover a new path, which is where FDIP's residual misses
    come from. *)

val create_instrumented :
  ?ftq_depth:int -> ?issue_width:int -> program:Program.t -> unit -> Prefetcher.t * internals
(** Like {!create} but exposing predictor internals for tests and
    diagnostics; [issue_width] (default 2) sets the prefetch lines
    issued per fetched block. *)
