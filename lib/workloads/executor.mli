(** Stochastic trace executor: runs a generated CFG and emits the dynamic
    basic-block sequence (what Intel PT would capture and the decoder
    reconstruct).

    Execution is driven by an {!input}: the load-generator configuration
    of §IV ("different input parameters offered to the client's load
    generator").  Inputs perturb which handlers are hot (rotation), how
    skewed the request mix is, the phase schedule and the stochastic
    seed, while the program itself is fixed — so a profile collected
    under one input can be evaluated under another (Fig. 13). *)

type input = {
  label : string;
  exec_seed : int;
  handler_rotation : int;  (** shifts the popularity ranking over handlers *)
  zipf_delta : float;  (** added to the model's request-mix skew *)
  phase_shift : int;  (** offsets the phase schedule, in instructions *)
}

val input : ?rotation:int -> ?zipf_delta:float -> ?phase_shift:int -> label:string -> seed:int -> unit -> input

val train : input
(** The profiling input used for the main experiments ("#p"). *)

val eval_inputs : input array
(** The four evaluation inputs "#0".."#3" of Fig. 13; "#0" is also the
    evaluation input of every main experiment. *)

val run : Cfg_gen.t -> input:input -> n_instrs:int -> int array
(** Executes until at least [n_instrs] original (pre-injection)
    instructions have retired, returning the block trace.  Deterministic
    in [(workload, input)]. *)

val run_stream :
  ?backing:Ripple_util.Int_stream.backing -> Cfg_gen.t -> input:input -> n_instrs:int ->
  Ripple_util.Int_stream.t
(** {!run} writing straight into an {!Ripple_util.Int_stream} builder:
    with [~backing:Spill] the block trace streams through a
    fixed-size buffer to an mmap-backed spill file, so a paper-scale
    (100 M-instruction) trace never materializes in the heap.  Entry
    [i] equals [(run w ~input ~n_instrs).(i)]. *)
