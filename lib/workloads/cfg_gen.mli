(** Synthetic control-flow graph generation.

    Turns an {!App_model.t} into a concrete {!Ripple_isa.Program.t} plus
    the per-site dynamic behaviour (branch biases, indirect-target
    distributions) the {!Executor} samples from.  Generation is
    deterministic in [model.seed].

    Shape: a dispatcher loop (the server's request loop) indirect-calls
    one of the hot handler functions; functions form an acyclic call
    graph layered into [call_levels] bands (so call depth is bounded and
    recursion-free); kernel functions live in a separate address region
    and are entered through syscall-like call sites. *)

module Program := Ripple_isa.Program

type t = {
  model : App_model.t;
  program : Program.t;
  dispatcher : int;  (** block id of the request loop *)
  handlers : int array;  (** entry block ids of the dispatcher's callees *)
  bias : float array;
      (** per block id: P(taken) of its conditional terminator; NaN for
          non-conditional blocks *)
  weights : float array array;
      (** per block id: target distribution of its indirect terminator,
          aligned with the terminator's target array; [[||]] elsewhere *)
}

val generate : App_model.t -> t
