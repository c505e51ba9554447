(** Parameters of a synthetic data-center application.

    The paper's nine applications cannot run here (JVM/HHVM servers,
    proprietary load generators, Intel PT); instead each is modelled by a
    parameter vector that reproduces the properties its I-cache behaviour
    depends on — see DESIGN.md "Substitutions".  The properties that
    matter, and the fields that control them:

    - {e multi-megabyte instruction footprint}: [n_functions],
      [blocks_per_function], [block_bytes_mean];
    - {e skewed, phase-varying reuse} (§II-D's "unique reuse distance
      behaviour"): [zipf_s], [phase_len_instrs];
    - {e hard vs. easy to prefetch lines} (§II-C): [branch_entropy],
      [indirect_call_fraction], [indirect_jump_fraction],
      [polymorphic_fraction];
    - {e kernel code} (§IV: 15 % of HHVM misses): [kernel_fraction],
      [kernel_call_fraction];
    - {e JIT code defeating link-time injection} (§IV coverage):
      [jit_fraction];
    - {e verilator's generated straight-line code}:
      [sequential_dispatch] with near-zero [branch_entropy]. *)

type t = {
  name : string;
  seed : int;  (** CFG-generation seed; the program is a pure function of it *)
  n_functions : int;
  hot_functions : int;  (** handlers reachable from the dispatcher *)
  blocks_per_function : int;  (** mean for library functions; geometric *)
  handler_blocks : int;
      (** mean size of the dispatcher-level handler functions: a request's
          own code path, sized so one request overflows the 32 KiB L1I the
          way the paper's deep software stacks do *)
  block_bytes_mean : int;
  cond_fraction : float;  (** fraction of block terminators that branch *)
  call_fraction : float;  (** call-site density in handler bodies *)
  lib_call_fraction : float;  (** call-site density in library functions *)
  indirect_call_fraction : float;
  indirect_jump_fraction : float;
  loop_fraction : float;  (** fraction of conditionals that are back edges *)
  loop_iters_mean : int;
  branch_entropy : float;
      (** 0 = all branches near-deterministic, 1 = all coin flips *)
  polymorphic_fraction : float;
      (** fraction of indirect sites with a flat target distribution *)
  zipf_s : float;  (** handler-popularity skew; ~0 = uniform *)
  callee_zipf_s : float;
      (** skew of call-site target choice within a band: lower = more
          distinct callees per request = larger per-request footprint *)
  sequential_dispatch : bool;
      (** round-robin over handlers instead of Zipf sampling (verilator's
          eval loop sweeping generated code) *)
  kernel_fraction : float;  (** fraction of functions that are kernel code *)
  kernel_call_fraction : float;  (** P(a call site targets the kernel) *)
  jit_fraction : float;  (** fraction of user functions that are JIT code *)
  phase_len_instrs : int;  (** handler-popularity reshuffle period *)
  call_levels : int;  (** call-graph depth (acyclic by construction) *)
}

val default : t
(** A mid-size template the nine app models specialise. *)

val pp : Format.formatter -> t -> unit
