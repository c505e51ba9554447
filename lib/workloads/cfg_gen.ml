module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Builder = Ripple_isa.Builder
module Prng = Ripple_util.Prng

type t = {
  model : App_model.t;
  program : Program.t;
  dispatcher : int;
  handlers : int array;
  bias : float array;
  weights : float array array;
}

(* Per-site behaviour recorded while building; flushed into dense arrays
   once block count is known. *)
type recorded = { mutable biases : (int * float) list; mutable weightses : (int * float array) list }

let record_bias r id p = r.biases <- (id, p) :: r.biases
let record_weights r id w = r.weightses <- (id, w) :: r.weightses

(* A conditional's taken-probability under the model's entropy mix:
   mostly near-deterministic branches with a minority of coin flips. *)
let draw_bias rng (model : App_model.t) =
  if Prng.chance rng model.App_model.branch_entropy then 0.25 +. Prng.float rng 0.5
  else begin
    let strong = 0.02 +. Prng.float rng 0.1 in
    if Prng.bool rng then 1.0 -. strong else strong
  end

let draw_block_bytes rng (model : App_model.t) =
  let mean = model.App_model.block_bytes_mean in
  max 8 ((mean / 2) + Prng.int rng (mean + 1))

(* Target distribution of an indirect site: flat when polymorphic,
   otherwise dominated by one hot target. *)
let draw_weights rng (model : App_model.t) n =
  assert (n > 0);
  if Prng.chance rng model.App_model.polymorphic_fraction then
    Array.init n (fun _ -> 1.0 +. Prng.float rng 0.5)
  else begin
    let w = Array.init n (fun _ -> 0.05 +. Prng.float rng 0.05) in
    w.(Prng.int rng n) <- 3.0 +. Prng.float rng 3.0;
    w
  end

let normalise w =
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* Build one function body; returns its entry block id.  [callees] picks
   a call target (None disables calls, e.g. bottom-level functions). *)
let build_function builder rng model r ~privilege ~jit ~callees ~call_fraction ~n_blocks =
  let open App_model in
  let k = max 1 n_blocks in
  (* Allocate ids first so forward/backward edges can be expressed. *)
  let ids =
    Array.init k (fun i ->
        Builder.block builder ~privilege ~jit ~aligned:(i = 0)
          ~bytes:(draw_block_bytes rng model) ~term:Basic_block.Return ())
  in
  (* Loops are short disjoint trailing segments ([loop_floor] fences them
     off from each other) and never wrap a call site, so per-function
     work stays linear in the block count instead of exploding through
     nested re-execution of call trees. *)
  let loop_floor = ref 0 in
  let is_call = Array.make k false in
  for i = 0 to k - 2 do
    let id = ids.(i) in
    let next = ids.(i + 1) in
    let u = Prng.float rng 1.0 in
    let cond_cut = model.cond_fraction in
    let call_cut = cond_cut +. call_fraction in
    let icall_cut = call_cut +. model.indirect_call_fraction in
    let ijmp_cut = icall_cut +. model.indirect_jump_fraction in
    if u < cond_cut then begin
      let jdx = max !loop_floor (i - 1 - Prng.int rng 2) in
      let body_has_call =
        let any = ref false in
        for b = jdx to i - 1 do
          if is_call.(b) then any := true
        done;
        !any
      in
      let back_edge =
        i > !loop_floor && (not body_has_call) && Prng.chance rng model.loop_fraction
      in
      if back_edge then begin
        let target = ids.(jdx) in
        loop_floor := i + 1;
        let iters =
          Float.of_int (max 1 model.loop_iters_mean) *. (0.5 +. Prng.float rng 1.5)
        in
        record_bias r id (iters /. (iters +. 1.0));
        Builder.set_term builder id (Basic_block.Cond { taken = target; fallthrough = next })
      end
      else begin
        (* Forward branches skip locally (if/else regions), not across
           the whole function — keeps most of a hot function's body hot. *)
        let skip = min (k - i - 1) (1 + Prng.geometric rng ~p:0.6) in
        let target = ids.(i + skip) in
        record_bias r id (draw_bias rng model);
        Builder.set_term builder id (Basic_block.Cond { taken = target; fallthrough = next })
      end
    end
    else if u < call_cut then begin
      match callees ~want:1 with
      | [| callee |] ->
        is_call.(i) <- true;
        Builder.set_term builder id (Basic_block.Call { callee; return_to = next })
      | _ -> Builder.set_term builder id (Basic_block.Fallthrough next)
    end
    else if u < icall_cut then begin
      let want = 2 + Prng.int rng 4 in
      let cs = callees ~want in
      if Array.length cs >= 2 then begin
        is_call.(i) <- true;
        record_weights r id (normalise (draw_weights rng model (Array.length cs)));
        Builder.set_term builder id (Basic_block.Indirect_call { callees = cs; return_to = next })
      end
      else Builder.set_term builder id (Basic_block.Fallthrough next)
    end
    else if u < ijmp_cut && i + 2 < k then begin
      (* A switch over forward blocks of the same function. *)
      let pool = k - i - 1 in
      let want = min pool (2 + Prng.int rng 5) in
      let targets =
        Array.init want (fun _ ->
            ids.(i + 1 + min (pool - 1) (Prng.geometric rng ~p:0.45)))
      in
      record_weights r id (normalise (draw_weights rng model want));
      Builder.set_term builder id (Basic_block.Indirect targets)
    end
    else Builder.set_term builder id (Basic_block.Fallthrough next)
  done;
  ids.(0)

let generate (model : App_model.t) =
  let open App_model in
  let rng = Prng.create ~seed:model.seed in
  let builder = Builder.create () in
  let r = { biases = []; weightses = [] } in
  let n_kernel = max 1 (Float.to_int (model.kernel_fraction *. Float.of_int model.n_functions)) in
  let n_user = model.n_functions - n_kernel in
  assert (n_user > model.hot_functions);
  (* Pre-draw per-function attributes; entries are filled as bodies are
     built, user functions first, then kernel. *)
  let user_entry = Array.make n_user (-1) in
  let kernel_entry = Array.make n_kernel (-1) in
  let jit_flags =
    Array.init n_user (fun _ -> Prng.chance rng model.jit_fraction)
  in
  (* Kernel bodies first so user call sites can reference their ids. *)
  let kernel_callees ~of_fn ~want =
    if of_fn + 1 >= n_kernel then [||]
    else begin
      let pool = n_kernel - of_fn - 1 in
      Array.init (min want pool) (fun _ -> kernel_entry.(of_fn + 1 + Prng.int rng pool))
    end
  in
  for f = n_kernel - 1 downto 0 do
    let n_blocks =
      max 2 (1 + Prng.geometric rng ~p:(1.0 /. (0.7 *. Float.of_int model.blocks_per_function)))
    in
    kernel_entry.(f) <-
      build_function builder rng model r ~privilege:Basic_block.Kernel ~jit:false
        ~callees:(fun ~want -> kernel_callees ~of_fn:f ~want)
        ~call_fraction:model.lib_call_fraction ~n_blocks
  done;
  (* User functions, deepest level first so callee entries exist.
     Handlers call into the library region (never other handlers — a
     request is one handler plus its library closure); library functions
     call strictly deeper bands, keeping the call graph acyclic and the
     per-request tree bounded. *)
  let lib_band = max 1 ((n_user - model.hot_functions) / model.call_levels) in
  let user_callees ~of_fn ~want =
    if Prng.chance rng model.kernel_call_fraction then
      [| kernel_entry.(Prng.int rng n_kernel) |]
    else begin
      let lo = if of_fn < model.hot_functions then model.hot_functions else of_fn + lib_band in
      if lo >= n_user then [||]
      else begin
        let pool = n_user - lo in
        Array.init want (fun _ ->
            user_entry.(lo + Prng.zipf rng ~n:pool ~s:model.callee_zipf_s))
      end
    end
  in
  for f = n_user - 1 downto 0 do
    (* Dispatcher-level handlers carry a request's own (large) code path;
       deeper functions are library-sized. *)
    let handler = f < model.hot_functions in
    let mean = if handler then model.handler_blocks else model.blocks_per_function in
    let n_blocks = max 2 (1 + Prng.geometric rng ~p:(1.0 /. Float.of_int mean)) in
    user_entry.(f) <-
      build_function builder rng model r ~privilege:Basic_block.User ~jit:jit_flags.(f)
        ~callees:(fun ~want -> user_callees ~of_fn:f ~want)
        ~call_fraction:
          (if handler then model.call_fraction else model.lib_call_fraction)
        ~n_blocks
  done;
  (* The dispatcher: an endless request loop indirect-calling hot
     handlers.  Which handler actually runs is the executor's choice. *)
  let handlers = Array.sub user_entry 0 model.hot_functions in
  let dispatcher =
    Builder.block builder ~aligned:true ~bytes:48 ~term:Basic_block.Halt ()
  in
  Builder.set_term builder dispatcher
    (Basic_block.Indirect_call { callees = handlers; return_to = dispatcher });
  let program = Builder.finish builder ~entry:dispatcher in
  let n = Program.n_blocks program in
  let bias = Array.make n Float.nan in
  List.iter (fun (id, p) -> bias.(id) <- p) r.biases;
  let weights = Array.make n [||] in
  List.iter (fun (id, w) -> weights.(id) <- w) r.weightses;
  { model; program; dispatcher; handlers; bias; weights }
