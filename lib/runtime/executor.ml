(* The plan executor — the runtime half of CHET and the only way a circuit
   executes. The compiler (lib/core) runs it with analysis backends to
   "dynamically unroll the data-flow graph on the fly" (§5.1); deployment
   runs it with a real scheme backend. Either way the circuit is lowered to
   a {!Plan.t}, prepared against the backend, and replayed.

   [prepare] is the per-deployment half: it walks the schedule once,
   building a staged closure per step through the kernels of
   {!Kernels.Make} — weight and mask plaintexts encoded up front under a
   plaintext budget, geometry and shape checks done. [run_encrypted]
   replays the closures over a fixed ciphertext arena; released slots are
   dropped immediately, so live ciphertext memory is bounded by the arena
   high-water mark instead of the circuit size. One-shot runs ([run]: the
   analysis passes, every serving attempt) stage each step with a zero
   plaintext budget just before it runs, so every plaintext is encoded at
   its use, once per run. *)

module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Cancel = Chet_hisa.Cancel
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Tracer = Chet_obs.Tracer
module Metrics = Chet_obs.Metrics

type layout_policy = Plan.layout_policy =
  | All_hw
  | All_chw
  | Hw_conv_chw_rest
  | Chw_fc_hw_before

let policy_name = Plan.policy_name
let all_policies = Plan.all_policies

(* Plaintexts a long-lived prepared executor keeps encoded; beyond it,
   kernels encode per inference. *)
let default_pt_budget = 1024

(* Sentinel threading (DESIGN.md §16): [sn_probe] is the known input packed
   into the layout's twin slots at encrypt time; [sn_verify] receives the
   decrypted twin tensor after the run and raises a typed
   [Herr.Integrity_violation] if it strays from the clear-reference
   prediction. The executor stays policy-free: what "too far" means belongs
   to the caller (lib/core's Integrity module). *)
type sentinel = {
  sn_probe : Tensor.t;
  sn_verify : Tensor.t -> unit;
}

let err ~op e = Herr.raise_err ~backend:"executor" ~op e

(* arena gauges: size of the last prepared plan's arena, and the live-slot
   high-water mark of the last plan execution *)
let arena_slots_gauge =
  lazy (Metrics.gauge Metrics.default ~help:"ciphertext arena size of the active plan" "chet_plan_arena_slots")

let arena_live_gauge =
  lazy
    (Metrics.gauge Metrics.default ~help:"live arena slots, high-water mark of the last run"
       "chet_plan_arena_live_hwm")

module Make_over (H : Kernels.BACKEND) = struct
  module K = Kernels.Make_over (H)

  type prepared = {
    pr_plan : Plan.t;
    pr_cfg : Kernels.scales;
    pr_execs : (K.ct_tensor option array -> K.ct_tensor -> K.ct_tensor) array;
        (** per step: (arena, external input) -> result *)
  }

  let plan prepared = prepared.pr_plan

  let check_plan (plan : Plan.t) =
    if H.slots <> plan.Plan.p_slots then
      err ~op:"prepare"
        (Herr.Invalid_op
           {
             reason =
               Printf.sprintf "plan compiled for %d slots but backend has %d" plan.Plan.p_slots
                 H.slots;
           });
    match Plan.validate plan with
    | Ok () -> ()
    | Error reason -> err ~op:"prepare" (Herr.Invalid_op { reason = "invalid plan: " ^ reason })

  let get (arena : K.ct_tensor option array) s =
    match arena.(s) with
    | Some v -> v
    | None -> err ~op:"exec" (Herr.Invalid_op { reason = Printf.sprintf "read of released arena slot %d" s })

  (* Stage one step: its kernel closure over (arena, external input), with
     [budget] plaintexts left to encode now. [src_meta i] is the static
     layout of the step's i-th source. Adds the kernel's fusion counts to
     [stats]. *)
  let stage cfg ~budget ~(stats : Plan.stats) ~src_meta (st : Plan.step) =
    let of_staged (sg : K.staged) =
      stats.Plan.fused_mul_rescale <- stats.Plan.fused_mul_rescale + sg.K.sg_mul_rescale;
      stats.Plan.fused_rot_acc <- stats.Plan.fused_rot_acc + sg.K.sg_rot_acc;
      stats.Plan.fused_mul_acc <- stats.Plan.fused_mul_acc + sg.K.sg_mul_acc;
      let s0 = if Array.length st.Plan.st_srcs > 0 then st.Plan.st_srcs.(0) else -1 in
      fun arena _input -> sg.K.sg_run (get arena s0)
    in
    Herr.with_node ~node_id:st.Plan.st_node.Circuit.id ~layer:(Plan.op_name st.Plan.st_node) (fun () ->
        match st.Plan.st_op with
        | Plan.Op_convert k -> of_staged (K.convert cfg ~meta:(src_meta 0) ~budget ~to_kind:k)
        | Plan.Op_node -> begin
            match st.Plan.st_node.Circuit.op with
            | Circuit.Input _ ->
                let want = st.Plan.st_meta in
                fun _arena input ->
                  if input.K.meta <> want then
                    err ~op:"input"
                      (Herr.Shape_mismatch
                         {
                           expected = Format.asprintf "%a" Layout.pp want;
                           got = Format.asprintf "%a" Layout.pp input.K.meta;
                         });
                  input
            | Circuit.Conv2d { weights; bias; stride; padding; _ } ->
                of_staged (K.conv2d cfg ~meta:(src_meta 0) ~budget ~weights ~bias ~stride ~padding)
            | Circuit.MatMul { weights; bias; _ } ->
                of_staged (K.matmul cfg ~meta:(src_meta 0) ~budget ~weights ~bias)
            | Circuit.AvgPool { ksize; stride; _ } ->
                of_staged (K.avg_pool cfg ~meta:(src_meta 0) ~budget ~ksize ~stride)
            | Circuit.GlobalAvgPool _ -> of_staged (K.global_avg_pool cfg ~meta:(src_meta 0) ~budget)
            | Circuit.PolyAct { a; b; _ } -> of_staged (K.poly_act cfg ~a ~b)
            | Circuit.Square _ -> of_staged (K.square cfg)
            | Circuit.BatchNorm { scale; shift; _ } ->
                of_staged (K.batch_norm cfg ~meta:(src_meta 0) ~budget ~scale ~shift)
            | Circuit.Flatten _ -> of_staged K.flatten
            | Circuit.Concat _ ->
                let srcs = st.Plan.st_srcs in
                fun arena _input -> K.concat cfg (Array.to_list (Array.map (get arena) srcs))
            | Circuit.Residual _ ->
                let a = st.Plan.st_srcs.(0) and b = st.Plan.st_srcs.(1) in
                fun arena _input -> K.residual (get arena a) (get arena b)
          end)

  (* Stage every step of a validated plan in schedule order, handing each
     staged closure to [f]. The static layout of every arena slot is
     tracked as the schedule writes it. Resets and refills the plan's
     fusion counts (static per plan, so repeated prepares — one per
     worker — are idempotent). *)
  let stage_steps ~pt_budget cfg (plan : Plan.t) f =
    let budget = ref pt_budget in
    let stats = plan.Plan.p_stats in
    stats.Plan.fused_mul_rescale <- 0;
    stats.Plan.fused_rot_acc <- 0;
    stats.Plan.fused_mul_acc <- 0;
    let slot_meta = Array.make plan.Plan.p_arena plan.Plan.p_input_meta in
    Array.iteri
      (fun i (st : Plan.step) ->
        let src_meta k = slot_meta.(st.Plan.st_srcs.(k)) in
        f i st (stage cfg ~budget ~stats ~src_meta st);
        slot_meta.(st.Plan.st_dst) <- st.Plan.st_meta)
      plan.Plan.p_steps

  (* Validate the plan, check the backend's slot count and stage every
     step, encoding up to [pt_budget] weight/mask plaintexts now. *)
  let prepare ~pt_budget cfg (plan : Plan.t) =
    check_plan plan;
    let execs = Array.make (Array.length plan.Plan.p_steps) (fun _ input -> input) in
    stage_steps ~pt_budget cfg plan (fun i _ exec -> execs.(i) <- exec);
    Metrics.set_gauge (Lazy.force arena_slots_gauge) (float_of_int plan.Plan.p_arena);
    { pr_plan = plan; pr_cfg = cfg; pr_execs = execs }

  (* Run one step against the arena: poll [cancel] at the step boundary —
     the granularity of the per-step spans — so a tripped token frees the
     worker within one step instead of one full inference (DESIGN.md §13),
     raising the typed [Herr.Cancelled] carrying the node at which it
     fired; then execute, write the destination and release dead slots. *)
  let exec_step ?cancel arena ~live ~hwm (st : Plan.step) exec input =
    let node = st.Plan.st_node in
    (match cancel with
    | Some tok -> Cancel.check tok ~node_id:node.Circuit.id ~layer:(Plan.op_name node)
    | None -> ());
    (* every failure below this point carries the circuit node and a
       human description of the layer that caused it *)
    let compute () =
      Herr.with_node ~node_id:node.Circuit.id ~layer:(Plan.op_name node) (fun () -> exec arena input)
    in
    let result =
      (* one span per step when tracing is on: node id, layer, layout, and
         — annotated after the step ran — the HISA op count attributable to
         it plus the result's scale and remaining modulus level. Disabled
         tracing costs one atomic load per step. *)
      if not (Tracer.enabled ()) then compute ()
      else
        Tracer.with_span ~cat:"executor"
          ~attrs:
            [
              ("node_id", Tracer.Int node.Circuit.id);
              ("layer", Tracer.Str (Plan.op_name node));
              ("layout", Tracer.Str (match st.Plan.st_kind with Layout.HW -> "HW" | Layout.CHW -> "CHW"));
              ("step", Tracer.Int st.Plan.st_id);
            ]
          (match st.Plan.st_op with
          | Plan.Op_convert Layout.HW -> "convert->HW"
          | Plan.Op_convert Layout.CHW -> "convert->CHW"
          | Plan.Op_node -> Plan.op_name node)
          (fun () ->
            let ops0 = Tracer.op_count () in
            let r = compute () in
            Tracer.annotate "ops" (Tracer.Int (Tracer.op_count () - ops0));
            if Array.length r.K.cts > 0 then begin
              Tracer.annotate "scale" (Tracer.Float (H.scale_of r.K.cts.(0)));
              let env = H.env_of r.K.cts.(0) in
              Tracer.annotate "level"
                (Tracer.Int (if env.Hisa.env_r > 0 then env.Hisa.env_r else env.Hisa.env_log_q))
            end;
            r)
    in
    arena.(st.Plan.st_dst) <- Some result;
    incr live;
    if !live > !hwm then hwm := !live;
    Array.iter
      (fun s ->
        arena.(s) <- None;
        decr live)
      st.Plan.st_release

  let finish (plan : Plan.t) arena ~hwm =
    Metrics.set_gauge (Lazy.force arena_live_gauge) (float_of_int hwm);
    match arena.(plan.Plan.p_output) with
    | Some v -> v
    | None -> err ~op:"run" (Herr.Invalid_op { reason = "plan output slot empty after the last step" })

  (* Replay the staged closures on an input encrypted at the plan's input
     layout. *)
  let run_encrypted ?cancel prepared (input : K.ct_tensor) =
    let plan = prepared.pr_plan in
    let arena = Array.make plan.Plan.p_arena None in
    let live = ref 0 and hwm = ref 0 in
    Array.iteri
      (fun i st -> exec_step ?cancel arena ~live ~hwm st prepared.pr_execs.(i) input)
      plan.Plan.p_steps;
    finish plan arena ~hwm:!hwm

  (* [prepare ~pt_budget:0] then [run_encrypted], fused: each step is
     staged just before it runs and dropped after, so a one-shot run (the
     analysis passes) holds no staged state for the steps it is not
     executing. *)
  let run_once_encrypted ?cancel cfg (plan : Plan.t) (input : K.ct_tensor) =
    check_plan plan;
    let arena = Array.make plan.Plan.p_arena None in
    let live = ref 0 and hwm = ref 0 in
    stage_steps ~pt_budget:0 cfg plan (fun _ st exec -> exec_step ?cancel arena ~live ~hwm st exec input);
    finish plan arena ~hwm:!hwm

  (* Full client–server roundtrip on a cleartext image: encrypt at the
     plan's input layout (with the sentinel probe in the twin slots), run,
     decrypt, and verify the sentinel lane. *)
  let roundtrip ?sentinel cfg (plan : Plan.t) image execute =
    let probe = Option.map (fun s -> s.sn_probe) sentinel in
    let out = execute (K.encrypt_tensor ?probe cfg plan.Plan.p_input_meta image) in
    match sentinel with
    | None -> K.decrypt_tensor out
    | Some s ->
        let primary, twin_out = K.decrypt_parts out in
        (match twin_out with
        | Some t -> s.sn_verify t
        | None -> err ~op:"sentinel" (Herr.Invalid_op { reason = "output layout lost its twin slots" }));
        primary

  let run_prepared ?cancel ?sentinel prepared image =
    roundtrip ?sentinel prepared.pr_cfg prepared.pr_plan image (run_encrypted ?cancel prepared)

  (* One inference of [circuit] under [policy]: build the plan, prepare it
     with a zero plaintext budget, run it (the last two fused, as in
     [run_once_encrypted]).

     [twin] runs on an interleaved-twin layout without verification — the
     compiler's analysis passes use it so a sentinel deployment's parameter,
     cost and rotation selection see the geometry it will actually execute.
     [sentinel] implies [twin] and additionally packs/verifies the probe. *)
  let run ?cancel ?sentinel ?(twin = false) cfg circuit ~policy image =
    let twin = twin || sentinel <> None in
    let plan = Plan.build ~twin ~slots:H.slots ~policy circuit in
    roundtrip ?sentinel cfg plan image (run_once_encrypted ?cancel cfg plan)
end

(* Every backend that holds plaintext values. *)
module Make (H : Hisa.S) = Make_over (struct
  include H

  let value_free = false
end)
