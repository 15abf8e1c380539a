(* Compiled execution plans (DESIGN.md §14): arena-liveness invariants on
   built plans, slot-reuse behaviour, and the PLAN frame's corruption
   contract — truncations and bit flips must surface as [Serial.Corrupt],
   never as a crash or a silently wrong schedule. *)

module Plan = Chet_runtime.Plan
module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Serial = Chet_crypto.Serial
module Kernels = Chet_runtime.Kernels
module Executor = Chet_runtime.Executor
module Circuit = Chet_nn.Circuit
module Models = Chet_nn.Models
module T = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset

let slots = 2048

let plan_of ?(policy = Executor.Hw_conv_chw_rest) ?twin circuit = Plan.build ?twin ~slots ~policy circuit

let micro_plan () = plan_of (Models.micro.Models.build ())

(* the plain and the twin (sentinel) layout of micro's plan *)
let micro_frames () =
  let circuit = Models.micro.Models.build () in
  (circuit, [ plan_of circuit; plan_of ~twin:true circuit ])

(* --- liveness / arena invariants --------------------------------------- *)

(* Replay the schedule by hand (independently of [Plan.validate]) and check
   the invariant the arena executor relies on: a slot is never read after
   being released, until some later step rewrites it. *)
let check_no_read_after_release (p : Plan.t) =
  let live = Array.make p.Plan.p_arena false in
  Array.iter
    (fun (st : Plan.step) ->
      Array.iter
        (fun s ->
          if not live.(s) then
            Alcotest.failf "step %d reads slot %d after release" st.Plan.st_id s)
        st.Plan.st_srcs;
      if live.(st.Plan.st_dst) then
        Alcotest.failf "step %d overwrites live slot %d" st.Plan.st_id st.Plan.st_dst;
      live.(st.Plan.st_dst) <- true;
      Array.iter
        (fun s ->
          if s = st.Plan.st_dst then
            Alcotest.failf "step %d releases its own destination" st.Plan.st_id;
          live.(s) <- false)
        st.Plan.st_release)
    p.Plan.p_steps;
  Alcotest.(check bool) "output live" true live.(p.Plan.p_output)

let test_liveness_invariants () =
  List.iter
    (fun (spec : Models.spec) ->
      let circuit = spec.Models.build () in
      List.iter
        (fun policy ->
          let p = plan_of ~policy circuit in
          (match Plan.validate p with
          | Ok () -> ()
          | Error r -> Alcotest.failf "%s: invalid plan: %s" spec.Models.model_name r);
          check_no_read_after_release p)
        [ Executor.All_hw; Executor.All_chw; Executor.Hw_conv_chw_rest ])
    [ Models.micro; Models.lenet5_small ]

let test_arena_reuse () =
  (* a deep elementwise chain keeps exactly one value alive at a time: the
     arena must stay tiny no matter how long the chain gets *)
  let b = Circuit.builder () in
  let x = ref (Circuit.input b ~name:"x" [| 1; 8; 8 |]) in
  for _ = 1 to 12 do
    x := Circuit.square b !x
  done;
  let circuit = Circuit.finish b ~name:"chain" ~output:!x in
  let p = plan_of circuit in
  Alcotest.(check bool) "steps cover the chain" true (Array.length p.Plan.p_steps >= 13);
  if p.Plan.p_arena > 2 then
    Alcotest.failf "square chain needs %d arena slots (expected <= 2)" p.Plan.p_arena;
  check_no_read_after_release p

let test_validate_rejects_mangled () =
  let p = micro_plan () in
  let with_steps steps = { p with Plan.p_steps = steps } in
  let expect_error what p' =
    match Plan.validate p' with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  (* read of a slot that was never written *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(0) <- { steps.(0) with Plan.st_srcs = [| p.Plan.p_arena - 1 |] };
  expect_error "a read of a dead slot" (with_steps steps);
  (* a step releasing its own destination *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(1) <- { steps.(1) with Plan.st_release = [| steps.(1).Plan.st_dst |] };
  expect_error "a step releasing its own destination" (with_steps steps);
  (* an out-of-range destination *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(0) <- { steps.(0) with Plan.st_dst = p.Plan.p_arena };
  expect_error "an out-of-range destination" (with_steps steps);
  (* a released output: any slot other than the real output is dead after the
     last step (the schedule frees everything it no longer needs) *)
  expect_error "a dead output slot"
    { p with Plan.p_output = (p.Plan.p_output + 1) mod p.Plan.p_arena }

(* The executor's own guard: a hand-mangled plan that reads a released slot
   must be refused at prepare time (validate runs there), not crash mid-run. *)
let test_prepare_rejects_invalid () =
  let p = micro_plan () in
  let steps = Array.map Fun.id p.Plan.p_steps in
  let last = Array.length steps - 1 in
  steps.(last) <- { steps.(last) with Plan.st_srcs = [| p.Plan.p_arena - 1 |] } ;
  let mangled = { p with Plan.p_steps = steps } in
  let module H =
    (val Clear.make
           {
             Clear.slots;
             scheme = Hisa.Rns_chain (Array.make 64 ((1 lsl 30) - 35));
             strict_modulus = false;
             encode_noise = false;
           })
  in
  let module E = Executor.Make (H) in
  match E.prepare ~pt_budget:Executor.default_pt_budget Kernels.default_scales mangled with
  | _ -> Alcotest.fail "prepare accepted an invalid plan"
  | exception Chet_hisa.Herr.Fhe_error (Chet_hisa.Herr.Invalid_op _, _) -> ()

(* --- PLAN frame: roundtrip and corruption fuzz ------------------------- *)

let check_frame_roundtrip circuit (p : Plan.t) =
  let p' = Plan.of_string ~circuit (Plan.to_string p) in
  Alcotest.(check bool) "policy" true (p.Plan.p_policy = p'.Plan.p_policy);
  Alcotest.(check bool) "input meta (twin flag)" true (p.Plan.p_input_meta = p'.Plan.p_input_meta);
  Alcotest.(check int) "steps" (Array.length p.Plan.p_steps) (Array.length p'.Plan.p_steps);
  Alcotest.(check int) "arena" p.Plan.p_arena p'.Plan.p_arena;
  Alcotest.(check int) "output" p.Plan.p_output p'.Plan.p_output;
  Alcotest.(check int) "slots" p.Plan.p_slots p'.Plan.p_slots;
  Array.iteri
    (fun i (st : Plan.step) ->
      let st' = p'.Plan.p_steps.(i) in
      Alcotest.(check int) "node" st.Plan.st_node.Circuit.id st'.Plan.st_node.Circuit.id;
      Alcotest.(check bool) "op" true (st.Plan.st_op = st'.Plan.st_op);
      Alcotest.(check bool) "kind" true (st.Plan.st_kind = st'.Plan.st_kind);
      Alcotest.(check int) "dst" st.Plan.st_dst st'.Plan.st_dst;
      Alcotest.(check (array int)) "srcs" st.Plan.st_srcs st'.Plan.st_srcs;
      Alcotest.(check (array int)) "release" st.Plan.st_release st'.Plan.st_release;
      Alcotest.(check bool) "meta" true (st.Plan.st_meta = st'.Plan.st_meta))
    p.Plan.p_steps;
  match Plan.validate p' with
  | Ok () -> ()
  | Error r -> Alcotest.failf "reloaded plan invalid: %s" r

let test_frame_roundtrip () =
  let circuit = Models.micro.Models.build () in
  List.iter
    (fun policy ->
      List.iter
        (fun twin -> check_frame_roundtrip circuit (plan_of ~policy ~twin circuit))
        [ false; true ])
    Executor.all_policies;
  (* an explicit per-node assignment: every node alternates kind *)
  let flip = ref false in
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (node : Circuit.node) ->
      flip := not !flip;
      Hashtbl.replace kinds node.Circuit.id
        (if !flip then Chet_runtime.Layout.HW else Chet_runtime.Layout.CHW))
    (Circuit.topo_order circuit);
  check_frame_roundtrip circuit
    (Plan.build_assigned ~slots ~kind_of:(fun n -> Hashtbl.find kinds n.Circuit.id) circuit)

let test_frame_wrong_circuit () =
  let circuit = Models.micro.Models.build () in
  let bytes = Plan.to_string (plan_of circuit) in
  let b = Circuit.builder () in
  let x = Circuit.input b ~name:"x" [| 1; 8; 8 |] in
  let other = Circuit.finish b ~name:"other" ~output:(Circuit.square b x) in
  match Plan.of_string ~circuit:other bytes with
  | _ -> Alcotest.fail "PLAN frame for another circuit accepted"
  | exception Serial.Corrupt _ -> ()

let test_frame_truncation_every_offset () =
  let circuit, plans = micro_frames () in
  List.iter
    (fun p ->
      let bytes = Plan.to_string p in
      for cut = 0 to String.length bytes - 1 do
        match Plan.of_string ~circuit (String.sub bytes 0 cut) with
        | _ -> Alcotest.failf "truncation at offset %d accepted" cut
        | exception Serial.Corrupt _ -> ()
      done)
    plans

let test_frame_bit_flips () =
  let circuit, plans = micro_frames () in
  let st = Random.State.make [| 0x504c414e |] in
  List.iter
    (fun p ->
      let bytes = Plan.to_string p in
      let nbits = 8 * String.length bytes in
      for _ = 1 to 400 do
        let bit = Random.State.int st nbits in
        let b = Bytes.of_string bytes in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        match Plan.of_string ~circuit (Bytes.to_string b) with
        | _ -> Alcotest.failf "bit flip at %d accepted" bit
        | exception Serial.Corrupt _ -> ()
      done)
    plans

let suite =
  [
    ( "plan",
      [
        Alcotest.test_case "liveness invariants on built plans" `Quick test_liveness_invariants;
        Alcotest.test_case "arena reuse bounds a deep chain" `Quick test_arena_reuse;
        Alcotest.test_case "validate rejects mangled schedules" `Quick test_validate_rejects_mangled;
        Alcotest.test_case "prepare refuses an invalid plan" `Quick test_prepare_rejects_invalid;
        Alcotest.test_case "PLAN frame roundtrip (all policies)" `Quick test_frame_roundtrip;
        Alcotest.test_case "PLAN frame rejects another circuit" `Quick test_frame_wrong_circuit;
        Alcotest.test_case "PLAN frame truncation sweep" `Quick test_frame_truncation_every_offset;
        Alcotest.test_case "PLAN frame bit-flip fuzz" `Quick test_frame_bit_flips;
      ] );
  ]
