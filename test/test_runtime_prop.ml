(* Property tests over the runtime: random well-shaped circuits must produce
   the same outputs through the homomorphic kernels (cleartext HISA backend,
   any layout policy) as through the reference engine. This is the strongest
   coverage we have of kernel/layout interactions — shapes, strides, padding
   and scale management are all exercised by construction. *)

module Hisa = Chet_hisa.Hisa
module Kernels = Chet_runtime.Kernels
module Executor = Chet_runtime.Executor
module Plan = Chet_runtime.Plan
module Circuit = Chet_nn.Circuit
module Reference = Chet_nn.Reference
module T = Chet_tensor.Tensor

let check_circuit_policy seed policy =
  let circuit = Golden.random_circuit seed in
  let image = Golden.random_image seed circuit in
  let expected = Reference.eval circuit image in
  let module H = (val Golden.random_backend () : Hisa.S) in
  let module E = Executor.Make (H) in
  let got = E.run Kernels.default_scales circuit ~policy image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
  if diff > bound then
    QCheck2.Test.fail_reportf "circuit %d under %s: diff %.5f > %.5f" seed
      (Executor.policy_name policy) diff bound
  else true

let prop name policy =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:25 ~print:string_of_int
       QCheck2.Gen.(int_range 0 10000)
       (fun seed -> check_circuit_policy seed policy))

(* Outputs must be *bit-identical* to the goldens in
   test/data/plan_random.golden — not merely within tolerance. They were
   recorded from the executor that walked the circuit node by node before
   plans became the only execution path; the staged kernels preserve the
   per-slot floating-point evaluation order exactly, so any deviation here
   is a fusion or scheduling bug, not noise. The seeds are a fixed list
   (Golden.random_seeds). *)
let goldens = lazy (Golden.load "data/plan_random.golden")

let plan_golden name policy =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun seed ->
          match
            Golden.check (Lazy.force goldens) (Golden.random_key seed policy)
              (Golden.random_output seed policy)
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "circuit %d under %s: %s" seed (Executor.policy_name policy) e)
        Golden.random_seeds)

let test_random_assignments () =
  (* plans built from arbitrary per-node assignments (not just the four
     policies) must also be correct — conversions can appear anywhere *)
  let st = Random.State.make [| 4242 |] in
  for seed = 0 to 7 do
    let circuit = Golden.random_circuit seed in
    let kinds = Hashtbl.create 16 in
    List.iter
      (fun (node : Circuit.node) ->
        Hashtbl.replace kinds node.Circuit.id
          (if Random.State.bool st then Chet_runtime.Layout.HW else Chet_runtime.Layout.CHW))
      (Circuit.topo_order circuit);
    let kind_of (node : Circuit.node) = Hashtbl.find kinds node.Circuit.id in
    let image = Golden.random_image seed circuit in
    let expected = Reference.eval circuit image in
    let module H = (val Golden.random_backend () : Hisa.S) in
    let module E = Executor.Make (H) in
    let plan = Plan.build_assigned ~slots:H.slots ~kind_of circuit in
    (match Plan.validate plan with
    | Ok () -> ()
    | Error r -> Alcotest.failf "random assignment on circuit %d: invalid plan: %s" seed r);
    let got = E.run_prepared (E.prepare ~pt_budget:0 Kernels.default_scales plan) image in
    let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
    let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
    if diff > bound then
      Alcotest.failf "random assignment on circuit %d: diff %.5f > %.5f" seed diff bound
  done

let suite =
  [
    ( "runtime:props",
      [
        prop "random circuits: HW" Executor.All_hw;
        prop "random circuits: CHW" Executor.All_chw;
        prop "random circuits: HW-conv CHW-rest" Executor.Hw_conv_chw_rest;
        plan_golden "plan bit-identical: HW" Executor.All_hw;
        plan_golden "plan bit-identical: CHW" Executor.All_chw;
        plan_golden "plan bit-identical: HW-conv CHW-rest" Executor.Hw_conv_chw_rest;
        plan_golden "plan bit-identical: CHW-fc HW-before" Executor.Chw_fc_hw_before;
        Alcotest.test_case "random per-node assignments" `Slow test_random_assignments;
      ] );
  ]
