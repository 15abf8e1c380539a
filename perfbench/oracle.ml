(* Answer oracles. Each compares against an independent reference — the
   cleartext reference evaluator in lib/nn, or a second run of the same
   computation — never against the compiler under test. *)

module Tensor = Chet_tensor.Tensor

(* Largest and second-largest entries of a tensor's data. *)
let top_two (t : Tensor.t) =
  Array.fold_left
    (fun (a, b) x -> if x > a then (x, a) else if x > b then (a, x) else (a, b))
    (neg_infinity, neg_infinity) t.Tensor.data

(* An approximate answer (FHE noise, or weights rounded to the compiled
   scales): max abs error against the reference within [tol], and the same
   class — unless the reference's top two logits are closer than [tol],
   where that error may legitimately swap them. *)
let approx ~tol ~(reference : Tensor.t) ~(got : Tensor.t) =
  if Tensor.numel got <> Tensor.numel reference then Error "shape mismatch"
  else
    let err =
      let m = ref 0.0 in
      Array.iteri
        (fun i r ->
          let d = Float.abs (r -. got.Tensor.data.(i)) in
          if Float.is_nan d || d > !m then m := if Float.is_nan d then infinity else d)
        reference.Tensor.data;
      !m
    in
    let a, b = top_two reference in
    if err > tol then Error (Printf.sprintf "max |err| %.4f > %.4f" err tol)
    else if Tensor.argmax got <> Tensor.argmax reference && a -. b >= tol then
      Error
        (Printf.sprintf "class %d, reference %d" (Tensor.argmax got) (Tensor.argmax reference))
    else Ok err

(* Everything a compile decides, as a string: two compiles of one circuit
   must produce the same fingerprint. *)
let fingerprint (c : Chet.Compiler.compiled) =
  let module C = Chet.Compiler in
  let oc = c.C.op_counters in
  let module I = Chet_hisa.Instrument in
  Format.asprintf "%s|%a|%s|%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d|%s|%s"
    (Chet_runtime.Executor.policy_name c.C.policy)
    C.pp_params c.C.params
    (String.concat ";" (List.map (fun (r, k) -> Printf.sprintf "%d:%d" r k) c.C.rotations))
    oc.I.encodes oc.I.decodes oc.I.encrypts oc.I.decrypts oc.I.adds oc.I.plain_adds
    oc.I.scalar_adds oc.I.ct_muls oc.I.plain_muls oc.I.scalar_muls oc.I.rescales
    (String.concat ";"
       (List.map (fun r -> string_of_int r) (I.distinct_rotations oc)))
    (String.concat ";"
       (List.map
          (fun r ->
            Format.asprintf "%s=%a@%h" (Chet_runtime.Executor.policy_name r.C.pr_policy)
              C.pp_params r.C.pr_params r.C.pr_cost)
          c.C.reports))

(* 128-bit security of the chosen parameters by the standard's table. *)
let secure_128 (c : Chet.Compiler.compiled) =
  let n = Chet.Compiler.params_n c.Chet.Compiler.params in
  let log_q = Chet.Compiler.params_log_q c.Chet.Compiler.params in
  match Chet_crypto.Security.max_log_q Chet_crypto.Security.Bits128 n with
  | bound when log_q <= bound -> Ok ()
  | bound -> Error (Printf.sprintf "logQ %d > %d allowed at N=%d" log_q bound n)
  | exception Invalid_argument m -> Error m
