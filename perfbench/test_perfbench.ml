(* Tests of the benchmark's own rules: the percentile rule, failures
   missing the latency limit, the oracles rejecting perturbed answers, and
   seeded inputs. *)

open Perfbench
module Tensor = Chet_tensor.Tensor
module Compiler = Chet.Compiler
module Models = Chet_nn.Models

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let percentile_rule () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let t = Stats.tail xs in
  check "tail of 100 samples is p90 with ten beyond" (t.Stats.t_pct = 90.0 && t.Stats.t_value = 90.0);
  check "tail reports the sample count" (t.Stats.t_count = 100);
  check "median of 100 samples" (Stats.median xs = 50.5);
  let small = Stats.tail [| 3.0; 1.0; 2.0 |] in
  check "fewer than eleven samples: the maximum, labelled p100"
    (small.Stats.t_pct = 100.0 && small.Stats.t_value = 3.0 && small.Stats.t_count = 3);
  let t11 = Stats.tail (Array.init 11 float_of_int) in
  check "eleven samples: ten beyond the lowest" (t11.Stats.t_value = 0.0);
  check "the fastest operation skips a failed one" (Stats.fastest [| 30.0; infinity; 9.0 |] = 9.0);
  check "no operations: not measured" (Float.is_nan (Stats.fastest [||]))

(* A NaN is a measurement that did not happen: it fails the run instead of
   printing as a number. *)
let unmeasured_fails () =
  let r m = { Report.correct = true; attempted = 1; failed = 0; metrics = [ m ] } in
  check "a measured metric prints" (String.length (Report.to_json (r (Report.m "x_ms" "ms" 1.5))) > 0);
  check "an unmeasured metric fails the run"
    (match Report.to_json (r (Report.m "x_ms" "ms" (Stats.median [||]))) with
    | _ -> false
    | exception Failure _ -> true)

let outcome ?(ok = true) ~due ~sent ~done_ () =
  { Load.due; sent; done_; ok; wrong = false; attempts = 1; shard = 0 }

let failures_miss_limit () =
  let fast i = outcome ~due:(float_of_int i) ~sent:(float_of_int i) ~done_:(float_of_int i +. 0.01) () in
  let all_fast = Array.init 40 fast in
  check "all fast requests meet a 100 ms limit" (Load.evaluate ~limit_ms:100.0 all_fast).Load.v_meets;
  check "a failed request is infinitely late"
    (Load.latency_ms (outcome ~ok:false ~due:0.0 ~sent:0.0 ~done_:0.001 ()) = infinity);
  let with_failures = Array.mapi (fun i o -> if i < 11 then { o with Load.ok = false } else o) all_fast in
  check "eleven failures of forty miss the limit"
    (not (Load.evaluate ~limit_ms:100.0 with_failures).Load.v_meets);
  let growing =
    Array.init 40 (fun i ->
        let d = float_of_int i *. 0.01 in
        outcome ~due:d ~sent:(d +. (0.02 *. float_of_int i)) ~done_:(d +. (0.02 *. float_of_int i) +. 0.005) ())
  in
  check "a growing generator backlog misses the limit"
    (not (Load.evaluate ~limit_ms:1000.0 growing).Load.v_meets);
  (* ten answers in the first second, two in the second *)
  let answers =
    Array.init 12 (fun i ->
        let t = if i < 10 then 0.1 *. float_of_int i else 1.5 +. (0.2 *. float_of_int i) in
        outcome ~ok:(i <> 3) ~due:t ~sent:t ~done_:(t +. 0.05) ())
  in
  check "the busiest stretch counts correct answers only"
    (Float.abs (Load.peak_rate ~windows:2 answers -. (9.0 /. (0.5 *. (answers.(11).Load.done_ -. 0.0))))
    < 1e-9)

let oracles () =
  let reference = Tensor.of_array [| 4 |] [| 0.1; 0.9; 0.2; -0.3 |] in
  let perturb i d =
    let t = Tensor.copy reference in
    t.Tensor.data.(i) <- t.Tensor.data.(i) +. d;
    t
  in
  check "approx accepts a small error"
    (Result.is_ok (Oracle.approx ~tol:0.2 ~reference ~got:(perturb 0 0.05)));
  check "approx rejects an error beyond tolerance"
    (Result.is_error (Oracle.approx ~tol:0.2 ~reference ~got:(perturb 3 0.5)));
  check "approx rejects a NaN" (Result.is_error (Oracle.approx ~tol:0.2 ~reference ~got:(perturb 3 nan)));
  let swapped = perturb 2 0.38 in
  swapped.Tensor.data.(1) <- swapped.Tensor.data.(1) -. 0.38;
  check "approx rejects a class change when the logit gap exceeds the tolerance"
    (Result.is_error (Oracle.approx ~tol:0.4 ~reference ~got:swapped));
  let close = Tensor.of_array [| 3 |] [| 0.50; 0.45; 0.0 |] in
  check "approx allows a swap of logits closer than the tolerance"
    (Result.is_ok
       (Oracle.approx ~tol:0.1 ~reference:close ~got:(Tensor.of_array [| 3 |] [| 0.46; 0.49; 0.0 |])));
  let circuit = Models.micro.Models.build () in
  let c = Compiler.compile (Compiler.default_options ()) circuit in
  check "a compile fingerprints like a second compile"
    (Oracle.fingerprint c = Oracle.fingerprint (Compiler.compile (Compiler.default_options ()) circuit));
  check "a changed rotation set changes the fingerprint"
    (Oracle.fingerprint c <> Oracle.fingerprint { c with Compiler.rotations = (1, 1) :: c.Compiler.rotations });
  check "the compiled parameters are 128-bit secure" (Result.is_ok (Oracle.secure_128 c));
  let insecure =
    {
      c with
      Compiler.params =
        Compiler.Rns_params { n = 16384; prime_bits = 30; num_primes = 40; log_q = 1230 };
    }
  in
  check "a modulus too large for N is rejected" (Result.is_error (Oracle.secure_128 insecure))

let seeded_inputs () =
  let img s i = Inputs.image Models.micro ~seed:s ~index:i in
  check "same seed, same image" ((img 7 3).Tensor.data = (img 7 3).Tensor.data);
  check "another seed, another image" ((img 7 3).Tensor.data <> (img 8 3).Tensor.data);
  check "another index, another image" ((img 7 3).Tensor.data <> (img 7 4).Tensor.data);
  let arr s = Inputs.arrivals ~seed:s ~stream:"mid" ~rate:30.0 ~duration:5.0 in
  check "same seed, same arrivals" (arr 7 = arr 7);
  check "another seed, other arrivals" (arr 7 <> arr 8);
  let a = arr 7 in
  check "arrivals ascend within the window"
    (Array.for_all (fun t -> t >= 0.0 && t < 5.0) a
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) <= a.(i + 1))))

let () =
  percentile_rule ();
  unmeasured_fails ();
  failures_miss_limit ();
  oracles ();
  seeded_inputs ();
  Printf.printf "perfbench tests: %d of %d passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
