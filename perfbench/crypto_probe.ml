(* Ring-layer microbenchmarks: each lib/crypto kernel called through its
   public function at the parameters of a compiled RNS deployment, so the
   per-call times can be set beside the HISA op counts of one inference. *)

module C = Chet_crypto.Rns_ckks
module Compiler = Chet.Compiler

let now = Chet_obs.Clock.now_s

(* Median seconds per call over repeated calls: at least [reps] calls, and
   more until [budget_s] has been spent. *)
let per_call ?(reps = 5) ?(budget_s = 0.5) f =
  let samples = ref [] and spent = ref 0.0 and n = ref 0 in
  while !n < reps || !spent < budget_s do
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    let dt = now () -. t0 in
    samples := dt :: !samples;
    spent := !spent +. dt;
    incr n
  done;
  Perfbench.Stats.median (Array.of_list !samples)

type t = {
  keygen_s : float;  (** secret, public, relinearisation and the selected rotation keys *)
  ntt_fwd_s : float;
  ntt_inv_s : float;
  per_class : (string * float) list;  (** seconds per call, by HISA op class *)
}

let run (compiled : Compiler.compiled) ~seed =
  match compiled.Compiler.params with
  | Compiler.Pow2_params _ -> invalid_arg "Crypto_probe.run: not an RNS deployment"
  | Compiler.Rns_params { n; prime_bits; num_primes; _ } ->
      let ctx =
        C.make_context (C.default_params ~n ~bits:prime_bits ~num_coeff_primes:num_primes ())
      in
      let rng = Chet_crypto.Sampling.create ~seed in
      let t0 = now () in
      let sk, keys = C.keygen ctx rng in
      List.iter (fun (r, _) -> C.add_rotation_key ctx rng sk keys r) compiled.Compiler.rotations;
      let keygen_s = now () -. t0 in
      let prime = (C.coeff_primes ctx).(0) in
      let table = Chet_crypto.Ntt.make_table ~n ~prime in
      let buf = Chet_crypto.Rvec.of_int_array (Array.init n (fun i -> i * 7919 mod prime)) in
      let ntt_fwd_s = per_call ~reps:50 ~budget_s:0.2 (fun () -> Chet_crypto.Ntt.forward_buf table buf) in
      let ntt_inv_s = per_call ~reps:50 ~budget_s:0.2 (fun () -> Chet_crypto.Ntt.inverse_buf table buf) in
      let level = C.max_level ctx in
      let scale = Float.ldexp 1.0 prime_bits in
      let values = Array.init (C.slot_count ctx) (fun i -> sin (float_of_int i)) in
      let pt = C.encode_real ctx ~level ~scale values in
      let ct = C.encrypt ctx rng keys.C.public pt in
      let product = C.mul ctx keys ct ct in
      let rot = match compiled.Compiler.rotations with (r, _) :: _ -> r | [] -> 1 in
      let per_class =
        [
          ("encode", per_call (fun () -> C.encode_real ctx ~level ~scale values));
          ("encrypt", per_call (fun () -> C.encrypt ctx rng keys.C.public pt));
          ("decrypt", per_call (fun () -> C.decode ctx (C.decrypt ctx sk ct)));
          ("add", per_call (fun () -> C.add ctx ct ct));
          ("mul_scalar", per_call (fun () -> C.mul_scalar ctx ct 0.5 ~scale:65536.0));
          ("mul_plain", per_call (fun () -> C.mul_plain ctx ct pt));
          ("mul", per_call (fun () -> C.mul ctx keys ct ct));
          ("rotate", per_call (fun () -> C.rotate ctx keys ct rot));
          ( "rescale",
            per_call (fun () -> C.rescale ctx product (C.max_rescale ctx product (1 lsl prime_bits)))
          );
        ]
      in
      { keygen_s; ntt_fwd_s; ntt_inv_s; per_class }
