(* The Homomorphic Instruction Set Architecture (Table 2 of the paper): the
   interface between the CHET runtime kernels and an FHE scheme. Backends:

   - Seal_backend  : real RNS-CKKS ("SEAL v3.1")
   - Heaan_backend : real power-of-two CKKS ("HEAAN v1.0")
   - Clear_backend : unencrypted reference that mimics scale/modulus
     semantics — CHET's "different interpretation" execution vehicle
   - Sim_backend   : Clear + a latency clock driven by a cost model

   The compiler's data-flow analyses (lib/core) are further implementations
   of this signature whose [ct] is the data-flow fact. They ignore plaintext
   values; that fact is not a member of [S] (OCaml signatures have no
   defaulted members, so a new one would break every implementation outside
   this tree) but an argument of the runtime's functors:
   [Kernels.BACKEND.value_free], which [Compiler.run_through] sets. *)

(** How the target scheme restricts [rescale] divisors — the only scheme
    behaviour the analyses must reproduce exactly (§5.2). *)
type scheme_kind =
  | Rns_chain of int array  (** remaining divisors are next chain primes *)
  | Pow2_modulus of int  (** any power of two [< Q]; field is [log2 Q] *)

(** Status of a ciphertext's modulus when an op executes: [r] is the number
    of active RNS primes (RNS-CKKS), [log_q] the current modulus bits
    (CKKS). Cost models read whichever their scheme needs. *)
type op_env = { env_n : int; env_r : int; env_log_q : int }

module type S = sig
  val slots : int
  (** SIMD width ([N/2] for CKKS schemes; 1 for schemes without batching). *)

  type pt
  type ct

  val encode : float array -> scale:int -> pt
  val decode : pt -> float array
  val encrypt : pt -> ct
  val decrypt : ct -> pt
  val copy : ct -> ct
  val free : ct -> unit
  val rot_left : ct -> int -> ct
  val rot_right : ct -> int -> ct
  val add : ct -> ct -> ct
  val add_plain : ct -> pt -> ct
  val add_scalar : ct -> float -> ct
  val sub : ct -> ct -> ct
  val sub_plain : ct -> pt -> ct
  val sub_scalar : ct -> float -> ct
  val mul : ct -> ct -> ct
  val mul_plain : ct -> pt -> ct

  val mul_scalar : ct -> float -> scale:int -> ct
  (** Multiply by [round(x · scale)], a plaintext integer constant applied to
      every slot — cheaper than [mul_plain] in CKKS (Table 1). *)

  val fma_scalar : ct -> ct -> float -> scale:int -> ct
  (** [fma_scalar acc x w ~scale] = [add acc (mul_scalar x w ~scale)] as one
      fused step: the accumulate pattern of every convolution tap. Backends
      that hold slot values fuse the two passes into one (no intermediate
      ciphertext); the per-slot arithmetic order is identical to the
      composition, so results are bit-identical. *)

  val fma_plain : ct -> ct -> pt -> ct
  (** [fma_plain acc x p] = [add acc (mul_plain x p)], fused. *)

  val fma_rot : ct -> ct -> int -> ct
  (** [fma_rot acc x r] = [add acc (rot_left x r)], fused — the
      rotate-accumulate step of fold/reduce trees. [r] is normalised modulo
      [slots]; [r = 0] degenerates to [add]. [acc == x] is permitted (the
      self-fold case): the result is a fresh ciphertext. *)

  val rescale : ct -> int -> ct
  (** Divisor must come from {!max_rescale}. *)

  val max_rescale : ct -> int -> int
  val scale_of : ct -> float

  val env_of : ct -> op_env
  (** Ring dimension and current modulus status — what the compiler's
      analyses need to observe (consumed levels, current logQ). *)
end

type t = (module S)

(* ------------------------------------------------------------------ *)
(* Cost models (Table 1)                                               *)
(* ------------------------------------------------------------------ *)

type cost_model = {
  cm_add : op_env -> float;
  cm_scalar_mul : op_env -> float;
  cm_plain_mul : op_env -> float;
  cm_cipher_mul : op_env -> float;
  cm_rotate : op_env -> float;
  cm_rescale : op_env -> float;
}

let logf n = log (float_of_int n) /. log 2.0

(* Asymptotics of Table 1 with unit constants; calibrated variants are built
   by Cost_calibration (bench) and Chet.Cost_model. *)
let rns_cost_model ?(c = 1e-9) () =
  let n e = float_of_int e.env_n in
  let r e = float_of_int e.env_r in
  {
    cm_add = (fun e -> c *. n e *. r e);
    cm_scalar_mul = (fun e -> c *. n e *. r e);
    cm_plain_mul = (fun e -> c *. n e *. r e);
    cm_cipher_mul = (fun e -> c *. n e *. logf e.env_n *. r e *. r e);
    cm_rotate = (fun e -> c *. n e *. logf e.env_n *. r e *. r e);
    cm_rescale = (fun e -> c *. n e *. logf e.env_n *. r e);
  }

let ckks_cost_model ?(c = 1e-9) () =
  let n e = float_of_int e.env_n in
  let lq e = float_of_int e.env_log_q in
  (* M(Q) = O(logQ^1.58) — Karatsuba-style big-integer multiplication *)
  let m_q e = lq e ** 1.58 /. 64.0 in
  {
    cm_add = (fun e -> c *. n e *. lq e);
    cm_scalar_mul = (fun e -> c *. n e *. m_q e);
    cm_plain_mul = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_cipher_mul = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_rotate = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_rescale = (fun e -> c *. n e *. lq e);
  }
