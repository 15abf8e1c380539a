(** Value-free HISA backend: ciphertexts are just (scale, modulus budget) —
    the literal "ct datatype stores the data-flow information" of §5.1. The
    compiler's parameter and rotation-key passes and the latency simulator
    execute against it; it is orders of magnitude faster than
    {!Clear_backend} because no slot vectors exist. [encode] reads only its
    scale, so the analyses hand it empty vectors; [decode] returns zeros. *)

type config = { slots : int; scheme : Hisa.scheme_kind }

val make : config -> Hisa.t
