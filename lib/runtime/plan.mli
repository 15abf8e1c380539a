(** Compiled execution plans (DESIGN.md §14) — the only way a circuit runs.

    A plan is the ahead-of-time half of running a circuit: a topologically
    scheduled array of steps over a fixed ciphertext arena, with layout
    conversions made explicit, slot lifetimes precomputed (so live
    ciphertext memory is bounded by the arena high-water mark), and fusion
    opportunities counted. {!Executor.Make} prepares and replays it against
    a HISA backend.

    The records are deliberately transparent: the executor, the bundle
    store and the tests all inspect (and the prepare pass mutates
    [p_stats] of) a plan directly. *)

module Circuit = Chet_nn.Circuit

val op_name : Circuit.node -> string
(** Human description of a node ("conv2d 5x5/2"), for error context and
    trace spans. *)

(** {1 Layout policies} *)

(** The four pruned layout policies of §5.3. *)
type layout_policy = All_hw | All_chw | Hw_conv_chw_rest | Chw_fc_hw_before

val policy_name : layout_policy -> string
val all_policies : layout_policy list

val policy_tag : layout_policy -> int
(** The wire codec shared by the PLAN and CMPD frames. *)

val policy_of_tag : int -> layout_policy
(** @raise Chet_crypto.Serial.Corrupt on an unknown tag. *)

val assign : layout_policy -> Circuit.t -> Circuit.node -> Layout.kind
(** The layout kind a policy assigns to every node's output.
    @raise Chet_herr.Herr.Fhe_error ([Missing_node]) for a node of another
      circuit. *)

val required_margin : Circuit.t -> int
(** Border head-room (in input pixels) the circuit's Same convolutions
    need, accounting for the strides applied before them. *)

(** {1 Plans} *)

type op =
  | Op_node  (** run the circuit node's own kernel *)
  | Op_convert of Layout.kind  (** layout-convert the node's raw value *)

type step = {
  st_id : int;  (** position in the schedule *)
  st_node : Circuit.node;  (** circuit node this step computes (or converts) *)
  st_op : op;
  st_kind : Layout.kind;  (** layout kind of the result *)
  st_srcs : int array;  (** arena slots read *)
  st_dst : int;  (** arena slot written *)
  st_release : int array;  (** slots dead after this step (never contains [st_dst]) *)
  st_meta : Layout.meta;  (** static layout of the result *)
}

type stats = {
  mutable fused_mul_rescale : int;
  mutable fused_rot_acc : int;
  mutable fused_mul_acc : int;
}

type t = {
  p_circuit : Circuit.t;
  p_policy : layout_policy option;  (** [None]: an explicit per-node assignment *)
  p_slots : int;
  p_margin : int;
  p_input_meta : Layout.meta;  (** the layout the input is encrypted at *)
  p_steps : step array;
  p_arena : int;  (** arena size = ciphertext-tensor high-water mark *)
  p_output : int;  (** arena slot holding the circuit output after the last step *)
  p_stats : stats;  (** fusion counts, filled in by [Executor.Make.prepare] *)
}

val build : ?margin:int -> ?twin:bool -> slots:int -> policy:layout_policy -> Circuit.t -> t
(** Schedule the circuit under a layout policy: one step per node in
    topological order, conversion steps emitted on demand before their
    first consumer and shared by later ones, then arena slots assigned by
    a liveness pass. [margin] defaults to {!required_margin}; [twin]
    (default false) lays every tensor out on the interleaved sentinel
    layout of {!Layout.create}. *)

val build_assigned :
  ?margin:int -> ?twin:bool -> slots:int -> kind_of:(Circuit.node -> Layout.kind) -> Circuit.t -> t
(** {!build} under an explicit per-node assignment instead of a policy
    (the exhaustive layout search and its tests). *)

val validate : t -> (unit, string) result
(** Structural soundness: schedule order, slot bounds, no read of a dead
    or released slot, output alive at the end. *)

val summary : t -> string

val to_string : t -> string
(** The checksummed PLAN frame ({!Chet_crypto.Serial} discipline). Weights
    and the circuit itself are {e not} serialized — a plan only references
    its circuit's node ids. *)

val of_string : circuit:Circuit.t -> string -> t
(** Rebind a PLAN frame to the circuit it was built from; validates the
    frame and the rebuilt plan. @raise Chet_crypto.Serial.Corrupt on
    version, checksum, id or validation mismatch. *)
