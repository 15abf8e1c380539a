(* Attribution of traced time to layers, from spans alone: the executor's
   node spans (emitted by lib/runtime when a tracer is installed) and the
   benchmark's own spans around every HISA call, added here by wrapping the
   backend. Nothing inside lib/ is changed to get these numbers. *)

module Hisa = Chet_hisa.Hisa
module Tracer = Chet_obs.Tracer

(* The op classes reported per inference. Fused ops count with their main
   class, and decode with decrypt (both are the client's output side). *)
let classes =
  [ "rotate"; "mul"; "mul_plain"; "mul_scalar"; "add"; "rescale"; "encode"; "encrypt"; "decrypt" ]

let class_of_op = function
  | "rot_left" | "rot_right" | "fma_rot" -> "rotate"
  | "mul" -> "mul"
  | "mul_plain" | "fma_plain" -> "mul_plain"
  | "mul_scalar" | "fma_scalar" -> "mul_scalar"
  | "add" | "sub" | "add_plain" | "sub_plain" | "add_scalar" | "sub_scalar" -> "add"
  | "rescale" -> "rescale"
  | "encode" -> "encode"
  | "encrypt" -> "encrypt"
  | "decrypt" | "decode" -> "decrypt"
  | op -> op

(* Circuit-layer kind of an executor node span, from its layer name. *)
let kind_of_layer name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if has "conv2d" then "conv"
  else if has "matmul" then "fc"
  else if has "poly_act" || has "square" then "act"
  else "other"

let kinds = [ "conv"; "fc"; "act"; "other" ]

(* Wrap a backend so every HISA call runs inside a span of category
   "hisa" named after the op. With [cost], each span is also annotated with
   the increase of that clock across the call (the Sim backend's predicted
   seconds). A plain call when no tracer is installed. *)
let wrap_spans ?cost (backend : Hisa.t) : Hisa.t =
  let module B = (val backend) in
  (module struct
    let slots = B.slots

    type pt = B.pt
    type ct = B.ct

    let span op f =
      Tracer.with_span ~cat:"hisa" op (fun () ->
          match cost with
          | None -> f ()
          | Some clock ->
              let c0 = clock () in
              let r = f () in
              Tracer.annotate "cost_s" (Tracer.Float (clock () -. c0));
              r)

    let encode v ~scale = span "encode" (fun () -> B.encode v ~scale)
    let decode p = span "decode" (fun () -> B.decode p)
    let encrypt p = span "encrypt" (fun () -> B.encrypt p)
    let decrypt c = span "decrypt" (fun () -> B.decrypt c)
    let copy = B.copy
    let free = B.free
    let rot_left c k = span "rot_left" (fun () -> B.rot_left c k)
    let rot_right c k = span "rot_right" (fun () -> B.rot_right c k)
    let add a b = span "add" (fun () -> B.add a b)
    let sub a b = span "sub" (fun () -> B.sub a b)
    let add_plain c p = span "add_plain" (fun () -> B.add_plain c p)
    let sub_plain c p = span "sub_plain" (fun () -> B.sub_plain c p)
    let add_scalar c x = span "add_scalar" (fun () -> B.add_scalar c x)
    let sub_scalar c x = span "sub_scalar" (fun () -> B.sub_scalar c x)
    let mul a b = span "mul" (fun () -> B.mul a b)
    let mul_plain c p = span "mul_plain" (fun () -> B.mul_plain c p)
    let mul_scalar c x ~scale = span "mul_scalar" (fun () -> B.mul_scalar c x ~scale)
    let fma_scalar acc x w ~scale = span "fma_scalar" (fun () -> B.fma_scalar acc x w ~scale)
    let fma_plain acc x p = span "fma_plain" (fun () -> B.fma_plain acc x p)
    let fma_rot acc x r = span "fma_rot" (fun () -> B.fma_rot acc x r)
    let rescale c x = span "rescale" (fun () -> B.rescale c x)
    let max_rescale = B.max_rescale
    let scale_of = B.scale_of
    let env_of = B.env_of
  end : Hisa.S)

type node = {
  n_id : int;
  n_kind : string;
  n_s : float;  (** node span duration *)
  mutable n_hisa_s : float;  (** HISA span time inside the node span *)
  mutable n_cost_s : float;  (** summed [cost_s] annotations inside it *)
}

type t = {
  nodes : node list;  (** in start order *)
  hisa_outside_s : float;  (** HISA span time outside every node span *)
}

let secs ns = Int64.to_float ns /. 1e9

let float_attr name (e : Tracer.event) =
  match List.assoc_opt name e.Tracer.ev_attrs with
  | Some (Tracer.Float f) -> f
  | Some (Tracer.Int i) -> float_of_int i
  | _ -> 0.0

let int_attr name (e : Tracer.event) =
  match List.assoc_opt name e.Tracer.ev_attrs with Some (Tracer.Int i) -> i | _ -> -1

let str_attr name (e : Tracer.event) =
  match List.assoc_opt name e.Tracer.ev_attrs with Some (Tracer.Str s) -> s | _ -> ""

(* Assign each HISA span to the executor node span that contains it on the
   same domain. Node spans do not nest, so at most one contains it. *)
let analyse (events : Tracer.event list) =
  let ends (e : Tracer.event) = Int64.add e.Tracer.ev_ts_ns e.Tracer.ev_dur_ns in
  let node_evs = List.filter (fun e -> e.Tracer.ev_cat = "executor") events in
  let hisa_evs = List.filter (fun e -> e.Tracer.ev_cat = "hisa") events in
  let by_tid = Hashtbl.create 8 in
  let nodes =
    List.map
      (fun (e : Tracer.event) ->
        let n =
          {
            n_id = int_attr "node_id" e;
            n_kind = kind_of_layer (str_attr "layer" e);
            n_s = secs e.Tracer.ev_dur_ns;
            n_hisa_s = 0.0;
            n_cost_s = 0.0;
          }
        in
        Hashtbl.add by_tid e.Tracer.ev_tid (e, n);
        n)
      node_evs
  in
  let outside = ref 0.0 in
  List.iter
    (fun (h : Tracer.event) ->
      let d = secs h.Tracer.ev_dur_ns in
      let within (e, _) =
        Int64.compare e.Tracer.ev_ts_ns h.Tracer.ev_ts_ns <= 0 && Int64.compare (ends h) (ends e) <= 0
      in
      match List.find_opt within (Hashtbl.find_all by_tid h.Tracer.ev_tid) with
      | Some (_, n) ->
          n.n_hisa_s <- n.n_hisa_s +. d;
          n.n_cost_s <- n.n_cost_s +. float_attr "cost_s" h
      | None -> outside := !outside +. d)
    hisa_evs;
  { nodes; hisa_outside_s = !outside }

(* Node span time minus the HISA time inside it, summed per layer kind. *)
let self_by_kind t =
  List.map
    (fun k ->
      ( k,
        List.fold_left
          (fun acc n -> if n.n_kind = k then acc +. (n.n_s -. n.n_hisa_s) else acc)
          0.0 t.nodes ))
    kinds

let node_span_s t = List.fold_left (fun acc n -> acc +. n.n_s) 0.0 t.nodes

(* Per-node totals keyed by node id, summed over repeated runs. *)
let per_node f t =
  let h = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace h n.n_id (f n +. Option.value ~default:0.0 (Hashtbl.find_opt h n.n_id)))
    t.nodes;
  h
