(* Golden outputs: bit-exact digests of executor outputs on fixed workloads,
   recorded once in test/data and compared by the tests, the bench and the
   plan smoke. A digest is the output shape plus the MD5 of every element's
   IEEE-754 bits, so any change in any bit of any output shows. *)

module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Kernels = Chet_runtime.Kernels
module Executor = Chet_runtime.Executor
module Compiler = Chet.Compiler
module Circuit = Chet_nn.Circuit
module Models = Chet_nn.Models
module T = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset

let digest (t : T.t) =
  let b = Buffer.create (8 * Array.length t.T.data) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) t.T.data;
  Printf.sprintf "%s %s"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.T.shape)))
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- random circuits -------------------------------------------------- *)

(* A random well-shaped circuit: input [c; s; s], then a random sequence of
   layer blocks, then optionally flatten+fc. Shapes are kept small so the
   whole suite stays fast. *)
let random_circuit seed =
  let st = Random.State.make [| seed; 77 |] in
  let b = Circuit.builder () in
  let c0 = 1 + Random.State.int st 3 in
  let s0 = [| 8; 10; 12 |].(Random.State.int st 3) in
  let x = ref (Circuit.input b ~name:"x" [| c0; s0; s0 |]) in
  let blocks = 1 + Random.State.int st 3 in
  for _ = 1 to blocks do
    let c, h, _ = ((!x).Circuit.shape.(0), (!x).Circuit.shape.(1), (!x).Circuit.shape.(2)) in
    match Random.State.int st 6 with
    | 0 ->
        (* conv, random kernel/padding/stride *)
        let k = [| 1; 3 |].(Random.State.int st 2) in
        let padding = if Random.State.bool st then T.Same else T.Valid in
        let stride = if padding = T.Same && h >= 4 && Random.State.bool st then 2 else 1 in
        let out_c = 1 + Random.State.int st 4 in
        if h > k then begin
          let weights = Dataset.glorot st [| out_c; c; k; k |] in
          x := Circuit.conv2d b !x ~weights ~bias:(Dataset.bias st out_c) ~stride ~padding ()
        end
    | 1 -> if h >= 4 && h mod 2 = 0 then x := Circuit.avg_pool b !x ~ksize:2 ~stride:2
    | 2 -> x := Circuit.poly_act b !x ~a:(0.05 +. Random.State.float st 0.1) ~b:1.0
    | 3 -> x := Circuit.square b !x
    | 4 ->
        let scale = Array.init c (fun _ -> 0.7 +. Random.State.float st 0.6) in
        let shift = Array.init c (fun _ -> Random.State.float st 0.2 -. 0.1) in
        x := Circuit.batch_norm b !x ~scale ~shift
    | _ ->
        (* branch: two convs then concat *)
        let out_c = 1 + Random.State.int st 2 in
        let w1 = Dataset.glorot st [| out_c; c; 3; 3 |] in
        let w2 = Dataset.glorot st [| out_c; c; 3; 3 |] in
        let a = Circuit.conv2d b !x ~weights:w1 ~stride:1 ~padding:T.Same () in
        let c2 = Circuit.conv2d b !x ~weights:w2 ~stride:1 ~padding:T.Same () in
        x := Circuit.concat b [ a; c2 ]
  done;
  let x =
    if Random.State.bool st then begin
      let flat = Circuit.flatten b !x in
      let out_d = 4 + Random.State.int st 8 in
      let weights = Dataset.glorot st [| out_d; T.numel_of_shape flat.Circuit.shape |] in
      Circuit.matmul b flat ~weights ~bias:(Dataset.bias st out_d) ()
    end
    else !x
  in
  Circuit.finish b ~name:(Printf.sprintf "random-%d" seed) ~output:x

let random_image seed (circuit : Circuit.t) =
  let shape = circuit.Circuit.input.Circuit.shape in
  Dataset.image ~seed ~channels:shape.(0) ~height:shape.(1) ~width:shape.(2)

let random_backend () =
  Clear.make
    {
      Clear.slots = 2048;
      scheme = Hisa.Rns_chain (Array.make 64 ((1 lsl 30) - 35));
      strict_modulus = false;
      encode_noise = false;
    }

(* The fixed seed list: 128 seeds spread over the range the random-circuit
   properties draw from. *)
let random_seeds = List.init 128 (fun i -> i * 79)

let policy_index policy =
  let rec go i = function
    | [] -> invalid_arg "Golden.policy_index"
    | p :: rest -> if p = policy then i else go (i + 1) rest
  in
  go 0 Executor.all_policies

let random_key seed policy = Printf.sprintf "random/%d/%d" seed (policy_index policy)

let random_output seed policy =
  let circuit = random_circuit seed in
  let module H = (val random_backend () : Hisa.S) in
  let module E = Executor.Make (H) in
  E.run Kernels.default_scales circuit ~policy (random_image seed circuit)

(* --- zoo models --------------------------------------------------------- *)

(* Each model at its compiled policy, on the cleartext backend at the
   compiled ring dimension, on the seed-7 input. *)
let model_key (spec : Models.spec) = "model/" ^ spec.Models.model_name

let model_output (spec : Models.spec) =
  let circuit = spec.Models.build () in
  let compiled = Compiler.compile (Compiler.default_options ()) circuit in
  let opts = compiled.Compiler.opts in
  let backend =
    Clear.make
      {
        Clear.slots = Compiler.params_n compiled.Compiler.params / 2;
        scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
        strict_modulus = false;
        encode_noise = false;
      }
  in
  let module H = (val backend : Hisa.S) in
  let module E = Executor.Make (H) in
  E.run opts.Compiler.scales circuit ~policy:compiled.Compiler.policy
    (Models.input_for spec ~seed:7)

let models = Models.micro :: Models.all

(* --- compile decisions ---------------------------------------------------- *)

(* Everything [Compiler.compile] decides for one circuit: policy, params,
   the rotation multiset, the op counters and every policy's estimated cost
   (as %h, so any bit of it shows). A compile that fails records its
   exception instead. *)
let compile_digest (c : Compiler.compiled) =
  let module I = Chet_hisa.Instrument in
  let oc = c.Compiler.op_counters in
  Format.asprintf "%s|%a|%s|%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d|%s"
    (Executor.policy_name c.Compiler.policy)
    Compiler.pp_params c.Compiler.params
    (String.concat ";" (List.map (fun (r, k) -> Printf.sprintf "%d:%d" r k) c.Compiler.rotations))
    oc.I.encodes oc.I.decodes oc.I.encrypts oc.I.decrypts oc.I.adds oc.I.plain_adds
    oc.I.scalar_adds oc.I.ct_muls oc.I.plain_muls oc.I.scalar_muls oc.I.rescales
    (String.concat ";"
       (List.map
          (fun r ->
            Format.asprintf "%s=%a@%h" (Executor.policy_name r.Compiler.pr_policy)
              Compiler.pp_params r.Compiler.pr_params r.Compiler.pr_cost)
          c.Compiler.reports))

(* micro and every zoo model, for both targets, with sentinels off and on *)
let compile_cases =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun sentinel -> List.map (fun spec -> (target, sentinel, spec)) models)
        [ false; true ])
    [ Compiler.Seal; Compiler.Heaan ]

let compile_key (target, sentinel, (spec : Models.spec)) =
  Printf.sprintf "compile/%s/%s/%s"
    (match target with Compiler.Seal -> "seal" | Compiler.Heaan -> "heaan")
    (if sentinel then "sentinel" else "plain")
    spec.Models.model_name

let compile_output (target, sentinel, (spec : Models.spec)) =
  let opts = { (Compiler.default_options ~target ()) with Compiler.sentinel } in
  match Compiler.compile opts (spec.Models.build ()) with
  | c -> compile_digest c
  | exception e -> "error " ^ Printexc.to_string e

(* --- files -------------------------------------------------------------- *)

(* One entry per line: "<key> <shape> <md5>". *)
let load path =
  let h = Hashtbl.create 512 in
  In_channel.with_open_text path In_channel.input_lines
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Hashtbl.replace h (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ());
  h

let line key t = Printf.sprintf "%s %s" key (digest t)
let compile_line case = Printf.sprintf "%s %s" (compile_key case) (compile_output case)

(* [Ok ()] when [t] digests to the recorded entry for [key]. *)
let check table key t =
  match Hashtbl.find_opt table key with
  | None -> Error (Printf.sprintf "%s: no golden entry" key)
  | Some want ->
      let got = digest t in
      if got = want then Ok ()
      else Error (Printf.sprintf "%s: output %s, golden %s" key got want)
