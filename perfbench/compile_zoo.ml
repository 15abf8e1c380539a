(* compile-zoo: a closed loop in one process compiling three circuits of
   different shape for SEAL with the compiler's default options. The
   analysis passes of lib/core do all of the work, driving the lib/runtime
   executor over the Clear, Sim, Shape and Instrument backends; lib/crypto
   does none of it. LeNet-5-large and Industrial are left out to keep one
   pass near 20 s. At the seed the compiler chooses (CHW, N=32768, logQ 450,
   56 keys), (CHW, 32768, 450, 66) and (HW, 65536, 990, 28); these are
   reported, not checked. *)

module Compiler = Chet.Compiler
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Executor = Chet_runtime.Executor
module Tracer = Chet_obs.Tracer
module Stats = Perfbench.Stats

let now = Chet_obs.Clock.now_s
let models = [ Models.lenet5_small; Models.lenet5_medium; Models.squeezenet_cifar ]
let min_passes = 2

(* Set-up is timed in bursts of this many circuit builds, one before each
   compile and one after the checks. A build takes milliseconds and the
   machine's speed changes by up to 1.8x every few seconds, so a burst sees
   one speed; bursts spread over the run more often meet the faster one. *)
let burst = 12

(* Max abs error of a strict Clear run with encode noise on against the
   reference evaluator. *)
let tol = 0.05

let build_all () = List.map (fun (s : Models.spec) -> (s, s.Models.build ())) models

let compile circuit = Compiler.compile (Compiler.default_options ()) circuit

(* One pass: every model compiled once, each after [before ()]. Returns
   the pass time (the compiles' time, summed) and the per-model compile
   times and results. *)
let pass ?(before = ignore) circuits =
  let per_model =
    List.map
      (fun (s, c) ->
        before ();
        let t = now () in
        let r = compile c in
        (s, now () -. t, r))
      circuits
  in
  (List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0.0 per_model, per_model)

(* The compiled configuration executed on a strict-modulus Clear backend
   with encode noise on: it must not run out of modulus, and it must agree
   with the reference evaluator. *)
let clear_check (spec : Models.spec) circuit (c : Compiler.compiled) ~seed =
  let opts = c.Compiler.opts in
  let module B =
    (val Chet_hisa.Clear_backend.make
           {
             Chet_hisa.Clear_backend.slots = Compiler.params_n c.Compiler.params / 2;
             scheme = Compiler.scheme_of_params opts c.Compiler.params;
             strict_modulus = true;
             encode_noise = true;
           })
  in
  let module E = Executor.Make (B) in
  let image = Perfbench.Inputs.image spec ~seed ~index:0 in
  match E.run opts.Compiler.scales circuit ~policy:c.Compiler.policy image with
  | got -> Perfbench.Oracle.approx ~tol ~reference:(Reference.eval circuit image) ~got
  | exception Chet_hisa.Herr.Fhe_error (e, _) -> Error (Chet_hisa.Herr.error_name e)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let fail tally why =
  tally.failed <- tally.failed + 1;
  tally.wrong <- tally.wrong + 1;
  Printf.eprintf "compile-zoo: %s\n%!" why

(* The median time of one burst of circuit builds. *)
let setup_burst () =
  Stats.median
    (Array.init burst (fun _ ->
         let t0 = now () in
         ignore (build_all ());
         now () -. t0))

(* Compile passes until [seconds] have passed and at least [min_passes]
   were made, a set-up burst before each compile; every compile of a model
   must match that model's first. *)
let loop circuits tally ~seconds =
  let t0 = now () in
  let first = Hashtbl.create 4 in
  let passes = ref [] and bursts = ref [] in
  while List.length !passes < min_passes || now () -. t0 < seconds do
    let dt, per_model = pass circuits ~before:(fun () -> bursts := setup_burst () :: !bursts) in
    List.iter
      (fun ((s : Models.spec), _, c) ->
        tally.attempted <- tally.attempted + 1;
        let fp = Perfbench.Oracle.fingerprint c in
        match Hashtbl.find_opt first s.Models.model_name with
        | None -> Hashtbl.add first s.Models.model_name (fp, c)
        | Some (fp0, _) ->
            if fp <> fp0 then fail tally (s.Models.model_name ^ ": compile is not deterministic"))
      per_model;
    passes := (dt, per_model) :: !passes
  done;
  (List.rev !passes, !bursts, fun name -> snd (Hashtbl.find first name))

(* Outside the timed loop: the security check of every model's
   configuration, and its Clear execution. Untraced runs execute the two
   LeNets; SqueezeNet's strict Clear run at N=65536 takes about 30 s on its
   own, so every model is executed in the traced run instead, whose budget
   can carry it. *)
let executed_every_run (s : Models.spec) = s != Models.squeezenet_cifar

let checks circuits first tally ~seed ~execute =
  List.iter
    (fun ((s : Models.spec), circuit) ->
      let c = first s.Models.model_name in
      let name = s.Models.model_name in
      tally.attempted <- tally.attempted + 1;
      let t0 = now () in
      let clear = if execute s then clear_check s circuit c ~seed else Ok 0.0 in
      (match (clear, Perfbench.Oracle.secure_128 c) with
      | Ok _, Ok () -> ()
      | Error why, _ -> fail tally (name ^ ": clear run: " ^ why)
      | _, Error why -> fail tally (name ^ ": not 128-bit secure: " ^ why));
      Format.printf "compile-zoo: %s -> %s, %a, %d rotation keys (checked%s in %.1f s)@." name
        (Executor.policy_name c.Compiler.policy)
        Compiler.pp_params c.Compiler.params
        (List.length c.Compiler.rotations)
        (if execute s then ", executed" else "")
        (now () -. t0))
    circuits

let run ~seed ~seconds =
  let circuits = build_all () in
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let passes, bursts, first = loop circuits tally ~seconds in
  checks circuits first tally ~seed ~execute:executed_every_run;
  let bursts = Array.of_list (setup_burst () :: bursts) in
  let times = Array.of_list (List.map fst passes) in
  let tail = Stats.tail times in
  (* a pass at the run's best speed: each model's fastest compile, summed *)
  let fastest =
    List.fold_left
      (fun acc (s, _) ->
        let per_pass =
          List.map (fun (_, per_model) -> let _, dt, _ = List.find (fun (x, _, _) -> x == s) per_model in dt) passes
        in
        acc +. Stats.fastest (Array.of_list per_pass))
      0.0 circuits
  in
  Printf.printf "compile-zoo: %d passes, median %.0f ms; tail is p%.0f of %d samples\n"
    (Array.length times) (1000.0 *. Stats.median times) tail.Stats.t_pct tail.Stats.t_count;
  let m = Perfbench.Report.m in
  {
    Perfbench.Report.correct = tally.wrong = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics =
      [
        (* the median of the fastest set-up burst *)
        m "setup_s" "s" (Stats.fastest bursts);
        m "latency_ms" "ms" (1000.0 *. fastest);
        m "rate_per_s" "1/s" (1.0 /. fastest);
        m "peak_rss_mb" "MB" (Option.value ~default:0.0 (Perfbench.Procfs.vm_hwm_mb 0));
        m "ok_frac" "frac" (float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted);
      ];
  }

(* The traced run: the three analysis passes of every model timed one by
   one over the four layout policies (which also warms the heap up), a pass
   with the executor's node spans on (their time is the runtime's self time
   here: the analysis backends' HISA calls are not separately timed), a
   plain pass, and the checks of every model. *)
let run_traced ~seed ~seconds:_ =
  let circuits = build_all () in
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let opts = Compiler.default_options () in
  let passes_s = ref 0.0 in
  let breakdown =
    List.map
      (fun ((s : Models.spec), circuit) ->
        let sp = ref 0.0 and ec = ref 0.0 and sr = ref 0.0 in
        let timed acc f =
          let t0 = now () in
          let r = f () in
          let dt = now () -. t0 in
          acc := !acc +. dt;
          passes_s := !passes_s +. dt;
          r
        in
        List.iter
          (fun policy ->
            let params = timed sp (fun () -> Compiler.select_params opts circuit ~policy) in
            ignore (timed ec (fun () -> Compiler.estimate_cost opts circuit ~policy ~params));
            ignore (timed sr (fun () -> Compiler.select_rotations opts circuit ~policy ~params)))
          Executor.all_policies;
        (s, [ ("select_params_s", !sp); ("estimate_cost_s", !ec); ("select_rotations_s", !sr) ]))
      circuits
  in
  let tr = Tracer.create ~capacity:(1 lsl 20) () in
  Tracer.set_global (Some tr);
  let traced_s, traced =
    Fun.protect ~finally:(fun () -> Tracer.set_global None) (fun () -> pass circuits)
  in
  let gc0 = Gc.quick_stat () in
  let plain_s, plain = pass circuits in
  let gc1 = Gc.quick_stat () in
  List.iter2
    (fun (s, _, a) (_, _, b) ->
      tally.attempted <- tally.attempted + 1;
      if Perfbench.Oracle.fingerprint a <> Perfbench.Oracle.fingerprint b then
        fail tally (s.Models.model_name ^ ": compile is not deterministic"))
    traced plain;
  checks circuits
    (fun name -> let _, _, c = List.find (fun ((s : Models.spec), _, _) -> s.Models.model_name = name) plain in c)
    tally ~seed ~execute:(fun _ -> true);
  let a = Attrib.analyse (Tracer.events tr) in
  let breakdown =
    List.concat_map
      (fun ((s : Models.spec), parts) ->
        let _, compile_s, _ = List.find (fun (x, _, _) -> x == s) plain in
        List.map
          (fun (k, v) -> (Printf.sprintf "core.%s.%s" s.Models.model_name k, v))
          (parts @ [ ("compile_s", compile_s) ]))
      breakdown
  in
  Printf.printf "compile-zoo traced: plain pass %.2f s, traced pass %.2f s\n" plain_s traced_s;
  let m = Perfbench.Report.m in
  {
    Perfbench.Report.correct = tally.wrong = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics =
      List.map (fun (n, v) -> m n "s" v) breakdown
      @ [
          m "core.attributed_frac" "frac" (!passes_s /. plain_s);
          m "core.alloc_gw" "Gword"
            ((gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
             -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
            /. 1e9);
        ]
      @ List.map (fun (kind, s) -> m (Printf.sprintf "runtime.%s.self_s" kind) "s" s) (Attrib.self_by_kind a)
      @ [
          m "obs.trace_overhead_frac" "frac" ((traced_s /. plain_s) -. 1.0);
          m "obs.attributed_frac" "frac" (Attrib.node_span_s a /. traced_s);
          m "e2e.tail_ms" "ms" (1000.0 *. plain_s);
        ];
  }
