(* fhe-micro: one client sends sequential encrypted inferences of the
   [micro] network to an in-process Chet_serve.Service (one worker domain)
   over the real RNS-CKKS deployment the compiler picks, with the kernel
   pool at one domain per core. The ring kernels of lib/crypto do nearly all
   of the work; lib/serve and lib/runtime do little. *)

module Compiler = Chet.Compiler
module Service = Chet_serve.Service
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Tensor = Chet_tensor.Tensor
module Tracer = Chet_obs.Tracer
module Stats = Perfbench.Stats

let now = Chet_obs.Clock.now_s

(* Max abs error an answer may have against the cleartext reference. The
   compiled precision gives errors of up to about 0.1 on these inputs. *)
let tol = 0.25

let spec = Models.micro
let setups = 3
let min_inferences = 3

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable max_err : float;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; max_err = 0.0 }

let key_seed seed = Perfbench.Inputs.derive ~seed ~stream:"keys" ~index:0

let setup ~seed =
  let t0 = now () in
  let circuit = spec.Models.build () in
  let compiled = Compiler.compile (Compiler.default_options ()) circuit in
  let ladder = Service.ladder_of_compiled compiled ~seed:(key_seed seed) ~with_secret:true () in
  let svc = Service.create (Service.default_config ~domains:1 ()) ~circuit ~ladder in
  (now () -. t0, circuit, svc)

(* One checked inference: its latency from submit to checked answer
   ([infinity] when it failed) and its outcome. *)
let infer svc circuit tally ~seed ~index =
  let image = Perfbench.Inputs.image spec ~seed ~index in
  let reference = Reference.eval circuit image in
  let t0 = now () in
  let o = Service.infer svc ~seed:index image in
  let dt = now () -. t0 in
  tally.attempted <- tally.attempted + 1;
  let fail why =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "fhe-micro: request %d: %s\n%!" index why;
    infinity
  in
  let lat =
    match o.Service.out_result with
    | Error (e, _) -> fail (Chet_hisa.Herr.error_name e)
    | Ok got -> (
        match Perfbench.Oracle.approx ~tol ~reference ~got with
        | Error why ->
            tally.wrong <- tally.wrong + 1;
            fail ("wrong answer: " ^ why)
        | Ok _ when o.Service.out_degraded -> fail ("degraded rung " ^ o.Service.out_served_by)
        | Ok err ->
            tally.max_err <- Float.max tally.max_err err;
            dt)
  in
  (lat, o)

(* Closed loop: the next request goes out when the previous answer is in,
   until [seconds] have passed and at least [min_inferences] were made. *)
let closed_loop svc circuit tally ~seed ~seconds =
  let t0 = now () in
  let lats = ref [] and i = ref 0 in
  while List.length !lats < min_inferences || now () -. t0 < seconds do
    let lat, o = infer svc circuit tally ~seed ~index:!i in
    lats := (lat, o) :: !lats;
    incr i
  done;
  (List.rev !lats, now () -. t0)

let run ~seed ~seconds =
  Chet_crypto.Kpool.configure ~domains:(Domain.recommended_domain_count ());
  (* each set-up replaces the last, so only one keyset is alive at a time *)
  let setup_times = Array.make setups 0.0 and last = ref None in
  for k = 0 to setups - 1 do
    Option.iter (fun (_, svc) -> Service.shutdown svc) !last;
    last := None;
    Gc.compact ();
    let dt, circuit, svc = setup ~seed in
    setup_times.(k) <- dt;
    last := Some (circuit, svc)
  done;
  let circuit, svc = Option.get !last in
  let tally = tally () in
  let results, wall = closed_loop svc circuit tally ~seed ~seconds in
  Service.shutdown svc;
  let lats = Array.of_list (List.map fst results) in
  let tail = Stats.tail lats in
  let fastest = Stats.fastest lats in
  Printf.printf
    "fhe-micro: %d inferences in %.1f s, max |err| %.4f; median %.0f ms; tail is p%.0f of %d samples\n"
    tally.attempted wall tally.max_err (1000.0 *. Stats.median lats) tail.Stats.t_pct tail.Stats.t_count;
  let m = Perfbench.Report.m in
  {
    Perfbench.Report.correct = tally.wrong = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics =
      [
        m "setup_s" "s" (Stats.median setup_times);
        m "latency_ms" "ms" (1000.0 *. fastest);
        m "rate_per_s" "1/s" (1.0 /. fastest);
        m "peak_rss_mb" "MB" (Option.value ~default:0.0 (Perfbench.Procfs.vm_hwm_mb 0));
        m "ok_frac" "frac" (float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted);
      ];
  }

(* The traced run: the same deployment served twice from one keyset — once
   plain, once with Timed_backend and the benchmark's HISA spans around
   every per-request backend and the executor's node spans on — plus the
   ring microbenchmarks and the cost model's per-node prediction. *)
let run_traced ~seed ~seconds =
  Chet_crypto.Kpool.configure ~domains:(Domain.recommended_domain_count ());
  let circuit = spec.Models.build () in
  let compiled = Compiler.compile (Compiler.default_options ()) circuit in
  let probe = Crypto_probe.run compiled ~seed:(key_seed seed) in
  let factory, _ = Compiler.instantiate_factory compiled ~seed:(key_seed seed) ~with_secret:true () in
  let timer = Chet_hisa.Timed_backend.create () in
  let traced_factory ~req_seed =
    Attrib.wrap_spans (Chet_hisa.Timed_backend.wrap timer (factory ~req_seed))
  in
  let cfg = Service.default_config ~domains:1 () in
  let plain = Service.create cfg ~circuit ~ladder:(Service.ladder_of_factory compiled ~factory ()) in
  let traced =
    Service.create cfg ~circuit ~ladder:(Service.ladder_of_factory compiled ~factory:traced_factory ())
  in
  let tally = tally () in
  (* plain and traced inferences alternate, so warm-up and drift fall on
     both alike *)
  let tr = Tracer.create ~capacity:(1 lsl 20) () in
  let plain_res = ref [] and traced_res = ref [] in
  let gc_plain = ref (0.0, 0) and kp_traced = ref (0, 0) in
  let t0 = now () in
  let i = ref 0 in
  while List.length !traced_res < 2 || now () -. t0 < seconds do
    let gc0 = Gc.quick_stat () in
    plain_res := infer plain circuit tally ~seed ~index:!i :: !plain_res;
    let gc1 = Gc.quick_stat () in
    let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
    gc_plain :=
      ( fst !gc_plain +. words gc1 -. words gc0,
        snd !gc_plain + gc1.Gc.major_collections - gc0.Gc.major_collections );
    let kp0 = Chet_crypto.Kpool.stats () in
    Tracer.set_global (Some tr);
    let r =
      Fun.protect
        ~finally:(fun () -> Tracer.set_global None)
        (fun () -> infer traced circuit tally ~seed ~index:(!i + 1))
    in
    traced_res := r :: !traced_res;
    let kp1 = Chet_crypto.Kpool.stats () in
    kp_traced :=
      ( fst !kp_traced + kp1.Chet_crypto.Kpool.st_jobs - kp0.Chet_crypto.Kpool.st_jobs,
        snd !kp_traced + kp1.Chet_crypto.Kpool.st_chunks_stolen - kp0.Chet_crypto.Kpool.st_chunks_stolen );
    i := !i + 2
  done;
  let plain_res = List.rev !plain_res and traced_res = List.rev !traced_res in
  let k_plain = float_of_int (List.length plain_res) in
  Service.shutdown plain;
  Service.shutdown traced;
  let k = float_of_int (List.length traced_res) in
  let a = Attrib.analyse (Tracer.events tr) in
  let wall = List.fold_left (fun acc (l, _) -> acc +. l) 0.0 traced_res in
  let queue_s =
    List.fold_left (fun acc (_, o) -> acc +. (o.Service.out_queue_ms /. 1000.0)) 0.0 traced_res
  in
  let explained = queue_s +. Attrib.node_span_s a +. a.Attrib.hisa_outside_s in
  (* HISA op counts and seconds per inference, from the Timed_backend cells *)
  let cells = Chet_hisa.Timed_backend.cells timer in
  let per_class f =
    List.map
      (fun c ->
        ( c,
          List.fold_left
            (fun acc (op, _, count, mean) -> if Attrib.class_of_op op = c then acc +. f count mean else acc)
            0.0 cells
          /. k ))
      Attrib.classes
  in
  let counts = per_class (fun count _ -> float_of_int count) in
  let seconds_by = per_class (fun count mean -> float_of_int count *. mean) in
  let hisa_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 seconds_by in
  let ring_model_s =
    List.fold_left (fun acc (c, n) -> acc +. (n *. List.assoc c probe.Crypto_probe.per_class)) 0.0 counts
  in
  (* cost model: the chosen policy's estimate against the measured median,
     and its per-node prediction (Sim clock increments inside each node
     span) ranked against the measured per-node span time *)
  let plain_p50 = Stats.median (Array.of_list (List.map fst plain_res)) in
  let predicted =
    (List.find (fun r -> r.Compiler.pr_policy = compiled.Compiler.policy) compiled.Compiler.reports)
      .Compiler.pr_cost
  in
  let spearman =
    let opts = compiled.Compiler.opts in
    let backend, clock =
      Chet_hisa.Sim_backend.make_with_values
        {
          Chet_hisa.Sim_backend.n = Compiler.params_n compiled.Compiler.params;
          scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
          costs = (match opts.Compiler.cost with Some c -> c | None -> Chet.Cost_model.seal ());
        }
    in
    let module H = (val Attrib.wrap_spans ~cost:(fun () -> clock.Chet_hisa.Sim_backend.elapsed) backend) in
    let module E = Chet_runtime.Executor.Make (H) in
    let str = Tracer.create () in
    Tracer.set_global (Some str);
    Fun.protect
      ~finally:(fun () -> Tracer.set_global None)
      (fun () ->
        ignore
          (E.run opts.Compiler.scales circuit ~policy:compiled.Compiler.policy
             (Perfbench.Inputs.image spec ~seed ~index:0)));
    let pred = Attrib.per_node (fun n -> n.Attrib.n_cost_s) (Attrib.analyse (Tracer.events str)) in
    let meas = Attrib.per_node (fun n -> n.Attrib.n_s) a in
    let pairs =
      Hashtbl.fold
        (fun id p acc -> match Hashtbl.find_opt meas id with Some s -> (p, s) :: acc | None -> acc)
        pred []
    in
    Stats.spearman (Array.of_list (List.map fst pairs)) (Array.of_list (List.map snd pairs))
  in
  let traced_p50 = Stats.median (Array.of_list (List.map fst traced_res)) in
  let probe_s c = List.assoc c probe.Crypto_probe.per_class in
  Printf.printf
    "fhe-micro traced: %d plain + %d traced inferences; HISA %.3f s/inference measured, %.3f s \
     from ring per-call times; spans explain %.1f%% of wall\n"
    (List.length plain_res) (List.length traced_res) hisa_s ring_model_s
    (100.0 *. explained /. wall);
  let m = Perfbench.Report.m in
  {
    Perfbench.Report.correct = tally.wrong = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics =
      [
        m "crypto.ntt_fwd_us" "us" (1e6 *. probe.Crypto_probe.ntt_fwd_s);
        m "crypto.ntt_inv_us" "us" (1e6 *. probe.Crypto_probe.ntt_inv_s);
        m "crypto.rotate_ms" "ms" (1000.0 *. probe_s "rotate");
        m "crypto.mul_relin_ms" "ms" (1000.0 *. probe_s "mul");
        m "crypto.mul_plain_ms" "ms" (1000.0 *. probe_s "mul_plain");
        m "crypto.rescale_ms" "ms" (1000.0 *. probe_s "rescale");
        m "crypto.encrypt_ms" "ms" (1000.0 *. probe_s "encrypt");
        m "crypto.decrypt_ms" "ms" (1000.0 *. probe_s "decrypt");
        m "crypto.keygen_s" "s" probe.Crypto_probe.keygen_s;
        m "crypto.kpool_stolen_per_job" "count"
          (let jobs, stolen = !kp_traced in
           if jobs = 0 then 0.0 else float_of_int stolen /. float_of_int jobs);
      ]
      @ List.map (fun (c, n) -> m (Printf.sprintf "hisa.%s.n" c) "count" n) counts
      @ List.map (fun (c, s) -> m (Printf.sprintf "hisa.%s.s" c) "s" s) seconds_by
      @ [
          m "hisa.timed_s" "s" hisa_s;
          m "hisa.ring_model_s" "s" ring_model_s;
          m "hisa.attributed_frac" "frac" (hisa_s *. k /. wall);
        ]
      @ List.map
          (fun (kind, s) -> m (Printf.sprintf "runtime.%s.self_s" kind) "s" (s /. k))
          (Attrib.self_by_kind a)
      @ [
          m "runtime.alloc_mw_per_infer" "Mword" (fst !gc_plain /. 1e6 /. k_plain);
          m "runtime.major_gc_per_infer" "count" (float_of_int (snd !gc_plain) /. k_plain);
          m "core.cost_pred_ratio" "ratio" (predicted /. plain_p50);
          m "core.cost_spearman" "rho" spearman;
          m "serve.queue_ms" "ms" (1000.0 *. queue_s /. k);
          m "serve.overhead_ms" "ms" (1000.0 *. (wall -. explained) /. k);
          m "obs.attributed_frac" "frac" (explained /. wall);
          m "obs.trace_overhead_frac" "frac" ((traced_p50 /. plain_p50) -. 1.0);
          m "e2e.tail_ms" "ms"
            (1000.0 *. (Stats.tail (Array.of_list (List.map fst plain_res))).Stats.t_value);
        ];
  }
