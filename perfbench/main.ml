(* The repository benchmark. Run from the repository root:

     perfbench/run.sh --workload fhe-micro --seed 1 --seconds 30 --trace 0

   prints a line per metric and, as the last line of standard output, one
   JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
   they are its per-layer metrics, from a separate traced run. A per-layer
   metric of a layer the workload does not exercise reads 0. *)

module Jsonx = Chet_obs.Jsonx

(* fhe-micro's traced run also measures the networked serving layers,
   which have no workload of their own (see Serve_net). Each gets half of
   the run's seconds. *)
let with_serving traced ~seed ~seconds =
  let a : Perfbench.Report.t = traced ~seed ~seconds:(seconds /. 2.0) in
  let b = Serve_net.measure ~seed ~seconds:(seconds /. 2.0) in
  {
    Perfbench.Report.correct = a.correct && b.correct;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    metrics = a.metrics @ b.metrics;
  }

let workloads =
  [
    ("fhe-micro", (Fhe_micro.run, with_serving Fhe_micro.run_traced));
    ("compile-zoo", (Compile_zoo.run, Compile_zoo.run_traced));
  ]

let usage () =
  prerr_endline
    "usage: perfbench/run.sh --workload (fhe-micro|compile-zoo) --seed N --seconds S \
     --trace (0|1)";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

(* The metric names and units this run must print, from BENCHMARK.json. *)
let declared ~traced =
  let j = Jsonx.of_file "BENCHMARK.json" in
  let key = if traced then "per_layer" else "end_to_end" in
  match Option.bind (Jsonx.member key j) Jsonx.to_arr with
  | None -> failwith ("BENCHMARK.json has no " ^ key)
  | Some l ->
      List.map
        (fun e ->
          match (Jsonx.str_member "name" e, Jsonx.str_member "unit" e) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
        l

(* Keep the run's metrics in declared order. An end-to-end metric the run
   did not produce is an error; a per-layer one reads 0. A produced metric
   that is not declared, or has another unit, is an error. *)
let select ~traced (r : Perfbench.Report.t) =
  let names = declared ~traced in
  List.iter
    (fun (x : Perfbench.Report.metric) ->
      match List.assoc_opt x.Perfbench.Report.name names with
      | None -> failwith ("undeclared metric " ^ x.Perfbench.Report.name)
      | Some u when u <> x.Perfbench.Report.unit_ ->
          failwith (Printf.sprintf "metric %s: unit %s, declared %s" x.name x.unit_ u)
      | Some _ -> ())
    r.Perfbench.Report.metrics;
  let metrics =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun (x : Perfbench.Report.metric) -> x.name = n) r.metrics with
        | Some x -> x
        | None when traced -> Perfbench.Report.m n u 0.0
        | None -> failwith ("end-to-end metric not measured: " ^ n))
      names
  in
  { r with Perfbench.Report.metrics }

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  let run, run_traced = List.assoc workload workloads in
  match (if traced then run_traced else run) ~seed ~seconds with
  | r -> Perfbench.Report.print (select ~traced r)
  | exception e ->
      Printf.eprintf "perfbench: %s: %s\n%!" workload (Printexc.to_string e);
      exit 1
