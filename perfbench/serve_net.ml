(* The networked serving layers, measured in fhe-micro's traced run: an
   open loop from this process against `chet supervise micro --shards 2
   --domains 1` over unix sockets — the shipped cleartext, interpretive
   shard path. One request computes for only tens of milliseconds, so wire
   and routing in lib/net and lib/serve are a visible share of its latency,
   and the arrival schedule builds backlog that a closed loop never builds.
   lib/crypto does no work here.

   This path has no workload of its own. On the 2-vCPU machine the
   benchmark was defined on, the speed of which switches by 1.6-1.8x every
   few seconds and whose hypervisor at times steals a third of its CPU
   time, the median latency at 10/s spread by up to 2.97 of its median
   between ten runs, and that of each run's fastest second by 0.12 to 0.74;
   the largest bound a gated metric may have is 0.25. Its figures are therefore
   per-layer metrics, which have no bound.

   Poisson arrivals, drawn from the workload seed, run at three fixed rates
   set from the capacity measured when this benchmark was defined (about 35
   requests/s with one request in flight): well below it, below it, and
   above it. The two rates below capacity use one sender and one
   connection: a request waits in the generator while the previous one is
   in flight, and each latency is timed from the request's due time, so
   that wait counts. The rate above capacity uses one sender and one
   connection per core, so the supervisor routes concurrent requests to
   both shards; it gives the served capacity. *)

module Wire = Chet_net.Wire
module Client = Chet_net.Client
module Serial = Chet_crypto.Serial
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Tensor = Chet_tensor.Tensor
module Stats = Perfbench.Stats
module Procfs = Perfbench.Procfs

let now = Chet_obs.Clock.now_s

type rate = {
  name : string;
  per_s : float;  (** offered requests per second *)
  share : float;  (** share of the run's seconds *)
  senders : int;  (** concurrent senders, one connection each *)
}

let rates =
  [
    { name = "low"; per_s = 5.0; share = 0.15; senders = 1 };
    { name = "mid"; per_s = 10.0; share = 0.6; senders = 1 };
    { name = "high"; per_s = 60.0; share = 0.25; senders = Domain.recommended_domain_count () };
  ]

let mid = List.find (fun r -> r.name = "mid") rates
let high = List.find (fun r -> r.name = "high") rates

(* The served capacity is that of the busiest of this many stretches of
   the high rate: the machine's speed changes every few seconds. *)
let high_windows = 3

(* The latency limit on the tail percentile at each rate. *)
let limit_ms = 250.0

(* Max abs error of a served answer against the reference evaluator. The
   cleartext path rounds weights to the compiled scales, which moves logits
   by about 1e-4; two logits that close may swap. *)
let tol = 1e-3

(* Server-side deadline carried by every request. *)
let deadline_ms = 5000.0
let shards = 2
let spec = Models.micro
let chet = "_build/default/bin/chet_cli.exe"

(* ---- the supervisor process ---- *)

type sup = {
  pid : int;
  dir : string;
  front : Wire.addr;
  mutable shard_pids : int list;
  log : Unix.file_descr;
}

let shard_addr dir i = Wire.Unix_sock (Filename.concat dir (Printf.sprintf "shard-%d.sock" i))

let report front =
  match
    Client.health ~deadline_s:1.0 front
      (Serial.Health_report { hr_uptime_s = 0.0; hr_shards = [] })
  with
  | Ok (Serial.Health_report { hr_shards; _ }) -> Some hr_shards
  | _ -> None

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Wait until [pid] has exited, up to [timeout_s]; [true] if it has. *)
let wait_exit ?(child = false) pid ~timeout_s =
  let t0 = now () in
  let gone () =
    if child then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error _ -> true
    else not (Procfs.alive pid)
  in
  let rec go () = if gone () then true else if now () -. t0 > timeout_s then false else (Unix.sleepf 0.01; go ()) in
  go ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Stop the supervisor, every shard it started and the socket directory,
   whatever state the run left them in. A shard the supervisor did not stop
   gets its own graceful SIGTERM, then SIGKILL. *)
let teardown s =
  let stop_pid ~child pid =
    kill pid Sys.sigterm;
    if not (wait_exit ~child pid ~timeout_s:10.0) then begin
      kill pid Sys.sigkill;
      ignore (wait_exit ~child pid ~timeout_s:5.0)
    end
  in
  stop_pid ~child:true s.pid;
  List.iter (stop_pid ~child:false) s.shard_pids;
  Unix.close s.log;
  rm_rf s.dir

let live : sup list ref = ref []

let () =
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)

(* Spawn the supervisor and wait until both shards answer pings: the
   set-up time. Then wait until the front door routes to both. *)
let start ~work ~index =
  let dir = Filename.concat work (Printf.sprintf "sv%d" index) in
  rm_rf dir;
  mkdir_p dir;
  let front = Wire.Unix_sock (Filename.concat dir "front.sock") in
  let log_path = Filename.concat work (Printf.sprintf "supervise-%d.log" index) in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [| chet; "supervise"; spec.Models.model_name; "--front"; Wire.addr_to_string front;
       "--shards"; string_of_int shards; "--domains"; "1"; "--sock-dir"; dir |]
  in
  let t0 = now () in
  let pid = Unix.create_process chet argv Unix.stdin log log in
  let s = { pid; dir; front; shard_pids = []; log } in
  live := s :: !live;
  let deadline = t0 +. 60.0 in
  let until what ok =
    while not (ok ()) do
      if now () > deadline then failwith ("serving: supervisor never " ^ what);
      if Unix.waitpid [ Unix.WNOHANG ] pid <> (0, Unix.WEXITED 0) then failwith "serving: supervisor exited";
      Unix.sleepf 0.002
    done
  in
  until "answered pings" (fun () ->
      List.for_all
        (fun i -> Result.is_ok (Client.ping ~deadline_s:0.5 (shard_addr dir i)))
        (List.init shards Fun.id));
  let setup_s = now () -. t0 in
  until "routed to every shard" (fun () ->
      match report front with
      | Some hs when List.length hs = shards && List.for_all (fun h -> h.Serial.hs_up) hs ->
          s.shard_pids <- List.map (fun h -> h.Serial.hs_pid) hs;
          true
      | _ -> false);
  (* the supervisor installs its SIGTERM handler right after this line *)
  until "announced itself" (fun () ->
      match Procfs.read_file log_path with
      | Some text -> contains text "supervisor: pid"
      | None -> false);
  (s, setup_s)

let stop s =
  live := List.filter (fun x -> x != s) !live;
  teardown s

(* ---- the load generator ---- *)

open Perfbench.Load

type request = { id : int; image : Tensor.t; reference : Tensor.t }

let requests circuit ~seed ~base n =
  Array.init n (fun i ->
      let image = Perfbench.Inputs.image spec ~seed ~index:(base + i) in
      { id = base + i; image; reference = Reference.eval circuit image })

let send front r =
  let cfg = Client.default_config front in
  let rq =
    {
      Serial.rq_id = r.id;
      rq_seed = r.id;
      rq_hedge = 0;
      rq_deadline_ms = deadline_ms;
      rq_shape = r.image.Tensor.shape;
      rq_image = r.image.Tensor.data;
    }
  in
  Client.request cfg rq

let outcome r ~due ~sent (m : Client.result_meta) =
  let done_ = now () in
  let ok, wrong, shard =
    match m.Client.rm_response with
    | Error _ -> (false, false, -1)
    | Ok rs -> (
        match rs.Serial.rs_result with
        | Error _ -> (false, false, rs.Serial.rs_shard)
        | Ok (shape, data) -> (
            match Perfbench.Oracle.approx ~tol ~reference:r.reference ~got:(Tensor.of_array shape data) with
            | Ok _ -> (not rs.Serial.rs_degraded, false, rs.Serial.rs_shard)
            | Error _ -> (false, true, rs.Serial.rs_shard)))
  in
  { due; sent; done_; ok; wrong; attempts = m.Client.rm_attempts; shard }

(* [senders] threads take the requests in order and send each at its due
   time, or as soon as the sender's previous answer is in. With one sender,
   every request is sent; with more, the rate is above capacity and a
   request still unsent when the window closes is dropped, not attempted.
   An exception in a sender fails the run once every sender has stopped. *)
let open_loop ~senders ~duration front (reqs : request array) (dues : float array) =
  let t0 = now () +. 0.05 in
  let next = Atomic.make 0 in
  let out = Array.make (Array.length reqs) None in
  let raised = Atomic.make None in
  let rec sender () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length reqs then begin
      let due = t0 +. dues.(i) in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      if senders = 1 || now () < t0 +. duration then begin
        let sent = now () in
        out.(i) <- Some (outcome reqs.(i) ~due ~sent (send front reqs.(i)));
        sender ()
      end
    end
  in
  let guarded () = try sender () with e -> ignore (Atomic.compare_and_set raised None (Some e)) in
  List.iter Thread.join (List.init senders (fun _ -> Thread.create guarded ()));
  Option.iter raise (Atomic.get raised);
  Array.of_list (List.filter_map Fun.id (Array.to_list out))

type rate_result = { r_rate : rate; r_out : outcome array; r_v : verdict }

let run_rate front circuit ~seed ~seconds ~base ?name rate =
  let name = Option.value name ~default:rate.name in
  let duration = Float.max 2.0 (seconds *. rate.share) in
  let dues = Perfbench.Inputs.arrivals ~seed ~stream:name ~rate:rate.per_s ~duration in
  let reqs = requests circuit ~seed ~base (Array.length dues) in
  let out = open_loop ~senders:rate.senders ~duration front reqs dues in
  let r = { r_rate = rate; r_out = out; r_v = evaluate ~limit_ms out } in
  Printf.printf
    "serving: %-4s %5.1f/s, %d sender(s): %4d requests, p50 %7.2f ms, tail p%.1f %8.2f ms, %s\n%!"
    name rate.per_s rate.senders (Array.length r.r_out) r.r_v.v_p50_ms r.r_v.v_tail_ms.Stats.t_pct
    r.r_v.v_tail_ms.Stats.t_value
    (if r.r_v.v_meets then "meets the limit" else "misses the limit");
  r

(* Sockets and logs live in the checkout, under .perfbench/<pid>. At exit,
   whatever the outcome, every supervisor still running is stopped and the
   directory removed. *)
let work_dir () =
  let d = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  mkdir_p d;
  at_exit (fun () ->
      List.iter teardown !live;
      live := [];
      rm_rf d;
      try Unix.rmdir (Filename.dirname d) with Unix.Unix_error _ -> ());
  d

let peak_rss s = List.fold_left (fun acc p -> max acc (Option.value ~default:0.0 (Procfs.vm_hwm_mb p))) 0.0 s.shard_pids

(* The supervisor is started once; the three rates run against it, then
   the middle rate again while a sampler pings the front door (an HLTH
   round trip) ten times a second. CPU time of the supervisor and the
   shards comes from /proc around the three rates. *)
let measure ~seed ~seconds =
  let circuit = spec.Models.build () in
  let work = work_dir () in
  let s, setup_s = start ~work ~index:0 in
  let pids = s.pid :: s.shard_pids in
  let cpu () = List.map (fun p -> (p, Option.value ~default:0.0 (Procfs.cpu_s p))) pids in
  let cpu0 = cpu () in
  let results =
    List.mapi (fun k r -> run_rate s.front circuit ~seed ~seconds ~base:(k * 1_000_000) r) rates
  in
  let cpu1 = cpu () in
  let pings = ref [] and stop_pings = Atomic.make false in
  let pinger =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_pings) do
          let t0 = now () in
          (match Client.ping ~deadline_s:1.0 s.front with
          | Ok _ -> pings := (1000.0 *. (now () -. t0)) :: !pings
          | Error _ -> ());
          Unix.sleepf 0.1
        done)
      ()
  in
  ignore (run_rate s.front circuit ~seed ~seconds ~base:(10 * 1_000_000) ~name:"mid-sampled" mid);
  Atomic.set stop_pings true;
  Thread.join pinger;
  let rss = peak_rss s in
  stop s;
  let find rate = List.find (fun r -> r.r_rate == rate) results in
  let all = Array.concat (List.map (fun r -> r.r_out) results) in
  let count p = Array.fold_left (fun acc o -> if p o then acc + 1 else acc) 0 all in
  let n = float_of_int (Array.length all) in
  let delta p = List.assoc p cpu1 -. List.assoc p cpu0 in
  let shard_cpu = List.fold_left (fun acc p -> acc +. delta p) 0.0 s.shard_pids in
  let served = Array.init shards (fun i -> count (fun o -> o.shard = i)) in
  let mid_r = find mid in
  let m = Perfbench.Report.m in
  {
    Perfbench.Report.correct = count (fun o -> o.wrong) = 0;
    attempted = Array.length all;
    failed = count (fun o -> not o.ok);
    metrics =
      [
        m "net.setup_s" "s" setup_s;
        m "net.p50_ms" "ms" mid_r.r_v.v_p50_ms;
        m "net.tail_ms" "ms" mid_r.r_v.v_tail_ms.Stats.t_value;
        (* served capacity: answers per second while offered more than it *)
        m "net.capacity_per_s" "1/s" (peak_rate ~windows:high_windows (find high).r_out);
        m "net.max_ok_rate_per_s" "1/s"
          (List.fold_left (fun acc r -> if r.r_v.v_meets then Float.max acc r.r_rate.per_s else acc) 0.0 results);
        m "net.ping_ms" "ms" (Stats.median (Array.of_list !pings));
        m "net.attempts_per_req" "count"
          (float_of_int (Array.fold_left (fun acc o -> acc + o.attempts) 0 all) /. n);
        m "net.sup_cpu_ms_per_req" "ms" (1000.0 *. delta s.pid /. n);
        m "gen.late_ms" "ms" mid_r.r_v.v_late_ms.Stats.t_value;
        m "serve.shard_cpu_ms_per_req" "ms" (1000.0 *. shard_cpu /. n);
        m "serve.shard_share_max" "frac"
          (float_of_int (Array.fold_left max 0 served) /. float_of_int (Array.fold_left ( + ) 0 served));
        m "serve.shard_rss_mb" "MB" rss;
      ];
  }
