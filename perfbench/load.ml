(* Open-loop accounting: each request is timed from when it was due, a
   request that failed, was refused or was answered wrongly counts as
   infinitely late (so it misses every latency limit), and a rate is
   sustained only when the tail stays within the limit and the generator's
   lateness does not keep growing. *)

type outcome = {
  due : float;  (** seconds, on the generator's clock *)
  sent : float;
  done_ : float;
  ok : bool;  (** answered by the primary rung with the reference's class *)
  wrong : bool;  (** answered with another class *)
  attempts : int;  (** wire attempts, retries included *)
  shard : int;  (** shard that answered, -1 if none *)
}

let latency_ms o = if o.ok then 1000.0 *. (o.done_ -. o.due) else infinity
let lateness_ms o = 1000.0 *. (o.sent -. o.due)

type verdict = {
  v_p50_ms : float;
  v_tail_ms : Stats.tail;
  v_late_ms : Stats.tail;
  v_growth_ms : float;  (** lateness of the last quarter minus that of the first *)
  v_meets : bool;
}

(* Correct answers per second in the busiest of [windows] equal stretches
   between the first due time and the last answer. *)
let peak_rate ~windows (out : outcome array) =
  if Array.length out = 0 then 0.0
  else
    let t0 = Array.fold_left (fun acc o -> Float.min acc o.due) infinity out in
    let t1 = Array.fold_left (fun acc o -> Float.max acc o.done_) neg_infinity out in
    let w = (t1 -. t0) /. float_of_int windows in
    let counts = Array.make windows 0 in
    Array.iter
      (fun o ->
        if o.ok then
          let i = min (windows - 1) (int_of_float ((o.done_ -. t0) /. w)) in
          counts.(i) <- counts.(i) + 1)
      out;
    float_of_int (Array.fold_left max 0 counts) /. w

let evaluate ~limit_ms (out : outcome array) =
  let lats = Array.map latency_ms out in
  let late = Array.map lateness_ms out in
  let n = Array.length late in
  let q = max 1 (n / 4) in
  let growth =
    if n = 0 then 0.0 else Stats.median (Array.sub late (n - q) q) -. Stats.median (Array.sub late 0 q)
  in
  let tail = Stats.tail lats in
  {
    v_p50_ms = Stats.median lats;
    v_tail_ms = tail;
    v_late_ms = Stats.tail late;
    v_growth_ms = growth;
    v_meets = n > 0 && tail.Stats.t_value <= limit_ms && growth <= limit_ms /. 2.0;
  }
