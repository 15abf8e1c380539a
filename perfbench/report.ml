(* The run's result: every metric with its unit, a human-readable line per
   metric, and the final one-line JSON object the benchmark contract asks
   for (always the last line of standard output). *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

(* JSON has no infinities: a latency that counts a failure as [infinity]
   prints as 1e12, which no passing run can reach. A NaN is a measurement
   that did not happen (the median of no samples); it fails the run rather
   than print as a number. *)
let finite x =
  if Float.is_nan x.value then failwith ("metric " ^ x.name ^ " was not measured")
  else if Float.is_finite x.value then x.value
  else Float.copy_sign 1e12 x.value

let to_json r =
  let module J = Chet_obs.Jsonx in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Num (float_of_int r.attempted));
         ("failed", J.Num (float_of_int r.failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun x -> (x.name, J.Obj [ ("value", J.Num (finite x)); ("unit", J.Str x.unit_) ]))
                r.metrics) );
       ])

let print r =
  let json = to_json r in
  List.iter (fun x -> Printf.printf "  %-40s %14.6g %s\n" x.name x.value x.unit_) r.metrics;
  Printf.printf "%s\n%!" json
