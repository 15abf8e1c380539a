(* Workload inputs, derived from the workload seed alone: the same seed
   gives the same images and the same arrival schedule, and the program
   under test only ever sees the generated values. *)

let derive ~seed ~stream ~index = Hashtbl.seeded_hash seed (stream, index) land 0x3FFFFFFF

(* The [index]-th input image of a run, shaped for [spec]. *)
let image (spec : Chet_nn.Models.spec) ~seed ~index =
  Chet_tensor.Dataset.image ~seed:(derive ~seed ~stream:"image" ~index)
    ~channels:spec.Chet_nn.Models.input_channels ~height:spec.Chet_nn.Models.input_height
    ~width:spec.Chet_nn.Models.input_width

(* Poisson arrivals at [rate] per second over [duration] seconds: the due
   times (seconds from the start of the window), ascending. *)
let arrivals ~seed ~stream ~rate ~duration =
  let st = Random.State.make [| seed; Hashtbl.hash stream |] in
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []
