(* Summary statistics with the reporting rules the benchmark follows:
   timings are reported as a median plus the highest percentile that still
   has at least ten samples beyond it, always with the sample count; a
   failed or refused operation is a sample of [infinity], so it misses every
   latency limit and drags percentiles up instead of vanishing. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = { t_pct : float; t_value : float; t_count : int }

(* The highest nearest-rank percentile with at least ten samples above its
   rank. Eleven samples or fewer leave no such percentile; the maximum is
   reported then, labelled as the 100th. *)
let tail xs =
  let beyond = 10 in
  let n = Array.length xs in
  if n = 0 then { t_pct = nan; t_value = nan; t_count = 0 }
  else if n <= beyond then { t_pct = 100.0; t_value = (sorted xs).(n - 1); t_count = n }
  else
    let k = n - beyond in
    { t_pct = 100.0 *. float_of_int k /. float_of_int n; t_value = (sorted xs).(k - 1); t_count = n }

(* The fastest of a run's operations. A slow stretch of the machine moves
   only the operations it covers, so this figure follows the program rather
   than the machine's slowest stretch; a slowdown of the program moves every
   operation. *)
let fastest xs = if Array.length xs = 0 then nan else Array.fold_left Float.min infinity xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Average ranks (ties share the mean of their positions), 1-based. *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do incr j done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do r.(idx.(k)) <- avg done;
    i := !j + 1
  done;
  r

let pearson xs ys =
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0.0 || !syy = 0.0 then nan else !sxy /. sqrt (!sxx *. !syy)

let spearman xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stats.spearman: length mismatch";
  if Array.length xs < 2 then nan else pearson (ranks xs) (ranks ys)
