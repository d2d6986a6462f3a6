(* Statistics the benchmark reports and judges by.

   Conventions match Python's [statistics] module, which is what an
   outside reader will use to re-check a result file: [quartiles] is
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method) and
   [median] is [statistics.median]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [percentile xs p]: linear interpolation between closest ranks,
   [p] in [0, 100] *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* statistics.quantiles(xs, n=4), method="exclusive"; with fewer than
   two values Python raises, here the single value stands for all three *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* interquartile distance as a share of the median *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* The tail a sample supports: the highest percentile of [ladder] with
   at least ten samples beyond it.  A sample too small for even the
   median to qualify reports the median, so the caller always gets a
   number; [tail_pct] says which percentile was used. *)
let ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

let tail_pct n =
  List.fold_left
    (fun best p ->
      if float_of_int n *. (100. -. p) /. 100. >= 10. -. 1e-9 then p else best)
    50. ladder

let tail xs =
  let p = tail_pct (List.length xs) in
  (p, percentile xs p)

(* ------------------------------------------------------------------ *)
(* Compare verdicts                                                    *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = {
  c_old : float * float * float;  (** q1, median, q3 *)
  c_new : float * float * float;
  c_change : float;
      (** relative change of the median, signed so that positive is
          worse *)
  c_spread : float;  (** the wider of the two sides' spreads *)
  c_verdict : verdict;
}

(* Judge NEW against OLD for one metric.  Worse: the median moved the
   wrong way by more than [bound].  Better: every new run beats every old
   one, or the median improved by more than the old runs' own spread.
   Unresolved: the runs spread wider than [bound], so a move within it
   cannot be told from noise.  Same: none of those. *)
let compare ~better ~bound olds news =
  let m_old = median olds and m_new = median news in
  let q1o, _, q3o = quartiles olds and q1n, _, q3n = quartiles news in
  let sign = match better with Lower -> 1. | Higher -> -1. in
  let change = if m_old = 0. then 0. else sign *. (m_new -. m_old) /. Float.abs m_old in
  let wins =
    List.for_all
      (fun n ->
        List.for_all (fun o -> sign *. (n -. o) < 0.) olds)
      news
  in
  let spread_old = spread olds in
  let spread_ = Float.max spread_old (spread news) in
  let verdict =
    if olds = [] || news = [] then Unresolved
    else if wins then Better
    else if spread_ > bound then Unresolved
    else if change > bound then Worse
    else if -.change > spread_old then Better
    else Same
  in
  {
    c_old = (q1o, m_old, q3o);
    c_new = (q1n, m_new, q3n);
    c_change = change;
    c_spread = spread_;
    c_verdict = verdict;
  }
