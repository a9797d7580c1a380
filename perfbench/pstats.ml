(* Order statistics for the benchmark's latency and timing samples.

   Percentiles use linear interpolation between closest ranks (the
   "type 7" estimator: position (n-1)p in the sorted sample), so the
   median of an even sample is the mean of its two middle values. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.percentile: empty sample";
  if p < 0. || p > 1. then invalid_arg "Pstats.percentile: p outside [0, 1]";
  let h = float_of_int (n - 1) *. p in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

(* Samples strictly above the percentile's rank: a tail percentile is
   only reported when at least ten observations lie beyond it. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))
let supported ~n p = n > 0 && beyond ~n p >= 10

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
