(* Order statistics for the benchmark report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks; [a] sorted, non-empty *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (lo + 1) (n - 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = quantile_sorted (sorted xs) (p /. 100.)
let median xs = percentile xs 50.

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Percentiles a tail may be reported at, in permille, so the
   samples-beyond count is exact integer arithmetic. *)
let ladder_permille = [ 500; 900; 990; 999 ]

(* samples strictly above the [pm]-permille point of [n] samples *)
let samples_beyond ~n pm = n * (1000 - pm) / 1000

(** The highest ladder percentile with at least ten samples beyond it,
    in percent; [None] when even the median has fewer than ten. *)
let reportable_percentile n =
  List.fold_left
    (fun acc pm ->
      if samples_beyond ~n pm >= 10 then Some (float_of_int pm /. 10.) else acc)
    None ladder_permille

(** Samples a run needs before its p90 has ten samples beyond it. *)
let min_samples_p90 = 100
