(* Summary statistics over samples of one metric. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile: the smallest sample with at least a [q] share of
   the samples at or below it. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* A tail is only as good as the samples beyond it: take the highest of
   these percentiles that still leaves at least ten samples above its
   rank, and report none when even p75 cannot. *)
let tail_percentiles = [ 0.999; 0.99; 0.95; 0.9; 0.75 ]

let tail xs =
  let n = List.length xs in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      if n - rank >= 10 then Some (p, quantile p xs) else None)
    tail_percentiles
