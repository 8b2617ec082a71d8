(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let s = sorted a in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median_list l = percentile (Array.of_list l) 50.0

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Python's [statistics.quantiles(values, n=4)] (the "exclusive"
   method): the quartiles the repeat-run spread is judged by. *)
let quartiles l =
  let d = sorted (Array.of_list l) in
  let ld = Array.length d in
  if ld < 2 then
    let v = if ld = 1 then d.(0) else Float.nan in
    (v, v, v)
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

(* IQR as a share of the median. *)
let spread l =
  let q1, q2, q3 = quartiles l in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
