(* Order statistics over exact samples, and the clocks the driver reads. *)

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

(* Geometric mean of positive values; nan for none. *)
let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* [ratio a b] with an empty base reading as 0. *)
let ratio a b = if b = 0. then 0. else a /. b

(* CPU seconds this process has used (user + system). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
