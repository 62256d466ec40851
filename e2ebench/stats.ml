(* Sample statistics and metric naming for the benchmark's output. *)

(* Metric names: a letter or digit first, then letters, digits, '_', '.'
   and '-', at most 64 characters in all. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Percentile levels in per-mille, so nearest-rank arithmetic stays in
   integers (0.95 *. 20. is not exactly 19 in floating point). *)
let tail_ladder = [ 500; 750; 900; 950; 990; 999 ]

(* 1-based nearest rank of the [permille] percentile among [n] samples. *)
let nearest_rank ~permille n = max 1 (((permille * n) + 999) / 1000)

type tail = { permille : int; value : float; beyond : int }

(* A tail percentile is reported only with this many samples beyond it. *)
let tail_min_beyond = 10

(* The highest ladder percentile that leaves at least [tail_min_beyond]
   samples strictly above its rank; [None] when there are too few
   samples for even the median to qualify. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.fold_left
    (fun acc permille ->
      let r = nearest_rank ~permille n in
      if n - r >= tail_min_beyond then
        Some { permille; value = a.(r - 1); beyond = n - r }
      else acc)
    None tail_ladder

let percentile_label permille =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)
