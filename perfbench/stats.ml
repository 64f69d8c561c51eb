(* Order statistics over host timings. *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

let ratio num den = if den = 0. then 0. else num /. den

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
