type t = {
  index : (Label.t, int) Hashtbl.t;  (* label → block index *)
  blocks : Program.block array;
  counts : int array;  (* executions per block *)
  last : int;  (* the trace's final block (no successor), [-1] if empty *)
  branches : int array;  (* branch blocks: executions with a successor *)
  taken : int array;  (* ... of which went to [if_true] *)
  (* Per dynamic branch, in execution order: [2 * block + went-to-if_true]. *)
  branch_stream : int array;
}

let of_result program (r : Interp.result) =
  let blocks = Array.of_list program.Program.blocks in
  let nblocks = Array.length blocks in
  let index = Program.block_index program in
  let true_target = Array.make nblocks (-1) in
  Array.iteri
    (fun i (b : Program.block) ->
      match b.Program.term with
      | Instr.Br { if_true; _ } -> true_target.(i) <- Hashtbl.find index if_true
      | Instr.Jmp _ | Instr.Halt -> ())
    blocks;
  let trace = r.Interp.block_trace in
  let n = Array.length trace in
  let counts = Array.make nblocks 0 in
  let branches = Array.make nblocks 0 in
  let taken = Array.make nblocks 0 in
  let dynamic_branches = ref 0 in
  for i = 0 to n - 1 do
    let b = trace.(i) in
    counts.(b) <- counts.(b) + 1;
    if i + 1 < n && true_target.(b) >= 0 then begin
      branches.(b) <- branches.(b) + 1;
      incr dynamic_branches
    end
  done;
  let branch_stream = Array.make !dynamic_branches 0 in
  let k = ref 0 in
  for i = 0 to n - 2 do
    let b = trace.(i) in
    let t = true_target.(b) in
    if t >= 0 then begin
      let tk = trace.(i + 1) = t in
      if tk then taken.(b) <- taken.(b) + 1;
      branch_stream.(!k) <- (2 * b) + Bool.to_int tk;
      incr k
    end
  done;
  {
    index;
    blocks;
    counts;
    last = (if n = 0 then -1 else trace.(n - 1));
    branches;
    taken;
    branch_stream;
  }

let find t l = Hashtbl.find_opt t.index l

let block_count t l = match find t l with Some b -> t.counts.(b) | None -> 0

let edge_count t ~src ~dst =
  match find t src with
  | None -> 0
  | Some b -> (
      match t.blocks.(b).Program.term with
      | Instr.Halt -> 0
      | Instr.Jmp l ->
          if Label.equal l dst then t.counts.(b) - Bool.to_int (b = t.last)
          else 0
      | Instr.Br { if_true; if_false; _ } ->
          (if Label.equal if_true dst then t.taken.(b) else 0)
          + if Label.equal if_false dst then t.branches.(b) - t.taken.(b) else 0)

let hot_blocks ?limit t =
  let all = ref [] in
  Array.iteri
    (fun b n -> if n > 0 then all := (t.blocks.(b).Program.label, n) :: !all)
    t.counts;
  let all =
    List.sort
      (fun (la, na) (lb, nb) ->
        match compare nb na with
        | 0 -> compare (Label.name la) (Label.name lb)
        | c -> c)
      !all
  in
  match limit with
  | None -> all
  | Some n -> List.filteri (fun i _ -> i < n) all

let dynamic_branches t = Array.length t.branch_stream

let taken_fraction t l =
  match find t l with
  | None -> None
  | Some b ->
      let total = t.branches.(b) in
      if total = 0 then None
      else Some (float_of_int t.taken.(b) /. float_of_int total)

(* Majority direction of block [b]; [true] when it never branched. *)
let predict_index t b =
  let taken = t.taken.(b) in
  taken >= t.branches.(b) - taken

let predict t l = match find t l with Some b -> predict_index t b | None -> true

let correctness t =
  Array.map
    (fun s -> predict_index t (s lsr 1) = (s land 1 = 1))
    t.branch_stream

let prediction_accuracy t =
  let c = correctness t in
  let n = Array.length c in
  if n = 0 then 1.0
  else
    float_of_int (Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 c)
    /. float_of_int n

let successive_accuracy t n =
  if n <= 0 then invalid_arg "Trace.successive_accuracy: n must be positive";
  let c = correctness t in
  let len = Array.length c in
  if len < n then 1.0
  else begin
    (* Sliding window: maintain the count of correct predictions inside the
       current window; a window counts iff all [n] are correct. *)
    let in_window = ref 0 in
    for i = 0 to n - 1 do
      if c.(i) then incr in_window
    done;
    let good = ref (if !in_window = n then 1 else 0) in
    for i = n to len - 1 do
      if c.(i - n) then decr in_window;
      if c.(i) then incr in_window;
      if !in_window = n then incr good
    done;
    float_of_int !good /. float_of_int (len - n + 1)
  end
