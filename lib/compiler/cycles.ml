open Psb_isa

(* A unit flattened for the replay: copy labels as block indices, the
   step table as an int array indexed [3 * cid + dir] (see [encode]),
   and each exit's cost (its issue cycle plus one). *)
type flat = {
  unit : Runit.t;
  copy_block : int array;
  steps : int array;
  exit_cost : int array;
}

(* A header block's unit, before and after its first visit. *)
type slot = No_unit | Pending of Runit.t | Ready of flat

let dtrue = 0
let dfalse = 1
let djmp = 2

let dir_code = function
  | Runit.Dtrue -> dtrue
  | Runit.Dfalse -> dfalse
  | Runit.Djmp -> djmp

(* [Goto cid] is [cid >= 0], [Take_exit xid] is [-1 - xid], and a missing
   step is [min_int]. *)
let missing = min_int

let encode = function Runit.Goto cid -> cid | Runit.Take_exit xid -> -1 - xid

let flatten resolve (u : Runit.t) sched =
  let steps = Array.make (3 * Array.length u.Runit.copies) missing in
  Hashtbl.iter
    (fun (cid, dir) step -> steps.((3 * cid) + dir_code dir) <- encode step)
    u.Runit.steps;
  {
    unit = u;
    copy_block =
      Array.map (fun (c : Runit.copy) -> resolve c.Runit.label) u.Runit.copies;
    steps;
    exit_cost =
      Array.init (Array.length u.Runit.exits) (fun xid ->
          Sched.exit_cycle sched xid + 1);
  }

let measure ~units ~schedules program ~block_trace:trace =
  let index = Program.block_index program in
  let resolve l = Option.value (Hashtbl.find_opt index l) ~default:(-1) in
  let blocks = Array.of_list program.Program.blocks in
  let nblocks = Array.length blocks in
  let label b = blocks.(b).Program.label in
  (* Per branch block, its two targets; [-1] for other blocks. *)
  let br_true = Array.make nblocks (-1) and br_false = Array.make nblocks (-1) in
  Array.iteri
    (fun i (b : Program.block) ->
      match b.Program.term with
      | Instr.Br { if_true; if_false; _ } ->
          br_true.(i) <- resolve if_true;
          br_false.(i) <- resolve if_false
      | Instr.Halt | Instr.Jmp _ -> ())
    blocks;
  (* Per header block: its unit, flattened on the first visit. *)
  let headers = Array.make nblocks No_unit in
  Label.Map.iter
    (fun h u ->
      let b = resolve h in
      if b >= 0 then headers.(b) <- Pending u)
    units;
  let n = Array.length trace in
  let block_at pos =
    let b = trace.(pos) in
    if b < 0 || b >= nblocks then
      failwith
        (Printf.sprintf
           "Cycles.measure: trace entry %d is block %d, outside 0..%d" pos b
           (nblocks - 1));
    b
  in
  let cycles = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let hb = block_at !pos in
    let f =
      match headers.(hb) with
      | Ready f -> f
      | Pending u ->
          let f = flatten resolve u (Label.Map.find (label hb) schedules) in
          headers.(hb) <- Ready f;
          f
      | No_unit ->
          failwith
            (Format.asprintf "Cycles.measure: no unit for %a" Label.pp (label hb))
    in
    (* Walk the copies of this unit along the recorded path. *)
    let rec walk cid =
      let b = block_at !pos in
      if f.copy_block.(cid) <> b then
        failwith
          (Format.asprintf "Cycles.measure: unit %a expected %a, trace has %a"
             Label.pp f.unit.Runit.header Label.pp
             f.unit.Runit.copies.(cid).Runit.label Label.pp (label b));
      let dir =
        if br_true.(b) < 0 then djmp
        else if !pos + 1 >= n then
          failwith "Cycles.measure: trace ends at a branch"
        else
          let next = trace.(!pos + 1) in
          if next = br_true.(b) then dtrue
          else if next = br_false.(b) then dfalse
          else failwith "Cycles.measure: trace does not follow the branch"
      in
      let step = f.steps.((3 * cid) + dir) in
      if step >= 0 then begin
        incr pos;
        walk step
      end
      else if step = missing then failwith "Cycles.measure: missing step"
      else begin
        cycles := !cycles + f.exit_cost.(-1 - step);
        incr pos
      end
    in
    walk 0
  done;
  !cycles
