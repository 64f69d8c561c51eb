type block = {
  label : Label.t;
  body : Instr.op list;
  term : Instr.control;
}

type t = { entry : Label.t; blocks : block list }

let block label body term = { label; body; term }
let successors b = Instr.control_targets b.term

let validate ~entry blocks =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen b.label then
        invalid_arg
          (Format.asprintf "Program.make: duplicate label %a" Label.pp b.label);
      Hashtbl.add seen b.label ())
    blocks;
  if not (Hashtbl.mem seen entry) then
    invalid_arg
      (Format.asprintf "Program.make: entry %a not defined" Label.pp entry);
  List.iter
    (fun b ->
      List.iter
        (fun tgt ->
          if not (Hashtbl.mem seen tgt) then
            invalid_arg
              (Format.asprintf "Program.make: undefined target %a in block %a"
                 Label.pp tgt Label.pp b.label))
        (successors b))
    blocks

let make ~entry blocks =
  validate ~entry blocks;
  { entry; blocks }

let find t l = List.find (fun b -> Label.equal b.label l) t.blocks
let block_index t =
  let index = Hashtbl.create (2 * List.length t.blocks) in
  List.iteri (fun i b -> Hashtbl.replace index b.label i) t.blocks;
  index

let mem_label t l = List.exists (fun b -> Label.equal b.label l) t.blocks
let labels t = List.map (fun b -> b.label) t.blocks

let size t =
  List.fold_left (fun acc b -> acc + List.length b.body + 1) 0 t.blocks

let map_blocks f t = make ~entry:t.entry (List.map f t.blocks)

let fold_ops f init t =
  List.fold_left
    (fun acc b -> List.fold_left f acc b.body)
    init t.blocks

let defined_regs t =
  fold_ops
    (fun acc op -> List.fold_left (fun s r -> Reg.Set.add r s) acc (Instr.defs op))
    Reg.Set.empty t

let used_conds t =
  fold_ops
    (fun acc op ->
      match Instr.cond_def op with
      | Some c -> Cond.Set.add c acc
      | None -> acc)
    Cond.Set.empty t

let max_reg t =
  let m = ref (-1) in
  let see r = if Reg.index r > !m then m := Reg.index r in
  List.iter
    (fun b ->
      List.iter
        (fun op ->
          List.iter see (Instr.defs op);
          List.iter see (Instr.uses op))
        b.body)
    t.blocks;
  !m

let max_cond t =
  Cond.Set.fold (fun c m -> max (Cond.index c) m) (used_conds t) (-1)

let pp ppf t =
  Format.fprintf ppf "@[<v>entry %a@," Label.pp t.entry;
  List.iter
    (fun b ->
      Format.fprintf ppf "%a:@," Label.pp b.label;
      List.iter (fun op -> Format.fprintf ppf "  %a@," Instr.pp_op op) b.body;
      Format.fprintf ppf "  %a@," Instr.pp_control b.term)
    t.blocks;
  Format.fprintf ppf "@]"
