open Psb_isa

type t = {
  program : Program.t;
  by_label : Program.block Label.Map.t;
  preds : Label.t list Label.Map.t;
  rpo : Label.t list;
}

let compute_rpo program by_label =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      let b = Label.Map.find l by_label in
      List.iter dfs (Program.successors b);
      order := l :: !order
    end
  in
  dfs program.Program.entry;
  !order

let of_program program =
  let by_label =
    List.fold_left
      (fun m (b : Program.block) -> Label.Map.add b.Program.label b m)
      Label.Map.empty program.Program.blocks
  in
  let rpo = compute_rpo program by_label in
  let preds =
    List.fold_left
      (fun acc l ->
        let b = Label.Map.find l by_label in
        List.fold_left
          (fun acc s ->
            let existing = Option.value (Label.Map.find_opt s acc) ~default:[] in
            if List.exists (Label.equal l) existing then acc
            else Label.Map.add s (l :: existing) acc)
          acc (Program.successors b))
      Label.Map.empty rpo
  in
  { program; by_label; preds; rpo }

let program t = t.program
let entry t = t.program.Program.entry
let block t l = Label.Map.find l t.by_label
let blocks t = List.map (block t) t.rpo
let succs t l = Program.successors (block t l)
let preds t l = Option.value (Label.Map.find_opt l t.preds) ~default:[]
let rpo t = t.rpo
let reachable t l = List.exists (Label.equal l) t.rpo

let exits t =
  List.filter
    (fun l -> match (block t l).Program.term with Instr.Halt -> true | _ -> false)
    t.rpo

let num_blocks t = List.length t.rpo
