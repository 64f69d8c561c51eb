(* Opcode class tags. The order matches the ROB backend's retirement
   class table ("alu"; "mov"; "load"; "store"; "cmp"; "setc"; "out";
   "nop"; "branch"), so class counters index by tag directly. *)
let kalu = 0
let kmov = 1
let kload = 2
let kstore = 3
let kcmp = 4
let ksetc = 5
let kout = 6
let knop = 7
let kbranch = 8
let num_kinds = 9

(* Terminator tags. *)
let thalt = 0
let tjmp = 1
let tbr = 2

type t = {
  source : Program.t;
  entry : int;
  nblocks : int;
  index : (string, int) Hashtbl.t;
  labels : Label.t array;
  op_bounds : int array;
  kind : int array;
  dst : int array;
  aux : int array;
  alu : Opcode.alu array;
  cmp : Opcode.cmp array;
  s1_reg : int array;
  s1_imm : int array;
  s2_reg : int array;
  s2_imm : int array;
  is_load : bool array;
  is_store : bool array;
  may_fault : bool array;
  ops : Instr.op array;
  term_kind : int array;
  term_src : int array;
  term_t : int array;
  term_f : int array;
  nregs : int;
  nconds : int;
}

let num_ops d = Array.length d.kind
let block_ops d bi = d.op_bounds.(bi + 1) - d.op_bounds.(bi)

let of_program (p : Program.t) =
  let blocks = Array.of_list p.Program.blocks in
  let nblocks = Array.length blocks in
  let index = Program.block_index p in
  (* Unknown targets become -1 and only raise if control actually
     reaches them, matching the tree path's lazy [Program.find]. *)
  let resolve l =
    match Hashtbl.find_opt index (Label.name l) with Some i -> i | None -> -1
  in
  let op_bounds = Array.make (nblocks + 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (b : Program.block) ->
      op_bounds.(i) <- !total;
      total := !total + List.length b.Program.body)
    blocks;
  op_bounds.(nblocks) <- !total;
  let n = !total in
  let kind = Array.make n knop in
  let dst = Array.make n (-1) in
  let aux = Array.make n 0 in
  let alu = Array.make n Opcode.Add in
  let cmp = Array.make n Opcode.Eq in
  let s1_reg = Array.make n (-1) in
  let s1_imm = Array.make n 0 in
  let s2_reg = Array.make n (-1) in
  let s2_imm = Array.make n 0 in
  let is_load = Array.make n false in
  let is_store = Array.make n false in
  let may_fault = Array.make n false in
  let ops = Array.make n Instr.Nop in
  let labels = Array.map (fun (b : Program.block) -> b.Program.label) blocks in
  let term_kind = Array.make (max 1 nblocks) thalt in
  let term_src = Array.make (max 1 nblocks) (-1) in
  let term_t = Array.make (max 1 nblocks) (-1) in
  let term_f = Array.make (max 1 nblocks) (-1) in
  let set1 i (o : Operand.t) =
    match o with
    | Operand.Reg r -> s1_reg.(i) <- Reg.index r
    | Operand.Imm v -> s1_imm.(i) <- v
  in
  let set2 i (o : Operand.t) =
    match o with
    | Operand.Reg r -> s2_reg.(i) <- Reg.index r
    | Operand.Imm v -> s2_imm.(i) <- v
  in
  let decode_op i (op : Instr.op) =
    ops.(i) <- op;
    match op with
    | Instr.Alu { op = o; dst = d; a; b } ->
        kind.(i) <- kalu;
        dst.(i) <- Reg.index d;
        alu.(i) <- o;
        may_fault.(i) <- Opcode.alu_unsafe o;
        set1 i a;
        set2 i b
    | Instr.Mov { dst = d; src } ->
        kind.(i) <- kmov;
        dst.(i) <- Reg.index d;
        set1 i src
    | Instr.Load { dst = d; base; off } ->
        kind.(i) <- kload;
        dst.(i) <- Reg.index d;
        aux.(i) <- off;
        is_load.(i) <- true;
        may_fault.(i) <- true;
        s1_reg.(i) <- Reg.index base
    | Instr.Store { src; base; off } ->
        kind.(i) <- kstore;
        aux.(i) <- off;
        is_store.(i) <- true;
        may_fault.(i) <- true;
        s1_reg.(i) <- Reg.index base;
        s2_reg.(i) <- Reg.index src
    | Instr.Cmp { op = o; dst = d; a; b } ->
        kind.(i) <- kcmp;
        dst.(i) <- Reg.index d;
        cmp.(i) <- o;
        set1 i a;
        set2 i b
    | Instr.Setc { dst = d; op = o; a; b } ->
        kind.(i) <- ksetc;
        dst.(i) <- Cond.index d;
        cmp.(i) <- o;
        set1 i a;
        set2 i b
    | Instr.Out o ->
        kind.(i) <- kout;
        set1 i o
    | Instr.Nop -> kind.(i) <- knop
  in
  Array.iteri
    (fun bi (b : Program.block) ->
      List.iteri (fun j op -> decode_op (op_bounds.(bi) + j) op) b.Program.body;
      match b.Program.term with
      | Instr.Halt -> term_kind.(bi) <- thalt
      | Instr.Jmp l ->
          term_kind.(bi) <- tjmp;
          term_t.(bi) <- resolve l
      | Instr.Br { src; if_true; if_false } ->
          term_kind.(bi) <- tbr;
          term_src.(bi) <- Reg.index src;
          term_t.(bi) <- resolve if_true;
          term_f.(bi) <- resolve if_false)
    blocks;
  {
    source = p;
    entry = resolve p.Program.entry;
    nblocks;
    index;
    labels;
    op_bounds;
    kind;
    dst;
    aux;
    alu;
    cmp;
    s1_reg;
    s1_imm;
    s2_reg;
    s2_imm;
    is_load;
    is_store;
    may_fault;
    ops;
    term_kind;
    term_src;
    term_t;
    term_f;
    nregs = max 1 (Program.max_reg p + 1);
    nconds = max 1 (Program.max_cond p + 1);
  }

let block_index d l =
  match Hashtbl.find_opt d.index (Label.name l) with Some i -> i | None -> -1

(* [run] validates with physical equality, like [Vliw_sim] does for the
   lowered VLIW form: a decoded form is a view of one exact program
   value, not of any structurally equal one. *)
let check_source d program =
  if d.source != program then
    invalid_arg "Decoded.check_source: decoded form built from a different program"
