(** Scalar programs: labelled basic blocks with a unique entry. *)

type block = {
  label : Label.t;
  body : Instr.op list;
  term : Instr.control;
}

type t = private { entry : Label.t; blocks : block list }

val block : Label.t -> Instr.op list -> Instr.control -> block

val make : entry:Label.t -> block list -> t
(** Validates that labels are unique, the entry exists, and every branch
    target names a block. @raise Invalid_argument otherwise. *)

val find : t -> Label.t -> block
(** @raise Not_found if no block carries the label. *)

val block_index : t -> (Label.t, int) Hashtbl.t
(** Label → position in [blocks]: the dense {e block index} numbering
    shared by {!Decoded}, [Interp.result.block_trace], {!Trace} and the
    trace-driven cycle estimator. Built fresh on each call (O(blocks)). *)

val mem_label : t -> Label.t -> bool
val labels : t -> Label.t list
val size : t -> int
(** Static instruction count, terminators included ("lines" of Table 2). *)

val successors : block -> Label.t list

val map_blocks : (block -> block) -> t -> t
(** @raise Invalid_argument if the result fails validation. *)

val defined_regs : t -> Reg.Set.t
val used_conds : t -> Cond.Set.t
val max_reg : t -> int
(** Highest register index mentioned, [-1] if none — used to allocate fresh
    registers for renaming. *)

val max_cond : t -> int

val pp : Format.formatter -> t -> unit
