(** Machine configurations.

    The paper's base VLIW machine (§4): 4 ALUs, 4 branch units, 2 load
    units, 1 store unit, up to 4 instructions issued per cycle, CCR with 4
    entries, load latency 2 cycles, all other latencies 1.

    "Full-issue" machines (Figure 8) duplicate every resource to the issue
    width. *)

open Psb_isa

type t = {
  issue_width : int;
  alu_units : int;
  branch_units : int;  (** jump/exit slots per cycle *)
  load_units : int;
  store_units : int;
  ccr_size : int;  (** number of branch conditions, K *)
  load_latency : int;
  int_latency : int;
  max_spec_conds : int;
      (** how many unresolved branch conditions an instruction may be
          speculated past (Figure 8 sweeps 1/2/4/8) *)
  transition_penalty : int;
      (** extra cycles charged on a region transition; 0 under the paper's
          optimistic BTB assumption, 1 models a BTB-miss redirect (the
          paper notes the optimism is worth "a few percent") *)
  sb_capacity : int;
      (** store-buffer entries; a bundle carrying a store stalls while the
          FIFO is full *)
  dcache_ports : int;
      (** D-cache write ports: store-buffer entries drained per cycle *)
  rob_size : int;
      (** reorder-buffer entries of the rival out-of-order backend
          ({!Rob_sim}); bounds how far its fetch may run ahead of commit *)
}

val base : t
(** The paper's base 4-issue machine. *)

val scalar : t
(** Single-issue reference (R3000-like). *)

val full_issue : width:int -> max_spec_conds:int -> t
(** Fully duplicated resources at the given issue width (Figure 8).
    @raise Invalid_argument when [width < 1]: no bundle could issue. *)

(** {2 Capacity accessors}

    Stable accessors for the buffering limits a compiled schedule must
    respect, used by the static verifier ([Psb_verify.Verify]) so that
    capacity checks name the limit they enforce rather than reaching into
    record fields. *)

val ccr_size : t -> int
(** Number of physical CCR entries [K]; every condition a region names
    must index below this. *)

val max_spec_conds : t -> int
(** Maximum number of unresolved branch conditions an instruction's
    predicate may carry at issue. *)

val sb_capacity : t -> int
(** Predicated store-buffer entries available to buffer speculative and
    retiring stores. *)

val dcache_ports : t -> int
(** Store-buffer entries drained to the D-cache per cycle. *)

val rob_size : t -> int
(** Reorder-buffer entries available to the out-of-order backend
    ({!Rob_sim}): 32 on the base machine, 8 on the scalar reference,
    [8 * width] on full-issue machines. *)

val shadow_capacity : single_shadow:bool -> t -> int
(** Speculative (shadow) versions storable per architectural register:
    1 under the paper's single-shadow register file, unbounded
    ([max_int]) for the infinite ablation. *)

val latency : t -> Instr.op -> int
(** Issue-to-writeback distance in cycles for one operation:
    [load_latency] for loads, [int_latency] for everything else. This is
    the single source of latency truth — the scheduler, the cycle
    estimator, the machine simulator and the region-lowering pass
    ([Lowered], which precomputes it per flat slot) all call it. *)

(** The function-unit class an operation occupies for one cycle at
    issue. [Branch_unit] serves region-exit slots; [Nop]s and condition
    writes ([Setc]) occupy ALU slots like any other computation. *)
type unit_class = Alu_unit | Branch_unit | Load_unit | Store_unit

val unit_of_op : Instr.op -> unit_class
(** Classify one operation. Total — every [Instr.op] maps to exactly one
    class, so resource checks can fold over a bundle without a default
    case. *)

val units_available : t -> unit_class -> int
(** How many units of a class the machine issues to per cycle
    ([alu_units], [branch_units], [load_units], [store_units]); the
    static budget [Pcode.check_resources] and the scheduler enforce per
    bundle. *)

val pp : Format.formatter -> t -> unit
(** One-line summary of the configuration (issue width, unit counts,
    CCR size, latencies) for diagnostics and experiment headers. *)
