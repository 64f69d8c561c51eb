(** Predicated register file (Figure 2).

    Each entry holds a sequential value and (at most) one speculative value
    labelled with its predicate, plus flags: V (speculative value valid) and
    E (outstanding speculative exception). The paper's W flag — which of the
    two physical storages currently holds the speculative value, flipped on
    commit to avoid a copy — is an implementation trick; here commit copies
    the shadow into the sequential storage, which is observably identical.

    Two capacity models: [Single] (the paper's cost-reduced design — a
    second same-register speculative write with a different predicate is a
    {e storage conflict} and must stall, footnote 1) and [Infinite]
    (the idealised design used to bound the cost of that choice).

    Buffered versions carry {e compiled} predicates
    ({!Psb_isa.Pred.compiled}); the per-cycle {!tick} evaluates them as
    bitmasks against the packed {!Ccr} — the software mirror of the
    paper's per-entry predicate hardware — and can skip entries whose
    masks do not intersect the conditions written since the last tick. *)

open Psb_isa

type mode = Single | Infinite

type t

val create : ?mode:mode -> ?events:Psb_obs.Events.t -> nregs:int -> unit -> t
(** [events], when given, receives the shadow-state lifecycle:
    [Shadow_write] on every speculative write attempt (conflicts
    included, matching {!spec_writes}), [Shadow_commit]/[Shadow_squash]
    from {!tick} (squash payload [b = 0]) and [Shadow_squash] with
    [b = 1] from {!invalidate_spec}. Absent, nothing is recorded and
    nothing is paid. *)

val nregs : t -> int
val mode : t -> mode

val set_now : t -> int -> unit
(** Stamp subsequent emitted events with this cycle. The owning
    simulator calls it once per cycle (only when events are attached). *)

val read_seq : t -> Reg.t -> int

val read : t -> Reg.t -> shadow:bool -> pred:Pred.compiled -> int
(** Operand fetch. With [shadow:true] the speculative value is returned if
    valid, falling back to the sequential register otherwise (the §3.5
    operand-fetch fix). [pred] is the reader's compiled predicate: in the
    [Infinite] model the newest version not disjoint from it
    ({!Psb_isa.Pred.disjoint_c}, mask arithmetic) is the one read.
    Allocates nothing. *)

val write_seq : t -> Reg.t -> int -> unit

val write_spec :
  t -> Reg.t -> int -> cpred:Pred.compiled -> fault:Fault.t option ->
  [ `Ok | `Conflict ]
(** Speculative write: buffer the value with its (compiled) predicate;
    sets V, and E when [fault] is given. A version with an equal
    predicate ({!Psb_isa.Pred.equal_c}) is replaced, keeping its buffered
    exception. [`Conflict] (single-shadow model only) when a valid
    speculative value with a different predicate already occupies the
    entry — the machine must stall the writer. *)

val committing_exceptions :
  t -> (Cond.t -> Pred.cond_value) -> (Reg.t * Fault.t) list
(** Buffered exceptions whose predicate evaluates true under the given
    (tentative) CCR — the detection signal of §3.5. Takes a lookup
    closure, not a CCR, because detection evaluates hypothetical states
    (pending condition writes, the future CCR); returns immediately when
    no version carries a fault. *)

val tick :
  mode:Pred_kernel.mode -> dirty:int -> record:bool ->
  t -> Ccr.t -> (Reg.t * [ `Commit | `Squash ]) list
(** Evaluate every valid speculative entry: true → commit (copy to
    sequential state, clear V), false → squash (clear V). Entries with E
    must have been intercepted by {!committing_exceptions} first; a
    committing entry with E set is an internal error.

    With [record] the result lists what happened, in register order, for
    event tracing; without it the result is [[]] and a single-shadow tick
    allocates nothing. The arguments are not optional because the
    machine calls this every cycle, and an optional argument given a
    value allocates its [Some].

    [dirty] is the word-0 bitmask of conditions written since the last
    tick ([-1]: everything dirty). Under the [Mask] kernel a version
    whose mask does not intersect [dirty] is still [Unspec] — it was
    Unspec when buffered or last examined and none of its conditions
    changed — and is skipped without evaluation; with [dirty = 0] and no
    multi-word predicate buffered, the whole tick is O(1) (every version
    counts as skipped). Callers that wrote a condition at index
    [>= Pred.word_bits], or replaced the CCR wholesale, must pass [-1].
    The [Map] kernel examines everything. *)

val invalidate_spec : t -> unit
(** Clear all speculative state (on exception detection and region exit).
    O(1) when nothing is buffered. *)

val has_spec : t -> bool
val conflicts : t -> int
(** Number of storage conflicts reported so far (ablation statistic). *)

val spec_writes : t -> int
val commits : t -> int
val squashes : t -> int

val buffered_faults : t -> int
(** Versions currently carrying a buffered exception (E set). *)

val tick_examined : t -> int
val tick_skipped : t -> int
(** Versions evaluated vs skipped by dirty-mask gating across all ticks. *)

val debug_recount : t -> int * int
(** [(live versions, versions with E)] recounted by full scan — test
    oracle for the incremental counters. *)

val final_state : t -> int Reg.Map.t
(** Sequential values of registers ever written. *)
