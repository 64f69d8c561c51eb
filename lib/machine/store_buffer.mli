(** Predicated store buffer (§3.2).

    A FIFO in front of the D-cache. Both speculative and non-speculative
    stores are appended in issue order. Entries carry W (speculative), V
    (valid) and E (outstanding speculative exception) flags and a
    predicate with its own evaluation hardware: true → commit (clear W),
    false → squash (clear V). Head entries that are valid and
    non-speculative drain to the D-cache.

    The FIFO is a growable ring: appends are O(1) amortised and the
    per-cycle {!tick} walks a flat array evaluating {e compiled}
    predicates ({!Psb_isa.Pred.compiled}) against the packed {!Ccr}
    without allocating. *)

open Psb_isa

type t

val create : ?events:Psb_obs.Events.t -> unit -> t
(** [events], when given, receives the buffer lifecycle: [Sb_append] on
    every store (payload [b = 1] when speculative), [Sb_commit] and
    [Sb_squash] ([b = 0]) from {!tick}, [Sb_forward] on forwarding hits,
    [Sb_flush] per D-cache write from {!drain}, and [Sb_squash] with
    [b = 1] from {!invalidate_spec}. Absent, nothing is recorded and
    nothing is paid. *)

val set_now : t -> int -> unit
(** Stamp subsequent emitted events with this cycle. The owning
    simulator calls it once per cycle (only when events are attached). *)

val append :
  t -> addr:int -> value:int -> cpred:Pred.compiled -> spec:bool ->
  fault:Fault.t option -> unit

val tick :
  mode:Pred_kernel.mode -> dirty:int -> record:bool ->
  t -> Ccr.t -> (int * [ `Commit | `Squash ]) list
(** Evaluate speculative entries' predicates; commit or squash. With
    [record] the result lists the affected addresses, in buffer order,
    for event tracing; without it the result is [[]] and the tick
    allocates nothing. The arguments are not optional because the
    machine calls this every cycle, and an optional argument given a
    value allocates its [Some].

    [dirty] is the word-0 bitmask of conditions written since the last
    tick ([-1]: everything dirty); under the [Mask] kernel an entry
    already examined once whose mask does not intersect [dirty] is still
    [Unspec] and is skipped without evaluation. A fresh entry is always
    examined on its first tick — unlike register versions, a store may
    be appended with an already-decided predicate. With [dirty = 0] and
    every live entry examined and single-word, the whole tick is O(1)
    (every entry counts as skipped). Callers that wrote a condition at
    index [>= Pred.word_bits], or replaced the CCR wholesale, must pass
    [-1]. The [Map] kernel examines everything. *)

val committing_exceptions :
  t -> (Cond.t -> Pred.cond_value) -> Fault.t list
(** Buffered store exceptions whose predicate evaluates true under the
    given (tentative) CCR. Takes a lookup closure because detection
    evaluates hypothetical states; returns immediately when no live
    speculative entry carries a fault. *)

val drain : t -> max:int -> Memory.t -> int
(** Write up to [max] head entries that are valid and non-speculative to
    memory; squashed head entries are discarded for free. Stops at the
    first still-speculative entry. Returns the number of D-cache writes.
    @raise Memory.Fault if a drained store faults (a non-speculative
    exception; the machine handles it like the scalar machine would). *)

val drain_all : t -> Memory.t -> unit
(** Drain every non-speculative entry (used when the machine halts).
    @raise Invalid_argument if speculative entries remain. *)

type forward = Hit | Miss | Commit_dependence

val forward :
  mode:Pred_kernel.mode ->
  t -> addr:int -> load_pred:Pred.compiled -> Ccr.t -> forward
(** Store-to-load forwarding. Searches youngest → oldest among valid
    entries with the same address: entries on mutually exclusive paths
    ({!Psb_isa.Pred.disjoint_c} predicates) or already-squashed entries
    are skipped; an entry the load is control-dependent on (its predicate
    implied by the load's, {!Psb_isa.Pred.implies_c}, or already true)
    forwards its value: [Hit], with the value and buffered exception in
    {!hit_value}/{!hit_fault}. An unresolved entry that may or may not be
    on the load's path is a {e commit dependence} (§4.2.2) — the
    scheduler must have prevented it, so the machine reports it as an
    error. Allocates nothing. *)

val hit_value : t -> int
val hit_fault : t -> Fault.t option
(** The value and buffered exception (E) of the entry the last [Hit]
    forwarded from. *)

val invalidate_spec : t -> unit
(** Squash every speculative entry and compact the squashed ones away
    (exception detection, region exit); allocates nothing. *)

val has_spec : t -> bool

val length : t -> int
(** Stored entries, including squashed ones not yet discarded by drain —
    what occupies the hardware FIFO. *)

val max_occupancy : t -> int
val spec_appends : t -> int
val commits : t -> int
val squashes : t -> int

val buffered_faults : t -> int
(** Live speculative entries currently carrying a buffered exception. *)

val tick_examined : t -> int
val tick_skipped : t -> int
(** Entries evaluated vs skipped by dirty-mask gating across all ticks. *)

val debug_recount : t -> int * int * int
(** [(length, live speculative, faulting speculative)] recounted by full
    scan — test oracle for the incremental counters. *)
