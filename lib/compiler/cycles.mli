(** Trace-driven cycle accounting.

    Replays a dynamic block trace (recorded by the scalar reference run,
    our [pixie]) through the per-unit schedules: each visit to a unit costs
    the issue cycle of the exit the execution actually takes, plus one.
    This is how the non-predicated models (global, squashing, trace
    scheduling, boosting) are evaluated, and it doubles as a cross-check
    for the machine-measured predicated models.

    The trace is the scalar run's [Interp.result.block_trace]: dense
    block indices, i.e. positions in [Program.blocks]
    ({!Psb_isa.Program.block_index}). Each call resolves the program's
    branch targets and every visited unit's copy labels and step table
    to int tables once, so the replay itself does array reads only. *)

open Psb_isa

val measure :
  units:Runit.t Label.Map.t ->
  schedules:Sched.t Label.Map.t ->
  Program.t ->
  block_trace:int array ->
  int
(** Total cycles. [block_trace] must index [program]'s blocks.
    @raise Failure if the trace cannot be replayed through the units
    (indicates a unit-construction bug) or names a block index outside
    the program. *)
