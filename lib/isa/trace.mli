(** Dynamic execution profiles derived from an interpreter block trace.

    This is the reproduction's stand-in for the [pixie] statistics the
    paper relies on: per-block and per-edge execution counts, profile-based
    static branch prediction, and the Table-3 metric (accuracy of
    predicting [n] successive branches).

    The profile is dense: it is built in one pass over the run's
    [Interp.result.block_trace] — block indices, i.e. positions in
    [Program.blocks] ({!Program.block_index}) — into per-block arrays of
    execution counts and, for blocks ending in [Br], of dynamic branch
    and taken counts. Every query below is one label lookup plus array
    reads (O(1)); the per-dynamic-branch stream behind
    {!prediction_accuracy} and {!successive_accuracy} is an [int array].
    A trace's final entry has no successor, so when the run stopped at a
    branch (a fatal fault or exhausted fuel) that execution counts in
    {!block_count} but not as a dynamic branch or an edge. *)

type t

val of_result : Program.t -> Interp.result -> t
(** The profile of one run of exactly this program (the trace's block
    indices are positions in its [blocks]). *)

val block_count : t -> Label.t -> int
(** Times the block was entered; [0] for labels not in the program. *)

val edge_count : t -> src:Label.t -> dst:Label.t -> int
(** Times control went from [src] directly to [dst]. *)

val dynamic_branches : t -> int
(** Executed [Br] terminators that have a successor in the trace. *)

val hot_blocks : ?limit:int -> t -> (Label.t * int) list
(** Blocks by descending execution count (ties broken by label name) —
    the hot-block histogram behind [psb profile]. [limit] keeps the top
    [n] entries; all blocks by default. *)

val taken_fraction : t -> Label.t -> float option
(** For a block ending in [Br], the fraction of executions that went to
    [if_true]; [None] if the block never executed or is not a branch. *)

val predict : t -> Label.t -> bool
(** Profile-based static prediction for a branch block: the majority
    direction ([true] = [if_true]); defaults to [true] when unseen. *)

val prediction_accuracy : t -> float
(** Fraction of dynamic branches predicted correctly by {!predict}. *)

val successive_accuracy : t -> int -> float
(** [successive_accuracy t n]: fraction of length-[n] windows of
    consecutive dynamic branches in which all [n] are predicted correctly
    (Table 3). [1.0] when there are fewer than [n] dynamic branches. *)
