open Psb_isa

type mode = Single | Infinite

type version = {
  value : int;
  cpred : Pred.compiled;
  fault : Fault.t option;
  seqno : int; (* issue order, newest wins on reads *)
}

type entry = {
  mutable seq : int;
  mutable written : bool;
  mutable versions : version list; (* valid speculative versions, newest first *)
}

type t = {
  mode : mode;
  events : Psb_obs.Events.t option;
  mutable now : int; (* cycle stamp for emitted events, set by the sim *)
  entries : entry array;
  mutable conflicts : int;
  mutable spec_writes : int;
  mutable commits : int;
  mutable squashes : int;
  mutable next_seqno : int;
  (* live-state tracking: [live] buffered versions in total (the tick
     returns immediately when none exist), [faults] of them carrying a
     buffered exception (detection walks nothing when zero), [wide] of
     them with a multi-word predicate (never dirty-gated, so the idle
     tick can only be skipped wholesale when zero). *)
  mutable live : int;
  mutable faults : int;
  mutable wide : int;
  (* The registers holding versions, ascending: ticks and squashes walk
     these instead of every entry. *)
  live_regs : int array;
  mutable nlive_regs : int;
  (* tick accounting for lib/obs *)
  mutable tick_examined : int;
  mutable tick_skipped : int;
}

let create ?(mode = Single) ?events ~nregs () =
  let nregs = max nregs 1 in
  {
    mode;
    events;
    now = 0;
    entries =
      Array.init nregs (fun _ ->
          { seq = 0; written = false; versions = [] });
    conflicts = 0;
    spec_writes = 0;
    commits = 0;
    squashes = 0;
    next_seqno = 0;
    live = 0;
    faults = 0;
    wide = 0;
    live_regs = Array.make nregs 0;
    nlive_regs = 0;
    tick_examined = 0;
    tick_skipped = 0;
  }

let nregs t = Array.length t.entries
let mode t = t.mode
let set_now t cycle = t.now <- cycle

let ev t kind a b =
  match t.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:t.now kind ~a ~b
(* [Reg.t] is the register index; using it directly keeps the
   per-operand read free of a cross-module call. *)
let entry t (r : Reg.t) = t.entries.((r :> int))
let read_seq t r = (entry t r).seq

let vpred v = Pred.source v.cpred

(* The value a reader with compiled predicate [pred] sees: the newest
   version whose predicate is not on a mutually-exclusive path, else the
   sequential value. In the Single model there is at most one version. *)
let rec pick_value versions ~pred ~seq =
  match versions with
  | [] -> seq
  | v :: rest ->
      if Pred.disjoint_c v.cpred pred then pick_value rest ~pred ~seq
      else v.value

let read t r ~shadow ~pred =
  let e = entry t r in
  if shadow then pick_value e.versions ~pred ~seq:e.seq else e.seq

let write_seq t r v =
  let e = entry t r in
  e.seq <- v;
  e.written <- true

let count_fault = function Some _ -> 1 | None -> 0
let count_wide v = match v.cpred.Pred.c_wide with Some _ -> 1 | None -> 0

(* Keep the live-state counters in step with a version entering or
   leaving the shadow storage. *)
let add_version t v =
  t.live <- t.live + 1;
  t.faults <- t.faults + count_fault v.fault;
  t.wide <- t.wide + count_wide v

let drop_version t v =
  t.live <- t.live - 1;
  t.faults <- t.faults - count_fault v.fault;
  t.wide <- t.wide - count_wide v

(* A same-predicate rewrite (speculative WAW on one path) takes the new
   value, but flag E is sticky: an outstanding exception buffered in the
   overwritten version ([old_fault]) must still be detected when the
   predicate commits — the excepting instruction's result may be dead,
   its exception is not. Recovery re-executes both instructions in order,
   so the final value regenerates correctly. The earliest fault wins,
   matching the order recovery would handle them. *)
let fresh_version t ~value ~cpred ~fault ~old_fault =
  let fault = match old_fault with Some _ -> old_fault | None -> fault in
  let v = { value; cpred; fault; seqno = t.next_seqno } in
  t.next_seqno <- t.next_seqno + 1;
  add_version t v;
  v

(* Register [r] gains its first version. *)
let add_live_reg t (r : Reg.t) =
  let j = ref t.nlive_regs in
  while !j > 0 && t.live_regs.(!j - 1) > (r :> int) do
    t.live_regs.(!j) <- t.live_regs.(!j - 1);
    decr j
  done;
  t.live_regs.(!j) <- (r :> int);
  t.nlive_regs <- t.nlive_regs + 1

let write_spec t r value ~cpred ~fault =
  let e = entry t r in
  if e.versions = [] then add_live_reg t r;
  t.spec_writes <- t.spec_writes + 1;
  ev t Psb_obs.Events.Shadow_write (Reg.index r) value;
  match t.mode with
  | Infinite ->
      let same, rest =
        List.partition (fun v -> Pred.equal_c v.cpred cpred) e.versions
      in
      let old_fault =
        match same with
        | v :: _ ->
            drop_version t v;
            v.fault
        | [] -> None
      in
      e.versions <- fresh_version t ~value ~cpred ~fault ~old_fault :: rest;
      `Ok
  | Single -> (
      match e.versions with
      | [] ->
          e.versions <- [ fresh_version t ~value ~cpred ~fault ~old_fault:None ];
          `Ok
      | [ v ] when Pred.equal_c v.cpred cpred ->
          drop_version t v;
          e.versions <-
            [ fresh_version t ~value ~cpred ~fault ~old_fault:v.fault ];
          `Ok
      | _ ->
          t.conflicts <- t.conflicts + 1;
          `Conflict)

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else
    Array.to_seqi t.entries
    |> Seq.concat_map (fun (i, e) ->
           List.to_seq e.versions
           |> Seq.filter_map (fun v ->
                  match v.fault with
                  | Some f when Pred.eval (vpred v) lookup = Pred.True ->
                      Some (Reg.make i, f)
                  | Some _ | None -> None))
    |> List.of_seq

(* Evaluate one buffered version.  Under the mask kernel a version whose
   mask meets none of the conditions written since the last tick
   ([dirty]) is still Unspec — the gating invariant: every buffered
   version was Unspec when last examined (speculative writes only buffer
   on Unspec), and only a write to a mentioned condition can change
   that. *)
let version_value t ~mode ~dirty ccr v =
  match mode with
  | Pred_kernel.Map ->
      t.tick_examined <- t.tick_examined + 1;
      Ccr.eval ccr (vpred v)
  | Pred_kernel.Mask ->
      if v.cpred.Pred.c_wide = None && v.cpred.Pred.c_mask land dirty = 0
      then begin
        t.tick_skipped <- t.tick_skipped + 1;
        Pred.Unspec
      end
      else begin
        t.tick_examined <- t.tick_examined + 1;
        Ccr.evalc ccr v.cpred
      end

(* Several versions of one register (the Infinite model). Commits are
   processed oldest-first so that if several versions commit in one cycle
   (possible WAW), the newest wins. Returns the entry's events, commit
   before squash. *)
let tick_versions t ~mode ~dirty ccr idx e =
  let committing = ref [] and keep_rev = ref [] in
  let squashed = ref 0 in
  List.iter
    (fun v ->
      match version_value t ~mode ~dirty ccr v with
      | Pred.True -> committing := v :: !committing
      | Pred.False ->
          squashed := !squashed + 1;
          ev t Psb_obs.Events.Shadow_squash idx 0;
          drop_version t v
      | Pred.Unspec -> keep_rev := v :: !keep_rev)
    e.versions;
  let winners = List.sort (fun a b -> compare a.seqno b.seqno) !committing in
  List.iter
    (fun v ->
      assert (v.fault = None);
      t.commits <- t.commits + 1;
      ev t Psb_obs.Events.Shadow_commit idx v.value;
      e.seq <- v.value;
      e.written <- true;
      drop_version t v)
    winners;
  t.squashes <- t.squashes + !squashed;
  e.versions <- List.rev !keep_rev;
  (if winners <> [] then [ (Reg.make idx, `Commit) ] else [])
  @ if !squashed > 0 then [ (Reg.make idx, `Squash) ] else []

let tick ~mode ~dirty ~record t ccr =
  if t.live = 0 then []
  else if mode = Pred_kernel.Mask && dirty = 0 && t.wide = 0 then begin
    (* Nothing written since the last tick and every version single-word:
       each one would be skipped by the gate. *)
    t.tick_skipped <- t.tick_skipped + t.live;
    []
  end
  else begin
    let events = ref [] and kept = ref 0 in
    for k = 0 to t.nlive_regs - 1 do
      let idx = t.live_regs.(k) in
      let e = t.entries.(idx) in
      (match e.versions with
      | [] -> ()
      | [ v ] -> (
          (* At most one version (always, in the Single model): decide in
             place, allocating nothing while it stays Unspec — the
             overwhelmingly common per-cycle outcome. *)
          match version_value t ~mode ~dirty ccr v with
          | Pred.Unspec -> ()
          | Pred.True ->
              assert (v.fault = None);
              t.commits <- t.commits + 1;
              ev t Psb_obs.Events.Shadow_commit idx v.value;
              e.seq <- v.value;
              e.written <- true;
              e.versions <- [];
              drop_version t v;
              if record then events := (Reg.make idx, `Commit) :: !events
          | Pred.False ->
              t.squashes <- t.squashes + 1;
              ev t Psb_obs.Events.Shadow_squash idx 0;
              e.versions <- [];
              drop_version t v;
              if record then events := (Reg.make idx, `Squash) :: !events)
      | _ :: _ :: _ ->
          let evs = tick_versions t ~mode ~dirty ccr idx e in
          if record then events := List.rev_append evs !events);
      if e.versions <> [] then begin
        t.live_regs.(!kept) <- idx;
        incr kept
      end
    done;
    t.nlive_regs <- !kept;
    List.rev !events
  end

let invalidate_spec t =
  if t.live > 0 then begin
    for k = 0 to t.nlive_regs - 1 do
      let idx = t.live_regs.(k) in
      let e = t.entries.(idx) in
      if t.events <> None then
        List.iter (fun _ -> ev t Psb_obs.Events.Shadow_squash idx 1) e.versions;
      e.versions <- []
    done;
    t.nlive_regs <- 0;
    t.live <- 0;
    t.faults <- 0;
    t.wide <- 0
  end

let has_spec t = t.live > 0
let conflicts t = t.conflicts
let spec_writes t = t.spec_writes
let commits t = t.commits
let squashes t = t.squashes
let buffered_faults t = t.faults
let tick_examined t = t.tick_examined
let tick_skipped t = t.tick_skipped

let debug_recount t =
  Array.fold_left
    (fun (live, faults) e ->
      ( live + List.length e.versions,
        faults
        + List.length (List.filter (fun v -> v.fault <> None) e.versions) ))
    (0, 0) t.entries

let final_state t =
  Array.to_seqi t.entries
  |> Seq.filter (fun (_, e) -> e.written)
  |> Seq.fold_left (fun m (i, e) -> Reg.Map.add (Reg.make i) e.seq m) Reg.Map.empty
