open Psb_isa

type entry = {
  addr : int;
  value : int;
  cpred : Pred.compiled;
  mutable spec : bool; (* W *)
  mutable valid : bool; (* V *)
  mutable examined : bool;
      (* seen by at least one tick — a fresh entry may have been appended
         with an already-decided predicate, so it is never dirty-gated
         before its first examination *)
  fault : Fault.t option; (* E *)
}

(* A growable ring: [buf.(wrap (head + i))] for [i < count] are the live
   entries, oldest first. Appends are O(1) amortised (the old list
   representation paid an O(n) [entries @ [e]] per append), drains pop at
   the head, and iteration walks indices — no per-cycle allocation. *)
type t = {
  events : Psb_obs.Events.t option;
  mutable now : int; (* cycle stamp for emitted events, set by the sim *)
  mutable buf : entry array;
  mutable head : int;
  mutable count : int;
  mutable max_occupancy : int;
  mutable spec_appends : int;
  mutable commits : int;
  mutable squashes : int;
  (* live-state tracking, mirroring Regfile: [spec_live] entries still
     awaiting their predicate (tick returns immediately at zero),
     [faults] of them with a buffered exception, [ungated] of them the
     dirty gate cannot skip (never examined, or a multi-word predicate) —
     the idle tick is skipped wholesale only when that is zero. *)
  mutable spec_live : int;
  mutable faults : int;
  mutable ungated : int;
  (* the entry the last [forward] hit *)
  mutable hit : entry;
  (* tick accounting for lib/obs *)
  mutable tick_examined : int;
  mutable tick_skipped : int;
}

let dummy =
  {
    addr = 0;
    value = 0;
    cpred = Pred.compiled_always;
    spec = false;
    valid = false;
    examined = true;
    fault = None;
  }

let initial_capacity = 16

let create ?events () =
  {
    events;
    now = 0;
    buf = Array.make initial_capacity dummy;
    head = 0;
    count = 0;
    max_occupancy = 0;
    spec_appends = 0;
    commits = 0;
    squashes = 0;
    spec_live = 0;
    faults = 0;
    ungated = 0;
    hit = dummy;
    tick_examined = 0;
    tick_skipped = 0;
  }

(* The capacity is a power of two ([initial_capacity], doubled by
   [grow]), so ring positions wrap with a mask rather than a division. *)
let wrap t i = i land (Array.length t.buf - 1)
let nth t i = t.buf.(wrap t (t.head + i))
let set_now t cycle = t.now <- cycle

let ev t kind a b =
  match t.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:t.now kind ~a ~b

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) dummy in
  for i = 0 to t.count - 1 do
    buf.(i) <- nth t i
  done;
  t.buf <- buf;
  t.head <- 0

let is_live_spec e = e.spec && e.valid
let count_fault e = if e.fault <> None then 1 else 0

(* Whether the dirty gate may skip this entry under the mask kernel. *)
let gateable e = e.examined && e.cpred.Pred.c_wide = None

let append t ~addr ~value ~cpred ~spec ~fault =
  if t.count = Array.length t.buf then grow t;
  let e = { addr; value; cpred; spec; valid = true; examined = false; fault } in
  t.buf.(wrap t (t.head + t.count)) <- e;
  t.count <- t.count + 1;
  ev t Psb_obs.Events.Sb_append addr (if spec then 1 else 0);
  if spec then begin
    t.spec_appends <- t.spec_appends + 1;
    t.spec_live <- t.spec_live + 1;
    t.faults <- t.faults + count_fault e;
    t.ungated <- t.ungated + 1
  end;
  if t.count > t.max_occupancy then t.max_occupancy <- t.count

let entry_value t ~mode ~dirty ccr e =
  match mode with
  | Pred_kernel.Map ->
      t.tick_examined <- t.tick_examined + 1;
      Ccr.eval ccr (Pred.source e.cpred)
  | Pred_kernel.Mask ->
      if gateable e && e.cpred.Pred.c_mask land dirty = 0 then begin
        t.tick_skipped <- t.tick_skipped + 1;
        Pred.Unspec
      end
      else begin
        t.tick_examined <- t.tick_examined + 1;
        e.examined <- true;
        Ccr.evalc ccr e.cpred
      end

let tick ~mode ~dirty ~record t ccr =
  if t.spec_live = 0 then []
  else if mode = Pred_kernel.Mask && dirty = 0 && t.ungated = 0 then begin
    (* Nothing written since the last tick and every entry gateable: each
       one would be skipped. *)
    t.tick_skipped <- t.tick_skipped + t.spec_live;
    []
  end
  else begin
    let events = ref [] in
    for i = 0 to t.count - 1 do
      let e = nth t i in
      if is_live_spec e then begin
        let was_gateable = gateable e in
        match entry_value t ~mode ~dirty ccr e with
        | Pred.True ->
            assert (e.fault = None);
            t.commits <- t.commits + 1;
            ev t Psb_obs.Events.Sb_commit e.addr 0;
            e.spec <- false;
            t.spec_live <- t.spec_live - 1;
            if not was_gateable then t.ungated <- t.ungated - 1;
            if record then events := (e.addr, `Commit) :: !events
        | Pred.False ->
            t.squashes <- t.squashes + 1;
            ev t Psb_obs.Events.Sb_squash e.addr 0;
            e.valid <- false;
            t.spec_live <- t.spec_live - 1;
            t.faults <- t.faults - count_fault e;
            if not was_gateable then t.ungated <- t.ungated - 1;
            if record then events := (e.addr, `Squash) :: !events
        | Pred.Unspec ->
            if (not was_gateable) && gateable e then
              t.ungated <- t.ungated - 1
      end
    done;
    List.rev !events
  end

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else begin
    let acc = ref [] in
    for i = t.count - 1 downto 0 do
      let e = nth t i in
      match e.fault with
      | Some f
        when is_live_spec e && Pred.eval (Pred.source e.cpred) lookup = Pred.True
        ->
          acc := f :: !acc
      | Some _ | None -> ()
    done;
    !acc
  end

let pop_head t =
  t.buf.(t.head) <- dummy;
  t.head <- wrap t (t.head + 1);
  t.count <- t.count - 1

let drain t ~max:limit mem =
  let written = ref 0 in
  let continue = ref true in
  while !continue && t.count > 0 do
    let e = t.buf.(t.head) in
    if not e.valid then pop_head t (* squashed: free discard *)
    else if e.spec || !written >= limit then continue := false
    else begin
      (match e.fault with
      | Some (Fault.Mem f) -> raise (Memory.Fault f)
      | Some (Fault.Arith _) | None -> ());
      Memory.write mem e.addr e.value;
      ev t Psb_obs.Events.Sb_flush e.addr e.value;
      incr written;
      pop_head t
    end
  done;
  !written

let drain_all t mem =
  ignore (drain t ~max:max_int mem);
  (* With no limit, drain only stops at a still-speculative entry. *)
  if t.count > 0 then
    invalid_arg "Store_buffer.drain_all: speculative entries remain"

type forward = Hit | Miss | Commit_dependence

(* Search youngest → oldest, from position [i], among valid entries with
   the address. *)
let rec search t ~mode ~addr ~load_pred ccr i =
  if i < 0 then Miss
  else
    let e = nth t i in
    if not (e.valid && e.addr = addr) then
      search t ~mode ~addr ~load_pred ccr (i - 1)
    else if Pred.disjoint_c e.cpred load_pred then
      search t ~mode ~addr ~load_pred ccr (i - 1)
    else
      let v =
        if (not e.spec) || Pred.implies_c load_pred e.cpred then Pred.True
        else
          match mode with
          | Pred_kernel.Mask -> Ccr.evalc ccr e.cpred
          | Pred_kernel.Map -> Ccr.eval ccr (Pred.source e.cpred)
      in
      match v with
      | Pred.True ->
          ev t Psb_obs.Events.Sb_forward e.addr e.value;
          t.hit <- e;
          Hit
      | Pred.False -> search t ~mode ~addr ~load_pred ccr (i - 1)
      | Pred.Unspec -> Commit_dependence

let forward ~mode t ~addr ~load_pred ccr =
  search t ~mode ~addr ~load_pred ccr (t.count - 1)

let hit_value t = t.hit.value
let hit_fault t = t.hit.fault

let invalidate_spec t =
  (* Squash every speculative entry (youngest first, the event order),
     then compact the invalid ones away in place. Runs at every region
     exit, so it allocates nothing. *)
  for i = t.count - 1 downto 0 do
    let e = nth t i in
    if e.spec then begin
      if e.valid then ev t Psb_obs.Events.Sb_squash e.addr 1;
      e.valid <- false
    end
  done;
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    let e = nth t i in
    if e.valid then begin
      t.buf.(wrap t (t.head + !kept)) <- e;
      incr kept
    end
  done;
  for i = !kept to t.count - 1 do
    t.buf.(wrap t (t.head + i)) <- dummy
  done;
  t.count <- !kept;
  t.spec_live <- 0;
  t.faults <- 0;
  t.ungated <- 0

let has_spec t = t.spec_live > 0
let length t = t.count
let max_occupancy t = t.max_occupancy
let spec_appends t = t.spec_appends
let commits t = t.commits
let squashes t = t.squashes
let buffered_faults t = t.faults
let tick_examined t = t.tick_examined
let tick_skipped t = t.tick_skipped

let debug_recount t =
  let len = t.count and spec = ref 0 and faults = ref 0 in
  for i = 0 to t.count - 1 do
    let e = nth t i in
    if is_live_spec e then begin
      incr spec;
      if e.fault <> None then incr faults
    end
  done;
  (len, !spec, !faults)
