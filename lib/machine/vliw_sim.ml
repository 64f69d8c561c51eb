open Psb_isa

type stats = {
  dyn_bundles : int;
  dyn_ops : int;
  squashed_ops : int;
  spec_ops : int;
  commits : int;
  squashes : int;
  recoveries : int;
  recovery_cycles : int;
  shadow_conflicts : int;
  conflict_stall_cycles : int;
  sb_max_occupancy : int;
  sb_stall_cycles : int;
  region_transitions : int;
}

type breakdown = {
  bd_useful : int;
  bd_squashed : int;
  bd_shadow_stall : int;
  bd_sb_stall : int;
  bd_recovery : int;
  bd_transition : int;
}

let breakdown_fields b =
  [
    ("useful_issue", b.bd_useful);
    ("squashed_issue", b.bd_squashed);
    ("shadow_conflict_stall", b.bd_shadow_stall);
    ("store_buffer_stall", b.bd_sb_stall);
    ("recovery", b.bd_recovery);
    ("region_transition", b.bd_transition);
  ]

let breakdown_total b =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (breakdown_fields b)

let pp_breakdown ppf b =
  let total = breakdown_total b in
  let pct v =
    if total = 0 then 0. else 100. *. float_of_int v /. float_of_int total
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) ->
      Format.fprintf ppf "%-22s %10d  %5.1f%%@," name v (pct v))
    (breakdown_fields b);
  Format.fprintf ppf "%-22s %10d@]" "total" total

type result = {
  outcome : Interp.outcome;
  output : int list;
  cycles : int;
  regs : int Reg.Map.t;
  faults_handled : int;
  stats : stats;
  breakdown : breakdown;
}

type stall_reason = Shadow_conflict | Store_buffer_full

type event =
  | Reg_commit of Reg.t
  | Reg_squash of Reg.t
  | Store_commit of int
  | Store_squash of int
  | Exception_detected
  | Recovery_done
  | Region_exit of Pcode.exit_target
  | Bundle_issue of {
      region : Label.t;
      pc : int;
      ops : int;
      squashed : int;
      spec : int;
    }
  | Op_issue of { op : Instr.op; pred : Pred.t; spec : bool; latency : int }
  | Stall of stall_reason
  | Cond_set of Cond.t * bool
  | Sb_occupancy of int

let pp_event ppf = function
  | Reg_commit r -> Format.fprintf ppf "commit %a" Reg.pp r
  | Reg_squash r -> Format.fprintf ppf "squash %a" Reg.pp r
  | Store_commit a -> Format.fprintf ppf "commit sb@%d" a
  | Store_squash a -> Format.fprintf ppf "squash sb@%d" a
  | Exception_detected -> Format.pp_print_string ppf "exception detected"
  | Recovery_done -> Format.pp_print_string ppf "recovery done"
  | Region_exit (Pcode.To_region l) -> Format.fprintf ppf "exit -> %a" Label.pp l
  | Region_exit Pcode.Stop -> Format.pp_print_string ppf "exit -> halt"
  | Bundle_issue { region; pc; ops; squashed; spec } ->
      Format.fprintf ppf "issue %a[%d]: %d ops (%d spec, %d squashed)"
        Label.pp region pc ops spec squashed
  | Op_issue { op; spec; latency; _ } ->
      Format.fprintf ppf "op%s %a (latency %d)"
        (if spec then ".s" else "")
        Instr.pp_op op latency
  | Stall Shadow_conflict -> Format.pp_print_string ppf "stall: shadow conflict"
  | Stall Store_buffer_full ->
      Format.pp_print_string ppf "stall: store buffer full"
  | Cond_set (c, v) -> Format.fprintf ppf "%a := %b" Cond.pp c v
  | Sb_occupancy n -> Format.fprintf ppf "sb occupancy %d" n

exception Machine_error of string

let machine_error fmt = Format.kasprintf (fun s -> raise (Machine_error s)) fmt

(* ----- writeback queue -----

   Results in flight live in a slot pool laid out as structure-of-arrays:
   a slot is taken at issue, written once (a shadow conflict only moves
   its [due]), and freed when its writeback applies; it never moves in
   between. [live] lists the taken slots in no
   particular order. Each cycle the due ones are gathered into [ready],
   insertion-sorted by (due cycle, issue order) — the order writebacks
   apply in. The pool doubles when full, which is rare: results in flight
   are bounded by issue width × latency. *)

type wb_kind = Wout | Wcond | Wstore | Wreg

type wbq = {
  mutable kind : wb_kind array;
  mutable due : int array;
  mutable order : int array; (* issue order, unique *)
  mutable dst : int array; (* register, condition or store address *)
  mutable value : int array; (* a condition's value as 0/1 *)
  mutable spec : bool array;
      (* speculative store, or register write still to be decided *)
  mutable load_addr : int array;
      (* a faulting load's address, re-executed if its buffered exception
         turns out committed and recoverable *)
  mutable cpred : Pred.compiled array;
  mutable fault : Fault.t option array;
  mutable free : int array; (* stack of free slots *)
  mutable nfree : int;
  mutable live : int array;
  mutable nlive : int;
  mutable ready : int array;
  mutable next_order : int;
  (* The condition writes applied this cycle, oldest first. *)
  mutable cw_cond : int array;
  mutable cw_value : bool array;
  mutable ncw : int;
}

let wbq_create cap =
  {
    kind = Array.make cap Wout;
    due = Array.make cap 0;
    order = Array.make cap 0;
    dst = Array.make cap 0;
    value = Array.make cap 0;
    spec = Array.make cap false;
    load_addr = Array.make cap 0;
    cpred = Array.make cap Pred.compiled_always;
    fault = Array.make cap None;
    free = Array.init cap (fun i -> cap - 1 - i);
    nfree = cap;
    live = Array.make cap 0;
    nlive = 0;
    ready = Array.make cap 0;
    next_order = 0;
    cw_cond = Array.make cap 0;
    cw_value = Array.make cap false;
    ncw = 0;
  }

let wbq_grow q =
  let cap = Array.length q.due in
  let ext a fill = Array.append a (Array.make cap fill) in
  q.kind <- ext q.kind Wout;
  q.due <- ext q.due 0;
  q.order <- ext q.order 0;
  q.dst <- ext q.dst 0;
  q.value <- ext q.value 0;
  q.spec <- ext q.spec false;
  q.load_addr <- ext q.load_addr 0;
  q.cpred <- ext q.cpred Pred.compiled_always;
  q.fault <- ext q.fault None;
  q.free <- Array.init (2 * cap) (fun i -> (2 * cap) - 1 - i);
  q.nfree <- cap;
  q.live <- ext q.live 0;
  q.ready <- ext q.ready 0;
  q.cw_cond <- ext q.cw_cond 0;
  q.cw_value <- ext q.cw_value false

(* A free slot's fault is [None], which [set_fault] relies on. *)
let wbq_release q s =
  if q.fault.(s) <> None then q.fault.(s) <- None;
  q.free.(q.nfree) <- s;
  q.nfree <- q.nfree + 1

let wbq_requeue q s =
  q.live.(q.nlive) <- s;
  q.nlive <- q.nlive + 1

let wb_before q a b =
  q.due.(a) < q.due.(b) || (q.due.(a) = q.due.(b) && q.order.(a) < q.order.(b))

(* Move the slots due by [now] (every slot with [all]) from [live] into
   [ready], sorted; returns how many. *)
let wbq_gather q ~now ~all =
  let n = ref 0 and i = ref 0 in
  while !i < q.nlive do
    let s = q.live.(!i) in
    if all || q.due.(s) <= now then begin
      let j = ref !n in
      while !j > 0 && wb_before q s q.ready.(!j - 1) do
        q.ready.(!j) <- q.ready.(!j - 1);
        decr j
      done;
      q.ready.(!j) <- s;
      incr n;
      q.nlive <- q.nlive - 1;
      q.live.(!i) <- q.live.(q.nlive)
    end
    else incr i
  done;
  !n

type mode = Normal | Recovery of { future : Ccr.t; epc : int }

(* Category of the cycle currently being simulated; bumped into the
   accounting counters when the cycle completes (in [run]'s loop), so a
   cycle aborted mid-way by a fatal fault is charged to no category —
   exactly matching [st.now], which that cycle never increments. *)
type cycle_kind = Kuseful | Ksquashed | Kshadow_stall | Ksb_stall | Krecovery

exception Abort of Fault.t
exception Halted_exn
exception Fuel_exhausted
exception Cycle_done
(* Ends the current cycle early (recovery initiation). *)

(* Which representation the issue phase walks (Exec_kernel.mode resolved
   to runtime state). [Elow] carries the lowered program, the lowered
   image of the current region (kept in lock-step with [st.region]) and
   a reusable per-bundle decision scratch buffer sized to the widest
   bundle, so the lowered decode allocates nothing per cycle. *)
type low_state = {
  lcode : Lowered.t;
  mutable lr : Lowered.region;
  dec : int array; (* 0 = squash, 1 = nonspec, 2 = spec *)
}

type exec_repr = Etree | Elow of low_state

type state = {
  model : Machine_model.t;
  pred_kernel : Pred_kernel.mode;
  exec : exec_repr;
  on_event : (int -> event -> unit) option;
  events : Psb_obs.Events.t option;
  sb_hist : Psb_obs.Metrics.histogram option;
  bundle_hist : Psb_obs.Metrics.histogram option;
  code : Pcode.t;
  mem : Memory.t;
  rf : Regfile.t;
  sb : Store_buffer.t;
  ccr : Ccr.t;
  mutable mode : mode;
  mutable region : Pcode.region;
  mutable pc : int;
  mutable now : int;
  wbq : wbq;
  (* A fault raised by the value computation in progress: [Some] only
     from the faulting access until the issue path takes it (and [None]
     is never rewritten, sparing the write barrier). [xfwd]: the faulting
     load's value came from a store-buffer entry, whose buffered
     exception the fault is; [xaddr]: the last load's address. *)
  mutable xfault : Fault.t option;
  mutable xfwd : bool;
  mutable xaddr : int;
  mutable dirty : int;
      (* word-0 bitmask of conditions written since the last commit/squash
         tick; -1 after any wholesale CCR change (assign, reset) or a
         write to a condition beyond word 0. Lets the tick skip buffered
         entries whose predicates cannot have resolved. *)
  mutable output_rev : int list;
  mutable faults_handled : int;
  (* statistics *)
  mutable dyn_bundles : int;
  mutable dyn_ops : int;
  mutable squashed_ops : int;
  mutable spec_ops : int;
  mutable recoveries : int;
  mutable recovery_cycles : int;
  mutable conflict_stall_cycles : int;
  mutable consecutive_stalls : int;
  mutable region_transitions : int;
  mutable sb_stall_cycles : int;
  mutable wb_squashes : int; (* results squashed in flight (pred false at WB) *)
  (* cycle accounting *)
  mutable kind : cycle_kind;
  mutable acct_useful : int;
  mutable acct_squashed : int;
  mutable acct_shadow_stall : int;
  mutable acct_sb_stall : int;
  mutable acct_recovery : int;
  mutable acct_transition : int;
  mutable last_sb_occ : int;
}

let emit st ev =
  match st.on_event with None -> () | Some f -> f st.now ev

(* Structured event-log emission (the [?events] channel). One branch on
   the option when absent — the per-cycle hot path must not allocate. *)
let eev st kind ~a ~b =
  match st.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:st.now kind ~a ~b

let region_id st label =
  match st.events with
  | None -> -1
  | Some e -> Psb_obs.Events.intern e (Label.name label)

(* Keep the regfile/store-buffer cycle stamps in step with [st.now]; they
   emit events from inside their own operations. *)
let sync_now st =
  match st.events with
  | None -> ()
  | Some _ ->
      Regfile.set_now st.rf st.now;
      Store_buffer.set_now st.sb st.now

let fault_addr = function
  | Fault.Mem (Memory.Out_of_bounds a) | Fault.Mem (Memory.Unmapped a) -> a
  | Fault.Arith _ -> -1

(* Evaluate a compiled predicate under the selected kernel. The [Map]
   kernel re-evaluates the source condition map — the pre-bitmask
   reference semantics, kept for differential testing. *)
let eval_cpred st ccr cp =
  match st.pred_kernel with
  | Pred_kernel.Mask -> Ccr.evalc ccr cp
  | Pred_kernel.Map -> Ccr.eval ccr (Pred.source cp)

let note_cond_write st (c : Cond.t) =
  let i = (c :> int) in
  st.dirty <-
    (if i >= Pred.word_bits then -1 else st.dirty lor (1 lsl i))

let observing st = st.on_event <> None

(* Emitted only when the occupancy changed, to keep traces small. *)
let note_sb_occupancy st =
  (match st.sb_hist with
  | Some h -> Psb_obs.Metrics.observe h (float_of_int (Store_buffer.length st.sb))
  | None -> ());
  if observing st then begin
    let occ = Store_buffer.length st.sb in
    if occ <> st.last_sb_occ then begin
      st.last_sb_occ <- occ;
      emit st (Sb_occupancy occ)
    end
  end

let take_slot st ~latency kind =
  let q = st.wbq in
  if q.nfree = 0 then wbq_grow q;
  q.nfree <- q.nfree - 1;
  let s = q.free.(q.nfree) in
  q.kind.(s) <- kind;
  q.due.(s) <- st.now + latency;
  q.order.(s) <- q.next_order;
  q.next_order <- q.next_order + 1;
  wbq_requeue q s;
  s

let schedule_out st ~latency v =
  let s = take_slot st ~latency Wout in
  st.wbq.value.(s) <- v

let schedule_cond st ~latency (c : Cond.t) v =
  let s = take_slot st ~latency Wcond in
  st.wbq.dst.(s) <- (c :> int);
  st.wbq.value.(s) <- (if v then 1 else 0)

(* The pointer fields are written only where an apply reads them, and
   only when they change: most slots never pay the write barrier. *)
let set_cpred q s cpred = if q.cpred.(s) != cpred then q.cpred.(s) <- cpred
let set_fault q s fault = if fault <> None then q.fault.(s) <- fault

let schedule_store st ~latency ~addr ~value ~cpred ~spec ~fault =
  let q = st.wbq in
  let s = take_slot st ~latency Wstore in
  q.dst.(s) <- addr;
  q.value.(s) <- value;
  set_cpred q s cpred;
  q.spec.(s) <- spec;
  set_fault q s fault

(* A register write: sequential (the predicate was true at issue), or
   speculative — decided at writeback by [cpred], carrying a buffered
   [fault] and, for a faulting load, its address ([st.xaddr]) to
   re-execute. *)
let schedule_reg_seq st ~latency ~(dst : Reg.t) ~value =
  let q = st.wbq in
  let s = take_slot st ~latency Wreg in
  q.dst.(s) <- (dst :> int);
  q.value.(s) <- value;
  q.spec.(s) <- false

let schedule_reg_spec st ~latency ~(dst : Reg.t) ~value ~cpred ~fault =
  let q = st.wbq in
  let s = take_slot st ~latency Wreg in
  q.dst.(s) <- (dst :> int);
  q.value.(s) <- value;
  q.spec.(s) <- true;
  set_cpred q s cpred;
  set_fault q s fault;
  q.load_addr.(s) <- st.xaddr

let handle_or_abort st fault =
  if Fault.recoverable fault then begin
    (match fault with
    | Fault.Mem f -> assert (Memory.handle_fault st.mem f)
    | Fault.Arith _ -> assert false);
    eev st Psb_obs.Events.Fault_raised ~a:(fault_addr fault) ~b:1;
    st.faults_handled <- st.faults_handled + 1
  end
  else begin
    eev st Psb_obs.Events.Fault_raised ~a:(fault_addr fault) ~b:0;
    raise (Abort fault)
  end

(* A load access: store-buffer forwarding first, then the D-cache.
   Returns the value (0 if the D-cache access faults); a faulting access
   leaves its fault in [st.xfault]. *)
let load_access st ~addr ~load_pred =
  st.xaddr <- addr;
  match
    Store_buffer.forward ~mode:st.pred_kernel st.sb ~addr ~load_pred st.ccr
  with
  | Store_buffer.Hit ->
      (match Store_buffer.hit_fault st.sb with
      | None -> ()
      | Some _ as f ->
          st.xfault <- f;
          st.xfwd <- true);
      Store_buffer.hit_value st.sb
  | Store_buffer.Commit_dependence ->
      machine_error "commit-dependence violation: load at %d hits an unresolved speculative store" addr
  | Store_buffer.Miss -> (
      match Memory.read st.mem addr with
      | v -> v
      | exception Memory.Fault f ->
          st.xfault <- Some (Fault.Mem f);
          st.xfwd <- false;
          0)

let take_fault st =
  match st.xfault with
  | None -> None
  | Some _ as f ->
      st.xfault <- None;
      f

(* Non-speculative load: faults are handled on the spot (or abort). *)
let rec load_nonspec st ~addr ~load_pred =
  let v = load_access st ~addr ~load_pred in
  match take_fault st with
  | None -> v
  | Some f ->
      let forwarded = st.xfwd in
      handle_or_abort st f;
      if forwarded then v (* the forwarded store's page is mapped now *)
      else load_nonspec st ~addr ~load_pred

let alu st op a b =
  match Opcode.eval_alu op a b with
  | v -> v
  | exception Opcode.Arithmetic_fault m ->
      st.xfault <- Some (Fault.Arith m);
      0

(* The value of a non-speculative operation whose computation left
   [st.xfault]: the fault is handled on the spot, or aborts (always, for
   an arithmetic fault under a true predicate); a load then completes
   with its forwarded value, or re-reads the now-mapped page. *)
let nonspec_value st ~pred v =
  match take_fault st with
  | None -> v
  | Some (Fault.Arith _ as f) ->
      handle_or_abort st f;
      assert false
  | Some (Fault.Mem _ as f) ->
      let forwarded = st.xfwd and addr = st.xaddr in
      handle_or_abort st f;
      if forwarded then v else load_nonspec st ~addr ~load_pred:pred

let future_value st cpred =
  match st.mode with
  | Normal -> Pred.Unspec
  | Recovery { future; _ } -> eval_cpred st future cpred

(* The value of a speculative operation whose computation left
   [st.xfault]. In recovery mode the future condition decides the fault:
   true → handled now, false → ignored, unspecified → buffered again
   (always buffered in normal mode). Leaves the fault to buffer in
   [st.xfault]. *)
let spec_value st ~pred v =
  match st.xfault with
  | None -> v
  | Some f -> (
      match future_value st pred with
      | Pred.Unspec ->
          eev st Psb_obs.Events.Fault_deferred
            ~a:(match f with Fault.Mem _ -> st.xaddr | Fault.Arith _ -> -1)
            ~b:0;
          0
      | Pred.False ->
          st.xfault <- None;
          0 (* ignored: the result squashes under the future *)
      | Pred.True -> (
          let forwarded = st.xfwd and addr = st.xaddr in
          st.xfault <- None;
          handle_or_abort st f;
          match f with
          | Fault.Arith _ -> assert false (* never recoverable: aborted *)
          | Fault.Mem _ ->
              if forwarded then v else load_nonspec st ~addr ~load_pred:pred))

(* A speculative store's fault is found by probing at issue; the future
   condition decides it in recovery mode, as in [spec_value]. *)
let spec_store_fault st ~pred addr =
  match Memory.probe st.mem addr with
  | None -> None
  | Some f -> (
      let f = Fault.Mem f in
      match future_value st pred with
      | Pred.Unspec ->
          eev st Psb_obs.Events.Fault_deferred ~a:addr ~b:0;
          Some f
      | Pred.False -> None
      | Pred.True ->
          handle_or_abort st f;
          None)

let read_reg st ~shadow_srcs ~pred r =
  Regfile.read st.rf r ~shadow:(Reg.Set.mem r shadow_srcs) ~pred

let read_operand st ~shadow_srcs ~pred = function
  | Operand.Reg r -> read_reg st ~shadow_srcs ~pred r
  | Operand.Imm i -> i

(* Compute an ALU/Mov/Cmp/Load value; a fault is left in [st.xfault]. *)
let compute st ~shadow_srcs ~pred (op : Instr.op) =
  match op with
  | Instr.Alu { op; a; b; _ } ->
      let a = read_operand st ~shadow_srcs ~pred a in
      let b = read_operand st ~shadow_srcs ~pred b in
      alu st op a b
  | Instr.Mov { src; _ } -> read_operand st ~shadow_srcs ~pred src
  | Instr.Load { base; off; _ } ->
      load_access st
        ~addr:(read_reg st ~shadow_srcs ~pred base + off)
        ~load_pred:pred
  | Instr.Cmp { op; a; b; _ } ->
      let a = read_operand st ~shadow_srcs ~pred a in
      let b = read_operand st ~shadow_srcs ~pred b in
      if Opcode.eval_cmp op a b then 1 else 0
  | Instr.Store _ | Instr.Setc _ | Instr.Out _ | Instr.Nop ->
      assert false (* handled by the callers *)

let dest_of (op : Instr.op) =
  match Instr.defs op with [ r ] -> r | _ -> assert false

(* Issue one operation slot whose predicate evaluated True: execute
   non-speculatively. *)
let issue_nonspec st (pi : Pcode.pinstr) =
  let latency = Machine_model.latency st.model pi.op in
  let shadow_srcs = pi.shadow_srcs and pred = pi.cpred in
  match pi.op with
  | Instr.Nop -> ()
  | Instr.Out o ->
      schedule_out st ~latency (read_operand st ~shadow_srcs ~pred o)
  | Instr.Setc { dst; op; a; b } ->
      let a = read_operand st ~shadow_srcs ~pred a in
      let b = read_operand st ~shadow_srcs ~pred b in
      schedule_cond st ~latency dst (Opcode.eval_cmp op a b)
  | Instr.Store { src; base; off } ->
      let addr = read_reg st ~shadow_srcs ~pred base + off in
      let value = read_reg st ~shadow_srcs ~pred src in
      schedule_store st ~latency ~addr ~value ~cpred:pred ~spec:false
        ~fault:None
  | Instr.Alu _ | Instr.Mov _ | Instr.Cmp _ | Instr.Load _ ->
      let value =
        nonspec_value st ~pred (compute st ~shadow_srcs ~pred pi.op)
      in
      schedule_reg_seq st ~latency ~dst:(dest_of pi.op) ~value

(* Issue one operation slot whose predicate is unspecified: execute
   speculatively. *)
let issue_spec st (pi : Pcode.pinstr) =
  st.spec_ops <- st.spec_ops + 1;
  let latency = Machine_model.latency st.model pi.op in
  let shadow_srcs = pi.shadow_srcs and pred = pi.cpred in
  match pi.op with
  | Instr.Nop -> ()
  | Instr.Out _ ->
      machine_error "side-effecting Out issued with an unspecified predicate"
  | Instr.Setc _ ->
      machine_error "Setc issued with an unspecified predicate (must be alw)"
  | Instr.Store { src; base; off } ->
      let addr = read_reg st ~shadow_srcs ~pred base + off in
      let value = read_reg st ~shadow_srcs ~pred src in
      schedule_store st ~latency ~addr ~value ~cpred:pred ~spec:true
        ~fault:(spec_store_fault st ~pred addr)
  | Instr.Alu _ | Instr.Mov _ | Instr.Cmp _ | Instr.Load _ ->
      let value = spec_value st ~pred (compute st ~shadow_srcs ~pred pi.op) in
      schedule_reg_spec st ~latency ~dst:(dest_of pi.op) ~value ~cpred:pred
        ~fault:(take_fault st)

(* ----- lowered issue path -----

   Mirrors [issue_nonspec]/[issue_spec] over the structure-of-arrays
   region form: operand registers, shadow flags, latencies and compiled
   predicates come from flat arrays resolved once by [Lowered.compile],
   and the instruction-variant match is a dense dispatch on
   [Lowered.kind]. Observable behaviour — state changes, events,
   metrics, predicate-evaluation counts, machine errors — must stay
   identical to the tree path; the differential suite and the fuzzer pin
   this. *)

let low_s1 st (lr : Lowered.region) i ~pred =
  let r = lr.Lowered.op_s1_reg.(i) in
  if r >= 0 then Regfile.read st.rf r ~shadow:lr.Lowered.op_s1_sh.(i) ~pred
  else lr.Lowered.op_s1_imm.(i)

let low_s2 st (lr : Lowered.region) i ~pred =
  let r = lr.Lowered.op_s2_reg.(i) in
  if r >= 0 then Regfile.read st.rf r ~shadow:lr.Lowered.op_s2_sh.(i) ~pred
  else lr.Lowered.op_s2_imm.(i)

(* [compute] over the lowered form (value-producing kinds only). *)
let compute_low st (lr : Lowered.region) i ~pred =
  match lr.Lowered.op_kind.(i) with
  | Lowered.Kalu ->
      let a = low_s1 st lr i ~pred in
      let b = low_s2 st lr i ~pred in
      alu st lr.Lowered.op_alu.(i) a b
  | Lowered.Kmov -> low_s1 st lr i ~pred
  | Lowered.Kload ->
      load_access st
        ~addr:(low_s1 st lr i ~pred + lr.Lowered.op_aux.(i))
        ~load_pred:pred
  | Lowered.Kcmp ->
      let a = low_s1 st lr i ~pred in
      let b = low_s2 st lr i ~pred in
      if Opcode.eval_cmp lr.Lowered.op_cmp.(i) a b then 1 else 0
  | Lowered.Knop | Lowered.Kout | Lowered.Ksetc | Lowered.Kstore ->
      assert false (* handled by the callers *)

let issue_nonspec_low st (lr : Lowered.region) i =
  let latency = lr.Lowered.op_lat.(i) in
  let pred = lr.Lowered.op_cpred.(i) in
  match lr.Lowered.op_kind.(i) with
  | Lowered.Knop -> ()
  | Lowered.Kout -> schedule_out st ~latency (low_s1 st lr i ~pred)
  | Lowered.Ksetc ->
      let a = low_s1 st lr i ~pred in
      let b = low_s2 st lr i ~pred in
      schedule_cond st ~latency lr.Lowered.op_aux.(i)
        (Opcode.eval_cmp lr.Lowered.op_cmp.(i) a b)
  | Lowered.Kstore ->
      let addr = low_s1 st lr i ~pred + lr.Lowered.op_aux.(i) in
      let value = low_s2 st lr i ~pred in
      schedule_store st ~latency ~addr ~value ~cpred:pred ~spec:false
        ~fault:None
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload ->
      let value = nonspec_value st ~pred (compute_low st lr i ~pred) in
      schedule_reg_seq st ~latency ~dst:lr.Lowered.op_dst.(i) ~value

let issue_spec_low st (lr : Lowered.region) i =
  st.spec_ops <- st.spec_ops + 1;
  let latency = lr.Lowered.op_lat.(i) in
  let pred = lr.Lowered.op_cpred.(i) in
  match lr.Lowered.op_kind.(i) with
  | Lowered.Knop -> ()
  | Lowered.Kout ->
      machine_error "side-effecting Out issued with an unspecified predicate"
  | Lowered.Ksetc ->
      machine_error "Setc issued with an unspecified predicate (must be alw)"
  | Lowered.Kstore ->
      let addr = low_s1 st lr i ~pred + lr.Lowered.op_aux.(i) in
      let value = low_s2 st lr i ~pred in
      schedule_store st ~latency ~addr ~value ~cpred:pred ~spec:true
        ~fault:(spec_store_fault st ~pred addr)
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload ->
      let value = spec_value st ~pred (compute_low st lr i ~pred) in
      schedule_reg_spec st ~latency ~dst:lr.Lowered.op_dst.(i) ~value ~cpred:pred
        ~fault:(take_fault st)

(* Apply the writeback in slot [s]. Returns [false] when a speculative
   register write hits an occupied shadow entry (single-shadow model):
   the caller requeues it and stalls issue. Condition writes are only
   collected, in [ready] order, for the caller to apply. *)
let apply_wb st s =
  let q = st.wbq in
  match q.kind.(s) with
  | Wout ->
      st.output_rev <- q.value.(s) :: st.output_rev;
      true
  | Wcond ->
      q.cw_cond.(q.ncw) <- q.dst.(s);
      q.cw_value.(q.ncw) <- q.value.(s) <> 0;
      q.ncw <- q.ncw + 1;
      true
  | Wstore ->
      Store_buffer.append st.sb ~addr:q.dst.(s) ~value:q.value.(s)
        ~cpred:q.cpred.(s) ~spec:q.spec.(s) ~fault:q.fault.(s);
      true
  | Wreg when not q.spec.(s) ->
      Regfile.write_seq st.rf q.dst.(s) q.value.(s);
      true
  | Wreg -> (
      let cpred = q.cpred.(s) in
      match eval_cpred st st.ccr cpred with
      | Pred.False ->
          st.wb_squashes <- st.wb_squashes + 1;
          true (* squashed in flight *)
      | Pred.True ->
          (* Committed during execution (like i6 in Table 1). A fault
             surfacing here is a committed exception caught before
             buffering: handle it like a normal exception. *)
          let value =
            match q.fault.(s) with
            | None -> q.value.(s)
            | Some (Fault.Arith _ as f) ->
                handle_or_abort st f;
                assert false
            | Some (Fault.Mem _ as f) ->
                handle_or_abort st f;
                load_nonspec st ~addr:q.load_addr.(s) ~load_pred:cpred
          in
          Regfile.write_seq st.rf q.dst.(s) value;
          true
      | Pred.Unspec -> (
          match
            Regfile.write_spec st.rf q.dst.(s) q.value.(s) ~cpred
              ~fault:q.fault.(s)
          with
          | `Ok -> true
          | `Conflict -> false))

(* A condition's value as this cycle's collected writes would leave it:
   the most recent write wins. *)
let rec pending_cond st c i =
  let q = st.wbq in
  if i < 0 then Ccr.get st.ccr c
  else if q.cw_cond.(i) = c then if q.cw_value.(i) then Pred.T else Pred.F
  else pending_cond st c (i - 1)

(* Detection (§3.5): would applying the collected condition writes commit
   a buffered speculative exception? *)
let detect st =
  (Regfile.buffered_faults st.rf > 0 || Store_buffer.buffered_faults st.sb > 0)
  &&
  let lookup c = pending_cond st c (st.wbq.ncw - 1) in
  Regfile.committing_exceptions st.rf lookup <> []
  || Store_buffer.committing_exceptions st.sb lookup <> []

let rec drain_store_buffer st =
  match
    Store_buffer.drain st.sb ~max:st.model.Machine_model.dcache_ports st.mem
  with
  | _ -> ()
  | exception Memory.Fault f ->
      handle_or_abort st (Fault.Mem f);
      drain_store_buffer st

(* Complete all in-flight writebacks (used at region transitions: the
   machine interlocks until outstanding latencies drain). Returns the
   number of extra cycles charged. *)
let flush_pending st =
  let q = st.wbq in
  let n = wbq_gather q ~now:st.now ~all:true in
  let last_due = ref st.now in
  q.ncw <- 0;
  for k = 0 to n - 1 do
    let s = q.ready.(k) in
    last_due := max !last_due q.due.(s);
    (* a shadow conflict is dead: speculative state is about to be
       squashed *)
    ignore (apply_wb st s);
    wbq_release q s
  done;
  if q.ncw > 0 then machine_error "Setc write pending at region exit";
  !last_due - st.now

let start_recovery st ~future =
  emit st Exception_detected;
  st.recoveries <- st.recoveries + 1;
  (* Invalidate all speculative state: this establishes the precise
     interrupt point. In-flight non-speculative writebacks complete;
     speculative ones are dropped with the shadow state they target. *)
  let q = st.wbq in
  let n = wbq_gather q ~now:st.now ~all:true in
  q.ncw <- 0;
  for k = 0 to n - 1 do
    let s = q.ready.(k) in
    let spec = match q.kind.(s) with Wreg | Wstore -> q.spec.(s) | Wcond | Wout -> false in
    if not spec then ignore (apply_wb st s);
    wbq_release q s
  done;
  if q.ncw > 0 then
    machine_error "non-speculative Setc pending across exception detection";
  Regfile.invalidate_spec st.rf;
  Store_buffer.invalidate_spec st.sb;
  st.mode <- Recovery { future; epc = st.pc };
  st.pc <- 0

(* Region-transition work common to both execution kernels: events,
   accounting, the writeback-drain interlock and the squash of leftover
   speculative state. The caller then installs the next region (or
   halts). *)
let exit_prologue st (target : Pcode.exit_target) =
  if observing st then emit st (Region_exit target);
  eev st Psb_obs.Events.Region_exit
    ~a:(region_id st st.region.Pcode.name)
    ~b:
      (match target with
      | Pcode.Stop -> -1
      | Pcode.To_region l -> region_id st l);
  st.region_transitions <- st.region_transitions + 1;
  let extra = flush_pending st in
  st.acct_transition <-
    st.acct_transition + extra + st.model.Machine_model.transition_penalty;
  st.now <- st.now + extra + st.model.Machine_model.transition_penalty;
  sync_now st;
  (* A final resolve pass: writebacks applied during the flush may have
     buffered state whose predicate is already decided. *)
  ignore
    (Regfile.tick ~mode:st.pred_kernel ~dirty:(-1) ~record:false st.rf st.ccr);
  ignore
    (Store_buffer.tick ~mode:st.pred_kernel ~dirty:(-1) ~record:false st.sb
       st.ccr);
  (* Whatever speculative state remains belongs to untaken paths of the
     region being left (closed-region property): squash it. *)
  Regfile.invalidate_spec st.rf;
  Store_buffer.invalidate_spec st.sb;
  Ccr.reset st.ccr;
  st.dirty <- -1

let exit_stop st =
  drain_store_buffer st;
  (try Store_buffer.drain_all st.sb st.mem
   with Memory.Fault f ->
     handle_or_abort st (Fault.Mem f);
     Store_buffer.drain_all st.sb st.mem);
  raise Halted_exn

let take_exit st (target : Pcode.exit_target) =
  exit_prologue st target;
  match target with
  | Pcode.Stop -> exit_stop st
  | Pcode.To_region l ->
      st.region <- Pcode.find_region st.code l;
      eev st Psb_obs.Events.Region_enter ~a:(region_id st l) ~b:0;
      st.pc <- 0

(* Lowered transition: the fired exit carries its target's region index,
   so entering the next region is an array read. [st.region] follows so
   diagnostics and events name the right region. *)
let take_exit_low st ls ~tidx (target : Pcode.exit_target) =
  exit_prologue st target;
  if tidx < 0 then exit_stop st
  else begin
    ls.lr <- ls.lcode.Lowered.regions.(tidx);
    st.region <- ls.lr.Lowered.source;
    eev st Psb_obs.Events.Region_enter
      ~a:(region_id st st.region.Pcode.name)
      ~b:0;
    st.pc <- 0
  end

(* ----- issue phase (stage 5 of the cycle) -----

   One body per execution kernel; both share the stall logic. *)

let stall_sb st =
  (* structural hazard: a store cannot enter the full FIFO; bundles
     without stores flow past (otherwise the condition-set instruction
     that resolves the blocking speculative head could never issue) *)
  st.sb_stall_cycles <- st.sb_stall_cycles + 1;
  st.kind <- Ksb_stall;
  emit st (Stall Store_buffer_full);
  st.consecutive_stalls <- st.consecutive_stalls + 1;
  if st.consecutive_stalls > 10_000 then
    machine_error "store buffer never drains (speculative head stuck)"

let stall_conflict st =
  st.conflict_stall_cycles <- st.conflict_stall_cycles + 1;
  st.kind <- Kshadow_stall;
  emit st (Stall Shadow_conflict);
  st.consecutive_stalls <- st.consecutive_stalls + 1;
  (* A conflict that never resolves means the scheduler violated the
     shadow-storage WAW commit dependence: the blocking predicate can
     only specify through a Setc that the stall itself is blocking. *)
  if st.consecutive_stalls > 10_000 then
    machine_error
      "shadow storage conflict deadlock (WAW commit dependence violated)"

let issue_tree st ~conflict =
  let bundle_has_store () =
    st.pc < Array.length st.region.Pcode.code
    && List.exists
         (function
           | Pcode.Op { op = Instr.Store _; _ } -> true
           | Pcode.Op _ | Pcode.Exit _ -> false)
         st.region.Pcode.code.(st.pc)
  in
  if
    Store_buffer.length st.sb >= st.model.Machine_model.sb_capacity
    && bundle_has_store ()
  then stall_sb st
  else if conflict then stall_conflict st
  else begin
    st.consecutive_stalls <- 0;
    if st.pc >= Array.length st.region.Pcode.code then
      machine_error "ran off the end of region %s (exits not exhaustive)"
        (Label.name st.region.Pcode.name);
    let bundle = st.region.Pcode.code.(st.pc) in
    (* A Setc may share a bundle with an exit as long as that exit does not
       fire (Figure 4 bundles them); if it fires, the pending condition
       write is caught at the transition (flush_pending). *)
    st.dyn_bundles <- st.dyn_bundles + 1;
    let in_recovery = match st.mode with Recovery _ -> true | Normal -> false in
    (* Operations first. The issue decision per slot is made once, up
       front, so the Bundle_issue event (and the accounting below) can
       never disagree with what actually executed. *)
    let decisions =
      List.map
        (fun slot ->
          match slot with
          | Pcode.Exit _ -> (slot, `Exit)
          | Pcode.Op pi -> (
              ( slot,
                match eval_cpred st st.ccr pi.cpred with
                | Pred.False -> `Squash
                | Pred.True -> if in_recovery then `Squash else `Nonspec
                | Pred.Unspec -> `Spec )))
        bundle
    in
    let count k =
      List.fold_left (fun n (_, d) -> if d = k then n + 1 else n) 0 decisions
    in
    let executed = count `Nonspec + count `Spec in
    if not in_recovery then
      eev st Psb_obs.Events.Issue ~a:executed ~b:(count `Squash);
    if observing st then
      emit st
        (Bundle_issue
           {
             region = st.region.Pcode.name;
             pc = st.pc;
             ops = executed;
             squashed = count `Squash;
             spec = count `Spec;
           });
    (match st.bundle_hist with
    | Some h -> Psb_obs.Metrics.observe h (float_of_int executed)
    | None -> ());
    List.iter
      (fun (slot, decision) ->
        match (slot, decision) with
        | Pcode.Exit _, _ | _, `Exit -> ()
        | Pcode.Op _, `Squash -> st.squashed_ops <- st.squashed_ops + 1
        | Pcode.Op pi, (`Nonspec | `Spec) ->
            st.dyn_ops <- st.dyn_ops + 1;
            let spec = decision = `Spec in
            if observing st then
              emit st
                (Op_issue
                   {
                     op = pi.Pcode.op;
                     pred = pi.Pcode.pred;
                     spec;
                     latency = Machine_model.latency st.model pi.Pcode.op;
                   });
            if spec then issue_spec st pi else issue_nonspec st pi)
      decisions;
    (* ... then exits: the first whose predicate is true fires. *)
    let exit_target =
      List.find_map
        (function
          | Pcode.Op _ -> None
          | Pcode.Exit { cpred; target; _ } -> (
              match eval_cpred st st.ccr cpred with
              | Pred.True ->
                  if in_recovery then
                    machine_error "exit fired during recovery mode";
                  Some target
              | Pred.False | Pred.Unspec -> None))
        bundle
    in
    st.kind <-
      (if in_recovery then Krecovery
       else if executed > 0 || exit_target <> None then Kuseful
       else Ksquashed);
    st.pc <- st.pc + 1;
    match exit_target with
    | Some target -> take_exit st target
    | None -> ()
  end

(* The lowered issue phase: fetch (stall checks over precomputed
   [has_store]), decode (one predicate evaluation per operation into the
   scratch decision buffer — exactly one, like the tree path, so kernel
   evaluation counters agree), issue (dense dispatch on [Lowered.kind]),
   then the exit scan. *)
let issue_low st ls ~conflict =
  let lr = ls.lr in
  if
    Store_buffer.length st.sb >= st.model.Machine_model.sb_capacity
    && st.pc < lr.Lowered.nbundles
    && lr.Lowered.has_store.(st.pc)
  then stall_sb st
  else if conflict then stall_conflict st
  else begin
    st.consecutive_stalls <- 0;
    if st.pc >= lr.Lowered.nbundles then
      machine_error "ran off the end of region %s (exits not exhaustive)"
        (Label.name st.region.Pcode.name);
    st.dyn_bundles <- st.dyn_bundles + 1;
    let in_recovery = match st.mode with Recovery _ -> true | Normal -> false in
    let lo = lr.Lowered.op_bounds.(st.pc)
    and hi = lr.Lowered.op_bounds.(st.pc + 1) in
    let dec = ls.dec in
    let nexec = ref 0 and nspec = ref 0 and nsq = ref 0 in
    for i = lo to hi - 1 do
      let d =
        match eval_cpred st st.ccr lr.Lowered.op_cpred.(i) with
        | Pred.False -> 0
        | Pred.True -> if in_recovery then 0 else 1
        | Pred.Unspec -> 2
      in
      dec.(i - lo) <- d;
      if d = 0 then incr nsq
      else begin
        incr nexec;
        if d = 2 then incr nspec
      end
    done;
    if not in_recovery then eev st Psb_obs.Events.Issue ~a:!nexec ~b:!nsq;
    if observing st then
      emit st
        (Bundle_issue
           {
             region = st.region.Pcode.name;
             pc = st.pc;
             ops = !nexec;
             squashed = !nsq;
             spec = !nspec;
           });
    (match st.bundle_hist with
    | Some h -> Psb_obs.Metrics.observe h (float_of_int !nexec)
    | None -> ());
    for i = lo to hi - 1 do
      match dec.(i - lo) with
      | 0 -> st.squashed_ops <- st.squashed_ops + 1
      | d ->
          st.dyn_ops <- st.dyn_ops + 1;
          let spec = d = 2 in
          if observing st then
            emit st
              (Op_issue
                 {
                   op = lr.Lowered.op_src.(i).Pcode.op;
                   pred = lr.Lowered.op_pred.(i);
                   spec;
                   latency = lr.Lowered.op_lat.(i);
                 });
          if spec then issue_spec_low st lr i else issue_nonspec_low st lr i
    done;
    let xlo = lr.Lowered.ex_bounds.(st.pc)
    and xhi = lr.Lowered.ex_bounds.(st.pc + 1) in
    let fired = ref (-1) in
    let j = ref xlo in
    while !fired < 0 && !j < xhi do
      (match eval_cpred st st.ccr lr.Lowered.ex_cpred.(!j) with
      | Pred.True ->
          if in_recovery then machine_error "exit fired during recovery mode";
          fired := !j
      | Pred.False | Pred.Unspec -> ());
      incr j
    done;
    st.kind <-
      (if in_recovery then Krecovery
       else if !nexec > 0 || !fired >= 0 then Kuseful
       else Ksquashed);
    st.pc <- st.pc + 1;
    if !fired >= 0 then
      take_exit_low st ls
        ~tidx:lr.Lowered.ex_target.(!fired)
        lr.Lowered.ex_tgt.(!fired)
  end

let rec emit_reg_events st = function
  | [] -> ()
  | (r, a) :: rest ->
      emit st (match a with `Commit -> Reg_commit r | `Squash -> Reg_squash r);
      emit_reg_events st rest

let rec emit_store_events st = function
  | [] -> ()
  | (addr, a) :: rest ->
      emit st
        (match a with `Commit -> Store_commit addr | `Squash -> Store_squash addr);
      emit_store_events st rest

let step st ~fuel =
  if st.now > fuel then raise Fuel_exhausted;
  sync_now st;
  (* 0. Recovery completion: reaching the EPC ends recovery mode; the
     future condition becomes the current condition (checked through the
     detection path like any CCR update). *)
  let pending_assign =
    match st.mode with
    | Recovery { future; epc } when st.pc = epc ->
        st.mode <- Normal;
        emit st Recovery_done;
        Some future
    | Recovery _ | Normal -> None
  in
  (match st.mode with
  | Recovery _ -> st.recovery_cycles <- st.recovery_cycles + 1
  | Normal -> ());
  (* 1. Apply writebacks due this cycle. *)
  let q = st.wbq in
  let n = wbq_gather q ~now:st.now ~all:false in
  q.ncw <- 0;
  let conflict = ref false in
  for k = 0 to n - 1 do
    let s = q.ready.(k) in
    if apply_wb st s then wbq_release q s
    else begin
      conflict := true;
      q.due.(s) <- st.now + 1;
      wbq_requeue q s
    end
  done;
  (* 2. CCR update with exception detection. The collected condition
     writes apply most recent first. *)
  (match pending_assign with
  | Some future ->
      assert (q.ncw = 0);
      if
        Regfile.committing_exceptions st.rf (Ccr.lookup future) <> []
        || Store_buffer.committing_exceptions st.sb (Ccr.lookup future) <> []
      then machine_error "detection while leaving recovery";
      Ccr.assign st.ccr ~from:future;
      st.dirty <- -1
  | None ->
      if q.ncw > 0 && detect st then begin
        match st.mode with
        | Recovery _ -> machine_error "exception detection during recovery"
        | Normal ->
            (* Suppress the CCR update; the new value goes to the future
               CCR (§3.5). *)
            let future = Ccr.copy st.ccr in
            for k = q.ncw - 1 downto 0 do
              Ccr.set future q.cw_cond.(k) q.cw_value.(k)
            done;
            start_recovery st ~future;
            st.kind <- Krecovery;
            raise Cycle_done (* re-execution starts next cycle *)
      end
      else
        for k = q.ncw - 1 downto 0 do
          let c = q.cw_cond.(k) and v = q.cw_value.(k) in
          Ccr.set st.ccr c v;
          note_cond_write st c;
          eev st
            (if v then Psb_obs.Events.Pred_true else Psb_obs.Events.Pred_false)
            ~a:(Cond.index c) ~b:0;
          if observing st then emit st (Cond_set (c, v))
        done);
  (* 3. Commit/squash the buffered speculative state. *)
  let record = observing st in
  emit_reg_events st
    (Regfile.tick ~mode:st.pred_kernel ~dirty:st.dirty ~record st.rf st.ccr);
  emit_store_events st
    (Store_buffer.tick ~mode:st.pred_kernel ~dirty:st.dirty ~record st.sb
       st.ccr);
  st.dirty <- 0;
  (* Sample occupancy after commit/squash but before the drain — this is
     the point where buffered state held across the cycle is visible. *)
  note_sb_occupancy st;
  (* 4. Store buffer drains to the D-cache. *)
  drain_store_buffer st;
  (* 5. Issue one bundle (unless stalled on a shadow-storage conflict),
     through whichever execution kernel this run selected. *)
  match st.exec with
  | Etree -> issue_tree st ~conflict:!conflict
  | Elow ls -> issue_low st ls ~conflict:!conflict

let default_fuel = 60_000_000

let run ?(fuel = default_fuel) ?(regfile_mode = Regfile.Single)
    ?(pred_kernel = Pred_kernel.default) ?(exec_kernel = Exec_kernel.default)
    ?lowered ?on_event ?events ?metrics ~model ~regs ~mem (code : Pcode.t) =
  let exec, region0 =
    match exec_kernel with
    | Exec_kernel.Tree -> (Etree, Pcode.find_region code code.Pcode.entry)
    | Exec_kernel.Lowered ->
        let low =
          match lowered with
          | Some (l : Lowered.t) ->
              if l.Lowered.source != code then
                invalid_arg
                  "Vliw_sim.run: lowered form was compiled from a different \
                   pcode";
              if l.Lowered.machine <> model then
                invalid_arg
                  "Vliw_sim.run: lowered form was compiled for a different \
                   machine model";
              l
          | None -> Lowered.compile ~machine:model code
        in
        let lr = low.Lowered.regions.(low.Lowered.entry) in
        ( Elow { lcode = low; lr; dec = Array.make low.Lowered.max_bundle_ops 0 },
          lr.Lowered.source )
  in
  let nregs =
    let m =
      match exec with
      | Elow ls -> ls.lcode.Lowered.nregs
      | Etree ->
          List.fold_left
            (fun acc r ->
              Array.fold_left
                (List.fold_left (fun acc slot ->
                     match slot with
                     | Pcode.Exit _ -> acc
                     | Pcode.Op { op; _ } ->
                         List.fold_left
                           (fun acc r -> max acc (Reg.index r + 1))
                           acc
                           (Instr.defs op @ Instr.uses op)))
                acc r.Pcode.code)
            1 code.Pcode.regions
    in
    List.fold_left (fun acc (r, _) -> max acc (Reg.index r + 1)) m regs
  in
  let sb_hist =
    Option.map
      (fun m ->
        Psb_obs.Metrics.histogram m "vliw_sb_occupancy"
          ~buckets:[ 0.; 1.; 2.; 4.; 8.; 16.; 32. ])
      metrics
  in
  let bundle_hist =
    Option.map
      (fun m ->
        Psb_obs.Metrics.histogram m "vliw_bundle_ops"
          ~buckets:[ 0.; 1.; 2.; 3.; 4.; 6.; 8.; 16. ])
      metrics
  in
  let st =
    {
      model;
      pred_kernel;
      exec;
      on_event;
      events;
      sb_hist;
      bundle_hist;
      code;
      mem;
      rf = Regfile.create ~mode:regfile_mode ?events ~nregs ();
      sb = Store_buffer.create ?events ();
      ccr = Ccr.create ~width:model.Machine_model.ccr_size;
      mode = Normal;
      region = region0;
      pc = 0;
      now = 0;
      wbq = wbq_create 16;
      xfault = None;
      xfwd = false;
      xaddr = 0;
      dirty = -1;
      output_rev = [];
      faults_handled = 0;
      dyn_bundles = 0;
      dyn_ops = 0;
      squashed_ops = 0;
      spec_ops = 0;
      recoveries = 0;
      recovery_cycles = 0;
      conflict_stall_cycles = 0;
      consecutive_stalls = 0;
      region_transitions = 0;
      sb_stall_cycles = 0;
      wb_squashes = 0;
      kind = Kuseful;
      acct_useful = 0;
      acct_squashed = 0;
      acct_shadow_stall = 0;
      acct_sb_stall = 0;
      acct_recovery = 0;
      acct_transition = 0;
      last_sb_occ = 0;
    }
  in
  List.iter (fun (r, v) -> Regfile.write_seq st.rf r v) regs;
  eev st Psb_obs.Events.Region_enter
    ~a:(region_id st st.region.Pcode.name)
    ~b:0;
  let finish outcome =
    let breakdown =
      {
        bd_useful = st.acct_useful;
        bd_squashed = st.acct_squashed;
        bd_shadow_stall = st.acct_shadow_stall;
        bd_sb_stall = st.acct_sb_stall;
        bd_recovery = st.acct_recovery;
        bd_transition = st.acct_transition;
      }
    in
    (match metrics with
    | None -> ()
    | Some m ->
        let open Psb_obs.Metrics in
        let c name v = inc (counter m name) ~by:v in
        c "vliw_cycles_total" st.now;
        c "vliw_dyn_bundles" st.dyn_bundles;
        c "vliw_dyn_ops" st.dyn_ops;
        c "vliw_spec_ops" st.spec_ops;
        c "vliw_recoveries" st.recoveries;
        c "vliw_shadow_conflicts" (Regfile.conflicts st.rf);
        let g name label v = inc (counter m name ~labels:[ label ]) ~by:v in
        g "vliw_tick_entries" ("gate", "examined")
          (Regfile.tick_examined st.rf + Store_buffer.tick_examined st.sb);
        g "vliw_tick_entries" ("gate", "skipped")
          (Regfile.tick_skipped st.rf + Store_buffer.tick_skipped st.sb);
        g "vliw_pred_evals" ("kind", "mask") (Ccr.evals_mask st.ccr);
        g "vliw_pred_evals" ("kind", "map") (Ccr.evals_map st.ccr);
        List.iter
          (fun (cat, v) ->
            inc (counter m "vliw_cycles" ~labels:[ ("category", cat) ]) ~by:v)
          (breakdown_fields breakdown));
    {
      outcome;
      output = List.rev st.output_rev;
      cycles = st.now;
      regs = Regfile.final_state st.rf;
      faults_handled = st.faults_handled;
      stats =
        {
          dyn_bundles = st.dyn_bundles;
          dyn_ops = st.dyn_ops;
          squashed_ops = st.squashed_ops;
          spec_ops = st.spec_ops;
          commits = Regfile.commits st.rf + Store_buffer.commits st.sb;
          squashes =
            Regfile.squashes st.rf + Store_buffer.squashes st.sb
            + st.wb_squashes;
          recoveries = st.recoveries;
          recovery_cycles = st.recovery_cycles;
          shadow_conflicts = Regfile.conflicts st.rf;
          conflict_stall_cycles = st.conflict_stall_cycles;
          sb_max_occupancy = Store_buffer.max_occupancy st.sb;
          sb_stall_cycles = st.sb_stall_cycles;
          region_transitions = st.region_transitions;
        };
      breakdown;
    }
  in
  let bump_kind () =
    match st.kind with
    | Kuseful -> st.acct_useful <- st.acct_useful + 1
    | Ksquashed -> st.acct_squashed <- st.acct_squashed + 1
    | Kshadow_stall -> st.acct_shadow_stall <- st.acct_shadow_stall + 1
    | Ksb_stall -> st.acct_sb_stall <- st.acct_sb_stall + 1
    | Krecovery -> st.acct_recovery <- st.acct_recovery + 1
  in
  let rec loop () =
    (try step st ~fuel with Cycle_done -> ());
    bump_kind ();
    st.now <- st.now + 1;
    loop ()
  in
  try loop () with
  | Halted_exn ->
      bump_kind ();
      st.now <- st.now + 1;
      finish Interp.Halted
  | Abort f ->
      (* Stores semantically before the fault must be visible, as on the
         scalar machine. *)
      Regfile.invalidate_spec st.rf;
      Store_buffer.invalidate_spec st.sb;
      (try Store_buffer.drain_all st.sb st.mem with Memory.Fault _ -> ());
      finish (Interp.Fatal f)
  | Fuel_exhausted -> finish Interp.Out_of_fuel
