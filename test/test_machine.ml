(* Tests of the predicating machine: predicated register file, store
   buffer, CCR, and the cycle-level VLIW simulator — including the
   Figure 4 (commit/squash) and Figure 5 (future-condition recovery)
   scenarios, exercised on hand-written predicated code. *)

open Psb_isa
open Psb_machine

let reg = Reg.make
let cond = Cond.make
let lbl = Label.make

let p_true c = Pred.of_list [ (c, true) ]
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A CCR with the given condition assignments — ticks now take the packed
   CCR itself rather than a lookup closure. *)
let ccr_with ?(width = 4) assigns =
  let ccr = Ccr.create ~width in
  List.iter (fun (c, v) -> Ccr.set ccr (cond c) v) assigns;
  ccr

(* Oracle check: the incremental live/fault counters must agree with a
   full recount of the buffered state. *)
let check_rf_counters rf =
  let live, faults = Regfile.debug_recount rf in
  check_bool "rf live counter" true (Regfile.has_spec rf = (live > 0));
  check_int "rf fault counter" faults (Regfile.buffered_faults rf)

let check_sb_counters sb =
  let len, spec, faults = Store_buffer.debug_recount sb in
  check_int "sb length counter" len (Store_buffer.length sb);
  check_bool "sb spec counter" true (Store_buffer.has_spec sb = (spec > 0));
  check_int "sb fault counter" faults (Store_buffer.buffered_faults sb)

(* ---------- CCR ---------- *)

let test_ccr_basic () =
  let ccr = Ccr.create ~width:4 in
  check_bool "initially unspecified" true (Ccr.get ccr (cond 0) = Pred.U);
  Ccr.set ccr (cond 0) true;
  Ccr.set ccr (cond 2) false;
  check_bool "c0 true" true (Ccr.get ccr (cond 0) = Pred.T);
  check_bool "c2 false" true (Ccr.get ccr (cond 2) = Pred.F);
  Ccr.reset ccr;
  check_bool "reset" true (Ccr.get ccr (cond 0) = Pred.U)

let test_ccr_eval () =
  let ccr = Ccr.create ~width:4 in
  let p = Pred.of_list [ (cond 0, true); (cond 1, false) ] in
  check_bool "unspec" true (Ccr.eval ccr p = Pred.Unspec);
  Ccr.set ccr (cond 0) true;
  (* paper rule: still unspecified while c1 is unset *)
  check_bool "still unspec" true (Ccr.eval ccr p = Pred.Unspec);
  Ccr.set ccr (cond 1) false;
  check_bool "true" true (Ccr.eval ccr p = Pred.True);
  Ccr.set ccr (cond 1) true;
  check_bool "false" true (Ccr.eval ccr p = Pred.False)

let test_ccr_assign () =
  let a = Ccr.create ~width:3 and b = Ccr.create ~width:3 in
  Ccr.set b (cond 1) true;
  Ccr.assign a ~from:b;
  check_bool "copied" true (Ccr.get a (cond 1) = Pred.T);
  Ccr.set b (cond 1) false;
  check_bool "independent" true (Ccr.get a (cond 1) = Pred.T)

(* ---------- Register file ---------- *)

let test_regfile_commit () =
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 0) 10;
  let p = p_true (cond 0) in
  check_bool "spec write ok" true
    (Regfile.write_spec rf (reg 0) 99 ~cpred:(Pred.compile p) ~fault:None = `Ok);
  check_int "seq unchanged" 10 (Regfile.read_seq rf (reg 0));
  check_int "shadow read" 99 (Regfile.read rf (reg 0) ~shadow:true ~pred:(Pred.compile p));
  check_rf_counters rf;
  ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:(-1) ~record:true rf (ccr_with [ (0, true) ]));
  check_int "committed" 99 (Regfile.read_seq rf (reg 0));
  check_bool "shadow cleared" true (not (Regfile.has_spec rf));
  check_rf_counters rf

let test_regfile_squash () =
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 1) 7;
  ignore
    (Regfile.write_spec rf (reg 1) 42
       ~cpred:(Pred.compile (p_true (cond 0)))
       ~fault:None);
  ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:(-1) ~record:true rf (ccr_with [ (0, false) ]));
  check_int "squashed: seq intact" 7 (Regfile.read_seq rf (reg 1));
  check_bool "no spec left" true (not (Regfile.has_spec rf));
  check_int "one squash" 1 (Regfile.squashes rf)

let test_regfile_shadow_fallback () =
  (* §3.5 operand fetch: reading shadow with V clear falls back to seq. *)
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 2) 5;
  check_int "fallback" 5 (Regfile.read rf (reg 2) ~shadow:true ~pred:Pred.compiled_always)

let test_regfile_conflict () =
  let rf = Regfile.create ~nregs:4 () in
  let c0 = Pred.compile (p_true (cond 0))
  and c1 = Pred.compile (p_true (cond 1)) in
  check_bool "first ok" true
    (Regfile.write_spec rf (reg 0) 1 ~cpred:c0 ~fault:None = `Ok);
  check_bool "different pred conflicts" true
    (Regfile.write_spec rf (reg 0) 2 ~cpred:c1 ~fault:None = `Conflict);
  check_bool "same pred overwrites" true
    (Regfile.write_spec rf (reg 0) 3 ~cpred:c0 ~fault:None = `Ok);
  check_int "conflict counted" 1 (Regfile.conflicts rf);
  check_rf_counters rf

let test_regfile_infinite_mode () =
  let rf = Regfile.create ~mode:Regfile.Infinite ~nregs:4 () in
  let c0 = Pred.compile (p_true (cond 0))
  and c1 = Pred.compile (p_true (cond 1)) in
  check_bool "first ok" true
    (Regfile.write_spec rf (reg 0) 1 ~cpred:c0 ~fault:None = `Ok);
  check_bool "second ok too" true
    (Regfile.write_spec rf (reg 0) 2 ~cpred:c1 ~fault:None = `Ok);
  check_int "no conflicts" 0 (Regfile.conflicts rf);
  (* c0 true, c1 false: version 1 commits, version 2 squashes. *)
  ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:(-1) ~record:true rf (ccr_with [ (0, true); (1, false) ]));
  check_int "right version committed" 1 (Regfile.read_seq rf (reg 0))

let test_regfile_exception_buffering () =
  let rf = Regfile.create ~nregs:4 () in
  let f = Fault.Mem (Memory.Unmapped 100) in
  let p = p_true (cond 0) in
  ignore
    (Regfile.write_spec rf (reg 3) 0 ~cpred:(Pred.compile p) ~fault:(Some f));
  check_rf_counters rf;
  check_int "no detection while unspec" 0
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.U)));
  check_int "detected on commit" 1
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.T)));
  check_int "squash clears it" 0
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.F)))

(* ---------- Store buffer ---------- *)

let test_sb_fifo_drain () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:11 ~cpred:Pred.compiled_always
    ~spec:false ~fault:None;
  Store_buffer.append sb ~addr:2 ~value:22 ~cpred:Pred.compiled_always
    ~spec:false ~fault:None;
  check_sb_counters sb;
  check_int "drain limited" 1 (Store_buffer.drain sb ~max:1 mem);
  check_int "first written" 11 (Memory.peek mem 1);
  check_int "second pending" 0 (Memory.peek mem 2);
  check_int "drain rest" 1 (Store_buffer.drain sb ~max:8 mem);
  check_int "second written" 22 (Memory.peek mem 2)

let test_sb_spec_blocks_drain () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:1
    ~cpred:(Pred.compile (p_true (cond 0)))
    ~spec:true ~fault:None;
  Store_buffer.append sb ~addr:2 ~value:2 ~cpred:Pred.compiled_always
    ~spec:false ~fault:None;
  check_int "speculative head blocks" 0 (Store_buffer.drain sb ~max:8 mem);
  check_sb_counters sb;
  ignore (Store_buffer.tick ~mode:Pred_kernel.Mask ~dirty:(-1) ~record:true sb (ccr_with [ (0, true) ]));
  check_sb_counters sb;
  check_int "after commit both drain" 2 (Store_buffer.drain sb ~max:8 mem);
  check_int "order preserved" 1 (Memory.peek mem 1)

let test_sb_squash () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:1
    ~cpred:(Pred.compile (p_true (cond 0)))
    ~spec:true ~fault:None;
  ignore (Store_buffer.tick ~mode:Pred_kernel.Mask ~dirty:(-1) ~record:true sb (ccr_with [ (0, false) ]));
  check_sb_counters sb;
  check_int "squashed entry discarded" 0 (Store_buffer.drain sb ~max:8 mem);
  check_int "nothing written" 0 (Memory.peek mem 1);
  check_int "buffer empty" 0 (Store_buffer.length sb)

let test_sb_forwarding () =
  let sb = Store_buffer.create () in
  let p0 = Pred.compile (p_true (cond 0)) in
  let not_p0 = Pred.compile (Pred.of_list [ (cond 0, false) ]) in
  let unspec = ccr_with [] in
  let forward load_pred =
    match
      Store_buffer.forward ~mode:Pred_kernel.Mask sb ~addr:5 ~load_pred unspec
    with
    | Store_buffer.Hit ->
        `Hit (Store_buffer.hit_value sb, Store_buffer.hit_fault sb)
    | Store_buffer.Miss -> `Miss
    | Store_buffer.Commit_dependence -> `Commit_dependence
  in
  Store_buffer.append sb ~addr:5 ~value:50 ~cpred:Pred.compiled_always
    ~spec:false ~fault:None;
  (match forward Pred.compiled_always with
  | `Hit (50, None) -> ()
  | _ -> Alcotest.fail "expected hit from non-speculative entry");
  Store_buffer.append sb ~addr:5 ~value:60 ~cpred:p0 ~spec:true ~fault:None;
  (* A load on the opposite path skips the speculative entry. *)
  (match forward not_p0 with
  | `Hit (50, None) -> ()
  | _ -> Alcotest.fail "disjoint speculative entry must be skipped");
  (* A load control-dependent on the store sees the speculative value. *)
  (match forward p0 with
  | `Hit (60, None) -> ()
  | _ -> Alcotest.fail "implied speculative entry must forward");
  (* An unrelated load with an unresolved store is a commit dependence. *)
  (match forward Pred.compiled_always with
  | `Commit_dependence -> ()
  | _ -> Alcotest.fail "expected commit-dependence report")

(* ---------- VLIW machine: hand-written predicated code ---------- *)

let model = Machine_model.base

let run_pcode ?regs ?(mem_size = 256) ?mem pcode =
  let mem = match mem with Some m -> m | None -> Memory.create ~size:mem_size in
  let regs = Option.value regs ~default:[] in
  (Vliw_sim.run ~model ~regs ~mem pcode, mem)

let region name ?(sources = []) bundles =
  { Pcode.name = lbl name; code = Array.of_list bundles; source_blocks = sources }

let mov ?(pred = Pred.always) d src = Pcode.op pred (Instr.Mov { dst = reg d; src })

let setc c op a b = Pcode.op Pred.always (Instr.Setc { dst = cond c; op; a; b })

let load ?(pred = Pred.always) ?(shadow = []) d base off =
  Pcode.op
    ~shadow_srcs:(List.fold_left (fun s r -> Reg.Set.add (reg r) s) Reg.Set.empty shadow)
    pred
    (Instr.Load { dst = reg d; base = reg base; off })

let store ?(pred = Pred.always) src base off =
  Pcode.op pred (Instr.Store { src = reg src; base = reg base; off })

let out ?(pred = Pred.always) o = Pcode.op pred (Instr.Out o)
let imm i = Operand.imm i
let r i = Operand.reg (reg i)

(* A diamond collapsed into one region: r2 chosen by c0, both sides
   executed speculatively before c0 is known. *)
let diamond_region ~c0_true =
  let cmp_imm = if c0_true then 10 else 1 in
  region "main"
    [
      [ mov 1 (imm 5) ];
      (* both arms execute speculatively: shadow writes with predicates *)
      [
        mov ~pred:(p_true (cond 0)) 2 (imm 111);
        mov ~pred:(Pred.of_list [ (cond 0, false) ]) 3 (imm 222);
      ];
      [ setc 0 Opcode.Lt (r 1) (imm cmp_imm) ];
      [ out (r 2); out (r 3) ];
      [ Pcode.exit_stop Pred.always ];
    ]

let test_vliw_diamond_commit () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:true ] in
  let res, _ = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  (* c0 true: r2 committed to 111, r3's write squashed (reads as 0). *)
  Alcotest.(check (list int)) "output" [ 111; 0 ] res.Vliw_sim.output;
  check_bool "some commit" true (res.Vliw_sim.stats.Vliw_sim.commits >= 1);
  check_bool "some squash" true (res.Vliw_sim.stats.Vliw_sim.squashes >= 1)

let test_vliw_diamond_squash () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:false ] in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "output" [ 0; 222 ] res.Vliw_sim.output

let test_vliw_spec_store_commit () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 10 ] (* spec store mem[r0+10] *);
            [ setc 0 Opcode.Eq (r 1) (imm 7) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "store committed and drained" 7 (Memory.peek mem 10)

let test_vliw_spec_store_squash () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 10 ];
            [ setc 0 Opcode.Eq (r 1) (imm 999) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "store squashed" 0 (Memory.peek mem 10)

(* Figure-5-style scenario: a speculative load faults; the fault is
   buffered with its predicate; the condition later commits it; the
   machine recovers through the future condition and handles the fault
   (demand page mapped), then resumes. *)
let recovery_region ~addr =
  let nop = Pcode.op Pred.always Instr.Nop in
  region "main"
    [
      [ mov 2 (imm addr) ];
      [ load ~pred:(p_true (cond 0)) 3 2 0 ] (* speculative, faults *);
      [ nop ] (* respect the two-cycle load latency *);
      [
        Pcode.op
          ~shadow_srcs:(Reg.Set.singleton (reg 3))
          (p_true (cond 0))
          (Instr.Alu { op = Opcode.Add; dst = reg 4; a = r 3; b = imm 1 });
      ]
      (* dependent on the corrupted value; must be re-executed *);
      [ mov 5 (imm 50) ] (* independent non-speculative work *);
      [ setc 0 Opcode.Lt (imm 0) (imm 1) ] (* commits the exception *);
      [ out (r 4); out (r 5) ];
      [ Pcode.exit_stop Pred.always ];
    ]

let test_vliw_recovery_recoverable () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 1100 77;
  (* poke maps the page; fault must come from an address on another page *)
  let addr = 1200 in
  let pcode = Pcode.make ~entry:(lbl "main") [ recovery_region ~addr ] in
  let res, _ = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "fault handled once" 1 res.Vliw_sim.faults_handled;
  (* mem[1200] reads 0 after mapping; r4 = 0 + 1 *)
  Alcotest.(check (list int)) "output" [ 1; 50 ] res.Vliw_sim.output

let test_vliw_recovery_dependent_reexecuted () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 1100 77;
  (* Remap trick: pre-poke the faulting address on an unmapped page is not
     possible (poke maps it); instead verify via a mapped-later value: the
     handled load reads 0, so the dependent add yields 1 — checked above.
     Here check a non-faulting speculative chain for contrast. *)
  let pcode = Pcode.make ~entry:(lbl "main") [ recovery_region ~addr:1100 ] in
  let res, _ = run_pcode ~mem pcode in
  check_int "no recovery when page mapped" 0 res.Vliw_sim.stats.Vliw_sim.recoveries;
  Alcotest.(check (list int)) "output" [ 78; 50 ] res.Vliw_sim.output

let test_vliw_fatal_committed_exception () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-4)) ];
            [ load ~pred:(p_true (cond 0)) 3 2 0 ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (r 3) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  (match res.Vliw_sim.outcome with
  | Interp.Fatal (Fault.Mem (Memory.Out_of_bounds -4)) -> ()
  | o -> Alcotest.failf "expected fatal OOB, got %a" Interp.pp_outcome o);
  check_int "recovery attempted" 1 res.Vliw_sim.stats.Vliw_sim.recoveries

let test_vliw_squashed_fault_ignored () =
  (* The linked-list motivation (§2.1): a speculative load faults but its
     predicate turns out false — the fault must vanish without a trace. *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-4)) ];
            [ load ~pred:(p_true (cond 0)) 3 2 0 ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ setc 0 Opcode.Lt (imm 1) (imm 0) ] (* c0 = false *);
            [ out (imm 123) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  check_bool "halted normally" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "no recoveries" 0 res.Vliw_sim.stats.Vliw_sim.recoveries;
  Alcotest.(check (list int)) "output" [ 123 ] res.Vliw_sim.output

let test_vliw_region_transition () =
  let r1 =
    region "r1"
      [
        [ mov 1 (imm 3) ];
        [ setc 0 Opcode.Lt (r 1) (imm 10) ];
        [
          Pcode.exit_to (p_true (cond 0)) (lbl "r2");
          Pcode.exit_stop (Pred.of_list [ (cond 0, false) ]);
        ];
      ]
  in
  let r2 =
    region "r2"
      [
        (* c0 must have been reset on entry: a predicated op here must be
           speculative again, not committed from the previous region. *)
        [ mov ~pred:(p_true (cond 0)) 2 (imm 5) ];
        [ setc 0 Opcode.Gt (r 1) (imm 100) ] (* false in r2 *);
        [ out (r 2) ];
        [ Pcode.exit_stop Pred.always ];
      ]
  in
  let pcode = Pcode.make ~entry:(lbl "r1") [ r1; r2 ] in
  let res, _ = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  (* In r2, c0 is false, so r2's speculative mov squashes: out = 0. *)
  Alcotest.(check (list int)) "output" [ 0 ] res.Vliw_sim.output;
  check_int "one transition + final stop" 2
    res.Vliw_sim.stats.Vliw_sim.region_transitions

let test_vliw_shadow_source_fetch () =
  (* A consumer reading the producer's speculative value via the shadow
     flag, before the producer commits. *)
  let p0 = p_true (cond 0) in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [ mov ~pred:p0 2 (imm 40) ];
            [ Pcode.op Pred.always Instr.Nop ];
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.singleton (reg 2))
                p0
                (Instr.Alu { op = Opcode.Add; dst = reg 4; a = r 2; b = imm 2 });
            ];
            [ setc 0 Opcode.Lt (r 1) (imm 10) ];
            [ out (r 4) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "shadow operand seen" [ 42 ] res.Vliw_sim.output

let test_vliw_out_of_fuel () =
  let pcode =
    Pcode.make ~entry:(lbl "spin")
      [
        region "spin"
          [ [ mov 1 (imm 1) ]; [ Pcode.exit_to Pred.always (lbl "spin") ] ];
      ]
  in
  let res, _ = Vliw_sim.run ~fuel:1000 ~model ~regs:[] ~mem:(Memory.create ~size:16)
      pcode |> fun r -> (r, ()) in
  check_bool "out of fuel" true (res.Vliw_sim.outcome = Interp.Out_of_fuel)

let test_vliw_conflict_stall () =
  (* Two speculative writes to the same register with different predicates,
     issued in the same bundle as the condition-setting instruction so the
     conflict resolves one cycle later: the single-shadow model must stall
     once and still produce the right result. *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(Pred.of_list [ (cond 0, false) ]) 2 (imm 222);
            ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ out (r 2) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "right value" [ 111 ] res.Vliw_sim.output;
  check_bool "conflict recorded" true
    (res.Vliw_sim.stats.Vliw_sim.shadow_conflicts >= 1);
  (* The infinite-shadow model executes the same code without stalls. *)
  let mem = Memory.create ~size:256 in
  let res_inf =
    Vliw_sim.run ~regfile_mode:Regfile.Infinite ~model ~regs:[] ~mem pcode
  in
  Alcotest.(check (list int)) "same result" [ 111 ] res_inf.Vliw_sim.output;
  check_int "no conflicts" 0 res_inf.Vliw_sim.stats.Vliw_sim.shadow_conflicts

(* ---------- recovery edge cases ---------- *)

(* Two independent speculative faults committed by two different conditions
   in one region: two full recovery episodes back to back. *)
let test_vliw_double_recovery () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 3072) in
  let nop = Pcode.op Pred.always Instr.Nop in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm 1200); mov 3 (imm 2200) ];
            [ load ~pred:(p_true (cond 0)) 4 2 0 ] (* faults, pred c0 *);
            [ load ~pred:(p_true (cond 1)) 5 3 0 ] (* faults, pred c1 *);
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ] (* commits fault #1 *);
            [ nop ];
            [ setc 1 Opcode.Lt (imm 1) (imm 2) ] (* commits fault #2 *);
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.of_list [ reg 4; reg 5 ])
                (Pred.of_list [ (cond 0, true); (cond 1, true) ])
                (Instr.Alu { op = Opcode.Add; dst = reg 6; a = r 4; b = r 5 });
            ];
            [ out (r 6) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "two recoveries" 2 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "two faults handled" 2 res.Vliw_sim.faults_handled;
  Alcotest.(check (list int)) "sum of mapped zeros" [ 0 ] res.Vliw_sim.output

(* A speculative store before the commit point must be invalidated at
   detection and regenerated by the recovery re-execution. *)
let test_vliw_recovery_regenerates_store () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  let nop = Pcode.op Pred.always Instr.Nop in
  let p0 = p_true (cond 0) in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm 1200); mov 3 (imm 77) ];
            [ load ~pred:p0 4 2 0; store ~pred:p0 3 0 10 ]
            (* the load faults; the store is speculative and will be
               invalidated, then re-executed during recovery *);
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "store survived recovery" 77 (Memory.peek mem 10)

(* A fatal fault whose predicate commits: recovery runs, re-faults, and
   the future condition says handle it — fatal aborts the program. *)
let test_vliw_fatal_during_recovery () =
  let nop = Pcode.op Pred.always Instr.Nop in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-3)) ];
            [ load ~pred:(p_true (cond 0)) 4 2 0 ];
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (imm 9) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  (match res.Vliw_sim.outcome with
  | Interp.Fatal (Fault.Mem (Memory.Out_of_bounds -3)) -> ()
  | o -> Alcotest.failf "expected fatal OOB, got %a" Interp.pp_outcome o);
  check_int "recovery was attempted" 1 res.Vliw_sim.stats.Vliw_sim.recoveries

(* Store-buffer capacity: with two store units feeding one D-cache write
   port, a burst of stores outruns the drain, fills the tiny FIFO, and
   stalls the next store bundle until the backlog clears. A speculative
   head whose resolver is scheduled behind a stalled store can never
   resolve — the deadlock guard reports it as a machine error. *)
let test_vliw_sb_capacity_stall () =
  let burst =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store 1 0 20; store 1 0 21 ];
            [ store 1 0 22; store 1 0 23 ];
            [ store 1 0 24 ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let tiny =
    {
      model with
      Machine_model.sb_capacity = 2;
      Machine_model.store_units = 2;
      Machine_model.dcache_ports = 1;
    }
  in
  let mem = Memory.create ~size:256 in
  let res = Vliw_sim.run ~model:tiny ~regs:[] ~mem burst in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_bool "stalled on the full buffer" true
    (res.Vliw_sim.stats.Vliw_sim.sb_stall_cycles > 0);
  check_int "all stores landed" 7 (Memory.peek mem 24);
  (* ample capacity: no stalls *)
  let roomy = { tiny with Machine_model.sb_capacity = 16 } in
  let res2 = Vliw_sim.run ~model:roomy ~regs:[] ~mem:(Memory.create ~size:256) burst in
  check_int "no stalls at capacity 16" 0 res2.Vliw_sim.stats.Vliw_sim.sb_stall_cycles;
  (* pathological: a speculative head blocks the FIFO and its resolving
     Setc sits behind a stalled store bundle *)
  let bad =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 20 ];
            [ store 1 0 21 ];
            [ setc 0 Opcode.Gt (imm 1) (imm 0) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let cap1 = { tiny with Machine_model.sb_capacity = 1 } in
  match Vliw_sim.run ~model:cap1 ~regs:[] ~mem:(Memory.create ~size:256) bad with
  | _ -> Alcotest.fail "expected a machine error"
  | exception Vliw_sim.Machine_error _ -> ()

(* ---------- The paper's own example: Figure 4 / Table 1 ---------- *)

(* The scheduled code of Figure 4, transcribed bundle by bundle for the
   2-issue machine, and driven down the c0&c1 path of Table 1:

     (1) i1 : alw   r1 = load(r2)      i15: c0&c1  r2.s = r2 - 1
     (2) i10: !c0   r5.s = load array  i14: c0&c1  store(r7) = r5
     (3) i2 : alw   r3 = r1 + 1        i16: c0&c1  r7.s = r2.s << 1
     (4) i6 : c0    r6 = load(r3)      i3 : alw    c0 = r3 < r4
     (5) i11: alw   c2 = r2 < 0        nop
     (6) i7 : alw   c1 = r5 < r6       i12: !c0&c2  j L6
     (7) i9 : c0&!c1 j L5              i17: c0&c1   j L8
     (8) i13: !c0&!c2 j L7             nop

   Expected behaviour (Table 1): the speculative r5 is squashed when c0
   sets true; i6 commits during execution; r2, r7 and the buffered store
   commit when c1 sets true; the region exits through i17 to L8. *)
let test_paper_figure4 () =
  let c0 = cond 0 and c1 = cond 1 and c2 = cond 2 in
  let p_c0c1 = Pred.of_list [ (c0, true); (c1, true) ] in
  let p_nc0 = Pred.of_list [ (c0, false) ] in
  let p_c0 = Pred.of_list [ (c0, true) ] in
  let p_c0nc1 = Pred.of_list [ (c0, true); (c1, false) ] in
  let p_nc0c2 = Pred.of_list [ (c0, false); (c2, true) ] in
  let p_nc0nc2 = Pred.of_list [ (c0, false); (c2, false) ] in
  let setc_cmp c op a b = Pcode.op Pred.always (Instr.Setc { dst = c; op; a; b }) in
  let main =
    region "L4"
      [
        (* (1) *)
        [ load 1 2 0; Pcode.op p_c0c1 (Instr.Alu { op = Opcode.Sub; dst = reg 2; a = r 2; b = imm 1 }) ];
        (* (2): i10 loads the array element; i14 buffers a speculative store *)
        [ load ~pred:p_nc0 5 8 0; store ~pred:p_c0c1 5 7 0 ];
        (* (3) *)
        [ Pcode.op Pred.always (Instr.Alu { op = Opcode.Add; dst = reg 3; a = r 1; b = imm 1 });
          Pcode.op ~shadow_srcs:(Reg.Set.singleton (reg 2)) p_c0c1
            (Instr.Alu { op = Opcode.Sll; dst = reg 7; a = r 2; b = imm 1 }) ];
        (* (4) *)
        [ load ~pred:p_c0 6 3 0; setc_cmp c0 Opcode.Lt (r 3) (r 4) ];
        (* (5) *)
        [ setc_cmp c2 Opcode.Lt (r 2) (imm 0) ];
        (* (6) *)
        [ setc_cmp c1 Opcode.Lt (r 5) (r 6); Pcode.exit_to p_nc0c2 (lbl "L6") ];
        (* (7) *)
        [ Pcode.exit_to p_c0nc1 (lbl "L5"); Pcode.exit_to p_c0c1 (lbl "L8") ];
        (* (8) *)
        [ Pcode.exit_to p_nc0nc2 (lbl "L7") ];
      ]
  in
  let stop name = region name [ [ out (imm 0); Pcode.exit_stop Pred.always ] ] in
  let l8 = region "L8" [ [ out (imm 8); Pcode.exit_stop Pred.always ] ] in
  let pcode =
    Pcode.make ~entry:(lbl "L4") [ main; l8; stop "L5"; stop "L6"; stop "L7" ]
  in
  let mem = Memory.create ~size:256 in
  Memory.poke mem 40 5 (* r1 = mem[r2=40] = 5, so r3 = 6 *);
  Memory.poke mem 6 100 (* r6 = mem[r3=6] = 100 *);
  Memory.poke mem 64 55 (* the array element i10 loads speculatively *);
  let regs =
    [ (reg 2, 40); (reg 4, 10); (reg 5, 7); (reg 7, 99); (reg 8, 64) ]
  in
  let two_issue =
    { Machine_model.base with Machine_model.issue_width = 2 }
  in
  let events = ref [] in
  let on_event cycle ev = events := (cycle, ev) :: !events in
  let res = Vliw_sim.run ~on_event ~model:two_issue ~regs ~mem pcode in
  let events = List.rev !events in
  (* took the i17 exit to L8 *)
  Alcotest.(check (list int)) "exited to L8" [ 8 ] res.Vliw_sim.output;
  (* r2 committed as r2 - 1 *)
  check_int "r2 committed" 39 (Reg.Map.find (reg 2) res.Vliw_sim.regs);
  (* i16 read the speculative r2 through the shadow: r7 = (40-1) << 1 *)
  check_int "r7 from shadow r2" 78 (Reg.Map.find (reg 7) res.Vliw_sim.regs);
  (* i14 stored the sequential r5 at the old r7 and committed via sb1 *)
  check_int "store committed" 7 (Memory.peek mem 99);
  (* i10's speculative r5 was squashed: the sequential r5 is untouched *)
  check_int "r5 squashed" 7 (Reg.Map.find (reg 5) res.Vliw_sim.regs);
  (* i6 committed during execution *)
  check_int "r6 committed in flight" 100 (Reg.Map.find (reg 6) res.Vliw_sim.regs);
  check_bool "at least one squash (r5)" true (res.Vliw_sim.stats.Vliw_sim.squashes >= 1);
  check_bool "speculative commits (r2, r7, sb1)" true
    (res.Vliw_sim.stats.Vliw_sim.commits >= 3);
  (* Table 1 runs 7 cycles to the transfer; allow the pipeline-drain tail *)
  check_bool
    (Format.asprintf "region time ~ Table 1 (got %d cycles)" res.Vliw_sim.cycles)
    true
    (res.Vliw_sim.cycles >= 7 && res.Vliw_sim.cycles <= 12);
  (* Table 1's event sequence: r5 squashes when c0 sets (cycle 5 in the
     paper's 1-based counting); r2, r7 and the buffered store all commit
     together when c1 sets (cycle 7); the exit to L8 fires the same
     cycle. *)
  let cycle_of ev =
    List.find_map (fun (c, e) -> if e = ev then Some c else None) events
  in
  let get name ev =
    match cycle_of ev with
    | Some c -> c
    | None -> Alcotest.failf "event %s missing from the trace" name
  in
  let t_squash_r5 = get "squash r5" (Vliw_sim.Reg_squash (reg 5)) in
  let t_commit_r2 = get "commit r2" (Vliw_sim.Reg_commit (reg 2)) in
  let t_commit_r7 = get "commit r7" (Vliw_sim.Reg_commit (reg 7)) in
  let t_commit_sb = get "commit sb" (Vliw_sim.Store_commit 99) in
  let t_exit = get "exit" (Vliw_sim.Region_exit (Pcode.To_region (lbl "L8"))) in
  check_bool "r5 squashed before the c0&c1 commits" true
    (t_squash_r5 < t_commit_r2);
  check_int "r2 and r7 commit together" t_commit_r2 t_commit_r7;
  check_int "the store commits with them" t_commit_r2 t_commit_sb;
  check_int "exit fires the same cycle as the commits" t_commit_r2 t_exit;
  (* the squash happens exactly two cycles before the commit group, as in
     Table 1 (c0 at cycle 5, c1 at cycle 7) *)
  check_int "squash-to-commit spacing" 2 (t_commit_r2 - t_squash_r5)

(* The Figure 5 walkthrough (§3.5): i4's speculative exception commits
   when c1 sets true; the machine saves the future condition, rolls back,
   and in recovery mode handles i4's fault (its predicate is true under
   the future condition), ignores i5's (false under it), and regenerates
   i6's value; recovery ends at the original commit point.

     i1: alw    ? r1 = r2          i5: c0&!c1 ? r5.s = load(r6)   [faults]
     i2: alw    ? c0 = r3 < 0      i6: c0&c1  ? r7.s = r7 + r3.s
     i3: c0     ? r2 = load(r2)    i7: alw    ? c1 = r2 > r8
     i4: c0&c1  ? r3.s = load(r4)  [faults]                          *)
let test_paper_figure5 () =
  let c0 = cond 0 and c1 = cond 1 in
  let p_c0 = p_true c0 in
  let p_c0c1 = Pred.of_list [ (c0, true); (c1, true) ] in
  let p_c0nc1 = Pred.of_list [ (c0, true); (c1, false) ] in
  let pcode =
    Pcode.make ~entry:(lbl "R")
      [
        region "R"
          [
            [ mov 1 (r 2) ];
            [ setc 0 Opcode.Lt (r 3) (imm 0) ];
            [ load ~pred:p_c0 2 2 0 ];
            [ load ~pred:p_c0c1 3 4 0 ];
            [ load ~pred:p_c0nc1 5 6 0 ];
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.singleton (reg 3))
                p_c0c1
                (Instr.Alu { op = Opcode.Add; dst = reg 7; a = r 7; b = r 3 });
            ];
            [ setc 1 Opcode.Gt (r 2) (r 8) ];
            [ out (r 7) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 50 99 (* i3's load: 99 > r8, so c1 sets true *);
  let regs =
    [ (reg 2, 50); (reg 3, -1); (reg 4, 1100); (reg 6, 1300); (reg 7, 10); (reg 8, 5) ]
  in
  let single_issue = { Machine_model.base with Machine_model.issue_width = 1 } in
  let events = ref [] in
  let on_event cycle ev = events := (cycle, ev) :: !events in
  let res = Vliw_sim.run ~on_event ~model:single_issue ~regs ~mem pcode in
  let events = List.rev !events in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery episode" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  (* i4's exception handled; i5's squashed without a handler call *)
  check_int "only i4's fault handled" 1 res.Vliw_sim.faults_handled;
  (* r7 regenerated by i6's re-execution: 10 + mem[1100 after mapping]=0 *)
  Alcotest.(check (list int)) "r7 regenerated" [ 10 ] res.Vliw_sim.output;
  (* event order: detection → recovery done → r3/r7 commit and r5 squash *)
  let idx name p =
    match List.find_index (fun (_, e) -> p e) events with
    | Some i -> i
    | None -> Alcotest.failf "event %s missing" name
  in
  let det = idx "detect" (fun e -> e = Vliw_sim.Exception_detected) in
  let fin = idx "recovery done" (fun e -> e = Vliw_sim.Recovery_done) in
  let commit_r3 = idx "commit r3" (fun e -> e = Vliw_sim.Reg_commit (reg 3)) in
  let commit_r7 = idx "commit r7" (fun e -> e = Vliw_sim.Reg_commit (reg 7)) in
  let squash_r5 = idx "squash r5" (fun e -> e = Vliw_sim.Reg_squash (reg 5)) in
  check_bool "detection precedes recovery end" true (det < fin);
  check_bool "commits happen after recovery" true
    (fin < commit_r3 && fin < commit_r7 && fin < squash_r5);
  (* the squashed i5 entry never triggers a second detection *)
  check_int "exactly one detection" 1
    (List.length (List.filter (fun (_, e) -> e = Vliw_sim.Exception_detected) events))

(* ---------- machine invariants on bad code ---------- *)

let expect_machine_error name pcode =
  match run_pcode pcode with
  | _ -> Alcotest.failf "%s: expected a machine error" name
  | exception Vliw_sim.Machine_error _ -> ()

let test_vliw_bad_code_rejected () =
  (* running off a region end: the only exit's predicate never fires *)
  expect_machine_error "non-exhaustive exits"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ mov 1 (imm 0) ];
             [ setc 0 Opcode.Lt (imm 2) (imm 1) ] (* c0 = false *);
             [ Pcode.exit_to (p_true (cond 0)) (lbl "m") ];
           ];
       ]);
  (* a side-effecting Out issued under an unspecified predicate *)
  expect_machine_error "speculative Out"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ out ~pred:(p_true (cond 0)) (imm 1) ];
             [ setc 0 Opcode.Lt (imm 1) (imm 2) ];
             [ Pcode.exit_stop Pred.always ];
           ];
       ]);
  (* a commit-dependence violation: a load hits an unresolved speculative
     store to the same address with an unrelated predicate *)
  expect_machine_error "commit dependence"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ mov 1 (imm 7) ];
             [ store ~pred:(p_true (cond 0)) 1 0 10 ];
             [ load 2 0 10 ] (* alw load of the same address *);
             [ setc 0 Opcode.Lt (imm 1) (imm 2) ];
             [ Pcode.exit_stop Pred.always ];
           ];
       ])

(* region predicating must agree with the scalar reference at every
   machine width, not just the base 4-issue *)
let test_vliw_widths_agree () =
  let w = Psb_workloads.Suite.find "espresso" in
  let open Psb_workloads in
  let scalar, profile =
    Psb_compiler.Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ())
  in
  List.iter
    (fun width ->
      let machine = Machine_model.full_issue ~width ~max_spec_conds:4 in
      let compiled =
        Psb_compiler.Driver.compile ~model:Psb_compiler.Model.region_pred
          ~machine ~profile w.Dsl.program
      in
      let res =
        Psb_compiler.Driver.run_vliw compiled ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ())
      in
      Alcotest.(check (list int))
        (Format.asprintf "%d-issue output" width)
        scalar.Interp.output res.Vliw_sim.output;
      (* a single-issue predicated machine pays for both diamond arms and
         can legitimately trail the scalar machine (the paper's Figure 8
         starts at 2-issue); from 2-issue up, predication must win *)
      if width >= 2 then
        check_bool
          (Format.asprintf "%d-issue no slower than scalar" width)
          true
          (res.Vliw_sim.cycles <= scalar.Interp.cycles)
      else
        check_bool "1-issue within 2x of scalar" true
          (res.Vliw_sim.cycles <= 2 * scalar.Interp.cycles))
    [ 1; 2; 8 ]

(* ---------- predicated-code text round trip ---------- *)

let test_pcode_text_roundtrip () =
  (* compile a real workload, print its predicated code, parse it back,
     and check both the text fixpoint and the machine behaviour *)
  let w = Psb_workloads.Suite.find "li" in
  let open Psb_workloads in
  let scalar, profile =
    Psb_compiler.Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ())
  in
  let compiled =
    Psb_compiler.Driver.compile ~model:Psb_compiler.Model.region_pred
      ~machine:Machine_model.base ~profile w.Dsl.program
  in
  let code = Option.get compiled.Psb_compiler.Driver.pcode in
  let text = Pcode_text.print code in
  match Pcode_text.parse text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok code' ->
      Alcotest.(check string) "print/parse fixpoint" text (Pcode_text.print code');
      let res =
        Vliw_sim.run ~model:Machine_model.base ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ()) code'
      in
      Alcotest.(check (list int)) "parsed code runs identically"
        scalar.Interp.output res.Vliw_sim.output

let test_pcode_text_errors () =
  List.iter
    (fun src ->
      match Pcode_text.parse src with
      | Ok _ -> Alcotest.failf "expected parse error for %S" src
      | Error _ -> ())
    [
      "region r:\n  (0) alw ? halt\n" (* no entry *);
      "entry r\nregion r:\n  (1) alw ? halt\n" (* index out of sequence *);
      "entry r\nregion r:\n  (0) c0&!c0 ? halt\n" (* contradictory pred *);
      "entry r\nregion r:\n  (0) alw ? r1 = frob 1 2\n" (* bad op *);
      "entry r\nregion r:\n  (0) alw ? nop\n" (* no exit in last bundle *);
    ]

(* A machine that can issue nothing is rejected where it is built, not
   left to stall a scheduler or a simulator. *)
let test_full_issue_rejects_zero () =
  List.iter
    (fun width ->
      Alcotest.check_raises
        (Printf.sprintf "width %d" width)
        (Invalid_argument "Machine_model.full_issue: width < 1")
        (fun () -> ignore (Machine_model.full_issue ~width ~max_spec_conds:4)))
    [ 0; -1 ]

(* ---------- Predicate kernels: mask eval = map eval ---------- *)

(* Random predicates whose condition indices straddle the word boundary
   ([Pred.word_bits] = [Sys.int_size]), so both the single-word mask path
   and the multi-word fallback are exercised. *)
let gen_boundary_pred =
  let interesting =
    [
      0;
      1;
      5;
      30;
      Pred.word_bits - 2;
      Pred.word_bits - 1;
      Pred.word_bits;
      Pred.word_bits + 1;
      Pred.word_bits + 17;
      100;
    ]
  in
  QCheck.Gen.(
    list_size (int_bound 5) (pair (oneofl interesting) bool) >|= fun lits ->
    List.fold_left
      (fun p (c, v) ->
        match Pred.conj p (cond c) v with p' -> p' | exception _ -> p)
      Pred.always lits)

let arb_boundary_pred =
  QCheck.make ~print:(Format.asprintf "%a" Pred.pp) gen_boundary_pred

let gen_cond_states =
  QCheck.Gen.(array_size (return 128) (oneofl [ Some true; Some false; None ]))

let prop_mask_eval_agrees =
  QCheck.Test.make ~name:"compiled mask eval = map eval (incl. multi-word)"
    ~count:2000
    (QCheck.pair arb_boundary_pred (QCheck.make gen_cond_states))
    (fun (p, states) ->
      let ccr = Ccr.create ~width:128 in
      Array.iteri
        (fun i s ->
          match s with Some v -> Ccr.set ccr (cond i) v | None -> ())
        states;
      let cp = Pred.compile p in
      let by_map = Ccr.eval ccr p in
      Ccr.evalc ccr cp = by_map && Pred.eval p (Ccr.lookup ccr) = by_map)

let prop_mask_relations_agree =
  QCheck.Test.make
    ~name:"compiled disjoint/implies/equal = map relations (incl. multi-word)"
    ~count:2000
    (QCheck.pair arb_boundary_pred arb_boundary_pred)
    (fun (p, q) ->
      let cp = Pred.compile p and cq = Pred.compile q in
      Pred.disjoint_c cp cq = Pred.disjoint p q
      && Pred.implies_c cp cq = Pred.implies p q
      && Pred.equal_c cp cq = Pred.equal p q)

let prop_mask_eval_tracks_resets =
  (* The packed mirror must stay coherent through set/reset/assign, not
     just after a straight-line fill. *)
  QCheck.Test.make ~name:"packed CCR mirror coherent under set/reset/assign"
    ~count:500
    (QCheck.pair arb_boundary_pred (QCheck.make gen_cond_states))
    (fun (p, states) ->
      let ccr = Ccr.create ~width:128 in
      Array.iteri
        (fun i s ->
          match s with Some v -> Ccr.set ccr (cond i) v | None -> ())
        states;
      let snapshot = Ccr.copy ccr in
      Ccr.reset ccr;
      let cp = Pred.compile p in
      let after_reset =
        Ccr.evalc ccr cp = Ccr.eval ccr p
        && (Pred.is_always p || Ccr.evalc ccr cp = Pred.Unspec)
      in
      Ccr.assign ccr ~from:snapshot;
      after_reset && Ccr.evalc ccr cp = Ccr.eval snapshot p)

(* Dirty-condition gating at the register-file level: a tick whose dirty
   mask misses the version's conditions must skip it (still buffered),
   and a later tick with the right bit must commit it. *)
let test_regfile_dirty_gating () =
  let rf = Regfile.create ~nregs:4 () in
  let p = p_true (cond 2) in
  ignore (Regfile.write_spec rf (reg 0) 9 ~cpred:(Pred.compile p) ~fault:None);
  let ccr = ccr_with [ (2, true) ] in
  (* cond 2 is specified, but the tick is told only cond 0 changed: the
     mask kernel must not even look. *)
  ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:(1 lsl 0) ~record:true rf ccr);
  check_bool "still buffered after gated tick" true (Regfile.has_spec rf);
  check_int "skipped once" 1 (Regfile.tick_skipped rf);
  ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:(1 lsl 2) ~record:true rf ccr);
  check_bool "committed once ungated" true (not (Regfile.has_spec rf));
  check_int "committed value" 9 (Regfile.read_seq rf (reg 0));
  check_rf_counters rf

(* The idle tick (nothing written since the last one) must count exactly
   as the per-version gate would, and a multi-word version is never
   skipped: its condition can be decided without a word-0 dirty bit. *)
let test_regfile_idle_tick_wide () =
  let rf = Regfile.create ~nregs:4 () in
  let wide = cond (Pred.word_bits + 1) in
  ignore
    (Regfile.write_spec rf (reg 0) 1
       ~cpred:(Pred.compile (p_true (cond 1)))
       ~fault:None);
  ignore
    (Regfile.write_spec rf (reg 1) 2 ~cpred:(Pred.compile (p_true wide))
       ~fault:None);
  let ccr = ccr_with ~width:(Pred.word_bits + 2) [] in
  let idle () =
    ignore (Regfile.tick ~mode:Pred_kernel.Mask ~dirty:0 ~record:false rf ccr)
  in
  idle ();
  check_int "narrow skipped" 1 (Regfile.tick_skipped rf);
  check_int "wide examined" 1 (Regfile.tick_examined rf);
  Ccr.set ccr wide false;
  idle ();
  check_int "wide squashed on an idle tick" 1 (Regfile.squashes rf);
  idle ();
  check_int "skipped in total" 3 (Regfile.tick_skipped rf);
  check_int "examined in total" 2 (Regfile.tick_examined rf);
  check_int "narrow still buffered" 1 (fst (Regfile.debug_recount rf));
  check_rf_counters rf

(* A store appended with an already-decided predicate must be examined on
   its first tick even when the dirty mask is empty — entries enter the
   buffer unconditionally, unlike register versions. *)
let test_sb_dirty_gating_fresh_entry () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  let ccr = ccr_with [ (0, true) ] in
  Store_buffer.append sb ~addr:3 ~value:33
    ~cpred:(Pred.compile (p_true (cond 0)))
    ~spec:true ~fault:None;
  ignore (Store_buffer.tick ~mode:Pred_kernel.Mask ~dirty:0 ~record:true sb ccr);
  check_int "fresh entry examined despite empty dirty mask" 1
    (Store_buffer.tick_examined sb);
  check_int "committed and drains" 1 (Store_buffer.drain sb ~max:8 mem);
  check_int "value written" 33 (Memory.peek mem 3);
  (* once examined (and still unresolved), gating applies *)
  Store_buffer.append sb ~addr:4 ~value:44
    ~cpred:(Pred.compile (p_true (cond 1)))
    ~spec:true ~fault:None;
  ignore (Store_buffer.tick ~mode:Pred_kernel.Mask ~dirty:0 ~record:true sb ccr);
  ignore (Store_buffer.tick ~mode:Pred_kernel.Mask ~dirty:0 ~record:true sb ccr);
  check_int "second tick skipped" 1 (Store_buffer.tick_skipped sb);
  check_sb_counters sb

(* The gating regression at machine level: the bundle that resolves the
   buffered write's condition also writes an unrelated condition. Both
   kernels must agree cycle-for-cycle and the gated tick must still
   commit. *)
let test_vliw_dirty_gating_same_cycle_conds () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(p_true (cond 1)) 3 (imm 222);
            ];
            (* c0 (relevant to r2) and c1 (relevant to r3) are specified by
               the same bundle; a third, unread condition rides along. *)
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              setc 1 Opcode.Lt (imm 10) (r 1);
              setc 2 Opcode.Eq (r 1) (imm 5);
            ];
            [ out (r 2); out (r 3) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let run kernel =
    let mem = Memory.create ~size:64 in
    Vliw_sim.run ~model ~pred_kernel:kernel ~regs:[] ~mem pcode
  in
  let mask = run Pred_kernel.Mask and map = run Pred_kernel.Map in
  Alcotest.(check (list int)) "mask output" [ 111; 0 ] mask.Vliw_sim.output;
  Alcotest.(check (list int))
    "map output" map.Vliw_sim.output mask.Vliw_sim.output;
  check_int "identical cycles" map.Vliw_sim.cycles mask.Vliw_sim.cycles;
  check_int "identical commits" map.Vliw_sim.stats.Vliw_sim.commits
    mask.Vliw_sim.stats.Vliw_sim.commits;
  check_int "identical squashes" map.Vliw_sim.stats.Vliw_sim.squashes
    mask.Vliw_sim.stats.Vliw_sim.squashes

(* ---------- Region lowering (Exec_kernel) ---------- *)

(* Cycle-exactness of the lowered structure-of-arrays kernel against the
   tree reference on hand-written edge cases; the broad random coverage
   lives in the differential suite and the fuzzer. *)

let run_both_exec ?(machine = model) pcode =
  let run kernel =
    let mem = Memory.create ~size:256 in
    (Vliw_sim.run ~model:machine ~exec_kernel:kernel ~regs:[] ~mem pcode, mem)
  in
  (run Exec_kernel.Lowered, run Exec_kernel.Tree)

let check_exec_identical name ((low, lmem), (tree, tmem)) =
  check_int (name ^ ": cycles") tree.Vliw_sim.cycles low.Vliw_sim.cycles;
  Alcotest.(check (list int))
    (name ^ ": output") tree.Vliw_sim.output low.Vliw_sim.output;
  check_int (name ^ ": commits") tree.Vliw_sim.stats.Vliw_sim.commits
    low.Vliw_sim.stats.Vliw_sim.commits;
  check_int (name ^ ": squashes") tree.Vliw_sim.stats.Vliw_sim.squashes
    low.Vliw_sim.stats.Vliw_sim.squashes;
  check_int (name ^ ": sb stalls") tree.Vliw_sim.stats.Vliw_sim.sb_stall_cycles
    low.Vliw_sim.stats.Vliw_sim.sb_stall_cycles;
  check_int (name ^ ": conflict stalls")
    tree.Vliw_sim.stats.Vliw_sim.conflict_stall_cycles
    low.Vliw_sim.stats.Vliw_sim.conflict_stall_cycles;
  check_bool (name ^ ": memory") true (Memory.equal tmem lmem)

let test_lowered_shape () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:true ] in
  let low = Lowered.compile ~machine:model pcode in
  check_int "one region" 1 (Array.length low.Lowered.regions);
  check_int "entry index" 0 low.Lowered.entry;
  let lr = low.Lowered.regions.(0) in
  check_int "bundle count" 5 lr.Lowered.nbundles;
  (* every pcode slot lands in exactly one flat slot *)
  check_int "ops + exits = slots" (Pcode.num_slots pcode)
    (Lowered.num_ops low + Lowered.num_exits low);
  check_int "exit count" 1 (Lowered.num_exits low);
  (* the CSR bounds are monotone and cover all ops *)
  Array.iteri
    (fun i b ->
      if i > 0 then
        check_bool "op_bounds monotone" true (b >= lr.Lowered.op_bounds.(i - 1)))
    lr.Lowered.op_bounds;
  check_int "op_bounds closed" (Lowered.num_ops low)
    lr.Lowered.op_bounds.(lr.Lowered.nbundles);
  check_int "widest bundle" 2 low.Lowered.max_bundle_ops

let test_lowered_exit_only_region () =
  (* a region that is nothing but its exit bundle, reached through a
     region transition (exercises exit-target index resolution) *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [ [ mov 1 (imm 3) ]; [ out (r 1) ];
            [ Pcode.exit_to Pred.always (lbl "tail") ] ];
        region "tail" [ [ Pcode.exit_stop Pred.always ] ];
      ]
  in
  let low = Lowered.compile ~machine:model pcode in
  let tail = low.Lowered.regions.(1) in
  check_int "no ops" 0 tail.Lowered.op_bounds.(tail.Lowered.nbundles);
  check_int "one exit" 1 tail.Lowered.ex_bounds.(tail.Lowered.nbundles);
  check_exec_identical "exit-only" (run_both_exec pcode)

let test_lowered_single_op_region () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [ region "main" [ [ out (imm 42) ]; [ Pcode.exit_stop Pred.always ] ] ]
  in
  let low = Lowered.compile ~machine:model pcode in
  check_int "one op" 1 (Lowered.num_ops low);
  check_exec_identical "single-op" (run_both_exec pcode)

let test_lowered_sb_capacity_identity () =
  (* store burst against a tiny store buffer: the lowered kernel's
     stall decision must fire on exactly the same cycles *)
  let burst =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store 1 0 20; store 1 0 21 ];
            [ store 1 0 22; store 1 0 23 ];
            [ store 1 0 24 ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let tiny =
    {
      model with
      Machine_model.sb_capacity = 2;
      Machine_model.store_units = 2;
      Machine_model.dcache_ports = 1;
    }
  in
  let ((low, _), _) as both = run_both_exec ~machine:tiny burst in
  check_exec_identical "sb-capacity" both;
  check_bool "stall path actually exercised" true
    (low.Vliw_sim.stats.Vliw_sim.sb_stall_cycles > 0)

let test_lowered_shadow_conflict_identity () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(Pred.of_list [ (cond 0, false) ]) 2 (imm 222);
            ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ out (r 2) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let ((low, _), _) as both = run_both_exec pcode in
  check_exec_identical "shadow-conflict" both;
  check_bool "conflict path actually exercised" true
    (low.Vliw_sim.stats.Vliw_sim.shadow_conflicts >= 1)

let test_lowered_stale_form_rejected () =
  (* the machine must reject a cached lowering that was not built from
     the exact pcode value (the fuzzer's injection hazard) *)
  let make () =
    Pcode.make ~entry:(lbl "main")
      [ region "main" [ [ out (imm 1) ]; [ Pcode.exit_stop Pred.always ] ] ]
  in
  let pcode = make () in
  let other = make () in
  let low = Lowered.compile ~machine:model other in
  (match
     Vliw_sim.run ~model ~exec_kernel:Exec_kernel.Lowered ~lowered:low ~regs:[]
       ~mem:(Memory.create ~size:64) pcode
   with
  | _ -> Alcotest.fail "stale lowered form accepted"
  | exception Invalid_argument _ -> ());
  (* and one built against a different machine model *)
  let wide = { model with Machine_model.issue_width = model.Machine_model.issue_width + 1 } in
  let low_wide = Lowered.compile ~machine:wide pcode in
  match
    Vliw_sim.run ~model ~exec_kernel:Exec_kernel.Lowered ~lowered:low_wide
      ~regs:[] ~mem:(Memory.create ~size:64) pcode
  with
  | _ -> Alcotest.fail "mismatched-machine lowered form accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Hardware cost ---------- *)

let test_hwcost () =
  let r = Hwcost.analyze Hwcost.default in
  check_int "three gate levels" 3 r.Hwcost.eval_gate_levels;
  check_int "region predicate bits = 2K" 8 r.Hwcost.encode_bits_region;
  check_int "trace predicate bits" 3 r.Hwcost.encode_bits_trace;
  check_bool "storage overhead near paper's 76%" true
    (r.Hwcost.storage_overhead > 0.5 && r.Hwcost.storage_overhead < 1.0);
  check_bool "commit overhead near paper's 31%" true
    (r.Hwcost.commit_overhead > 0.15 && r.Hwcost.commit_overhead < 0.5);
  check_bool "total = storage + commit" true
    (abs_float
       (r.Hwcost.total_overhead
       -. (r.Hwcost.storage_overhead +. r.Hwcost.commit_overhead))
    < 1e-9);
  (* Exact pins at the paper's design point: the cost model is pure
     arithmetic on the params, so any drift is a model change that must
     be reflected in EXPERIMENTS.md, not noise. *)
  check_int "base register file" 16384 r.Hwcost.base_transistors;
  check_bool "storage overhead exact" true
    (r.Hwcost.storage_overhead = 0.8125);
  check_bool "commit overhead exact" true
    (r.Hwcost.commit_overhead = 0.296875);
  check_bool "total overhead exact" true
    (r.Hwcost.total_overhead = 1.109375)

let test_hwcost_rob () =
  let r = Hwcost.analyze Hwcost.default in
  (* 32 entries x (32 result + 5 dst + 4 state bits) x 8T flip-flops *)
  check_int "ROB entry storage" 10496 r.Hwcost.rob_entry_transistors;
  (* 32 regs x 5 tag bits x 16T cell + 32 busy flip-flops *)
  check_int "rename map" 2816 r.Hwcost.rob_rename_transistors;
  (* 32 entries x (2 tag comparators + 1 address comparator) *)
  check_int "completion + forwarding CAMs" 13056 r.Hwcost.rob_cam_transistors;
  check_bool "ROB overhead exact" true (r.Hwcost.rob_overhead = 1.609375);
  check_bool "ROB costs more than predication on the same yardstick" true
    (r.Hwcost.rob_overhead > r.Hwcost.total_overhead)

(* ---------- the rival out-of-order backend ---------- *)

module Suite = Psb_workloads.Suite
module Dsl = Psb_workloads.Dsl

let rob_machines =
  [
    ("base", Machine_model.base);
    ("scalar", Machine_model.scalar);
    ("full-issue-8", Machine_model.full_issue ~width:8 ~max_spec_conds:8);
  ]

(* The acceptance property: the ROB backend is architecturally
   byte-identical to the DSL interpreter on the whole suite, under every
   machine model — outcome, output, written registers, final memory and
   the handled-fault count all agree, and the cycle accounting is total
   (the breakdown sums exactly to the cycle count). *)
let test_rob_suite_identical () =
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (w : Dsl.t) ->
          let tag = w.Dsl.name ^ "/" ^ mname in
          let ref_mem = w.Dsl.make_mem () in
          let s = Interp.run ~regs:w.Dsl.regs ~mem:ref_mem w.Dsl.program in
          let rob_mem = w.Dsl.make_mem () in
          let r =
            Rob_sim.run ~model ~regs:w.Dsl.regs ~mem:rob_mem w.Dsl.program
          in
          check_bool (tag ^ ": outcome") true
            (s.Interp.outcome = r.Rob_sim.outcome);
          check_bool (tag ^ ": output") true (s.Interp.output = r.Rob_sim.output);
          check_bool (tag ^ ": registers") true
            (Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs);
          check_bool (tag ^ ": memory") true (Memory.equal ref_mem rob_mem);
          check_int (tag ^ ": faults handled") s.Interp.faults_handled
            r.Rob_sim.faults_handled;
          check_int
            (tag ^ ": breakdown sums to cycles")
            r.Rob_sim.cycles
            (Rob_sim.breakdown_total r.Rob_sim.breakdown))
        Suite.all)
    rob_machines

(* A wrong-path fatal fault must vanish with the squashed entry: the
   2-bit counters start weakly taken, so the first visit of [head]
   predicts [bad] — whose load dereferences a negative address (fatal) —
   while the actual path is [good]. The branch condition hangs off a
   load-fed add chain, so the wrong-path load completes (fault buffered)
   well before the branch resolves and flushes it. *)
let test_rob_squashed_fatal_fault () =
  let program =
    Asm.parse_exn
      {|
entry entry
entry:
  r1 = 0
  r9 = -64
  jmp head
head:
  r3 = load r1+0
  r4 = add r3 1
  r5 = add r4 1
  r6 = r5 < 0
  br r6 ? bad : good
bad:
  r8 = load r9+0
  jmp good
good:
  out r5
  halt
|}
  in
  let ref_mem = Memory.create ~size:64 in
  let s = Interp.run ~regs:[] ~mem:ref_mem program in
  let mem = Memory.create ~size:64 in
  let r = Rob_sim.run ~model:Machine_model.base ~regs:[] ~mem program in
  check_bool "interp halts" true (s.Interp.outcome = Interp.Halted);
  check_bool "rob halts despite the wrong-path fatal load" true
    (r.Rob_sim.outcome = Interp.Halted);
  check_bool "output" true (r.Rob_sim.output = [ 2 ]);
  check_int "one mispredict" 1 r.Rob_sim.stats.Rob_sim.mispredicts;
  check_bool "the fatal fault was buffered then squashed" true
    (r.Rob_sim.stats.Rob_sim.squashed_faults >= 1);
  check_int "no fault ever raised" 0 r.Rob_sim.faults_handled;
  check_bool "registers match interp" true
    (Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs)

(* The retirement timeline reconciles exactly like the VLIW machine's:
   commit-ordered Region_enter residencies telescope to the cycle total,
   and every committed entry appears as one Rob_commit. *)
let test_rob_spec_profile_reconciles () =
  let w = Suite.find "compress" in
  let events = Psb_obs.Events.create ~capacity:(1 lsl 20) () in
  let r =
    Rob_sim.run ~events ~model:Machine_model.base ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ()) w.Dsl.program
  in
  let prof =
    Psb_obs.Spec_profile.of_events ~total_cycles:r.Rob_sim.cycles events
  in
  check_bool "profile reconciles" true (Psb_obs.Spec_profile.reconciles prof);
  let commits = ref 0 in
  Psb_obs.Events.iter events (fun _cycle kind _a _b ->
      if kind = Psb_obs.Events.Rob_commit then incr commits);
  check_int "one Rob_commit per retired entry"
    r.Rob_sim.stats.Rob_sim.committed !commits

(* Rob_commit's [a] is the fetch sequence number; in-order retirement
   means it is strictly increasing over the whole run, mispredicts,
   fault restarts and all. *)
let prop_rob_commit_monotone =
  QCheck.Test.make
    ~name:"Rob_commit fetch sequence strictly increases (program order)"
    ~count:60 Gen_programs.arb_program (fun g ->
      let events = Psb_obs.Events.create ~capacity:(1 lsl 18) () in
      let _ =
        Rob_sim.run ~events ~model:Machine_model.base ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g) g.Gen_programs.program
      in
      let last = ref min_int and ok = ref true in
      Psb_obs.Events.iter events (fun _cycle kind a _b ->
          if kind = Psb_obs.Events.Rob_commit then begin
            if a <= !last then ok := false;
            last := a
          end);
      !ok)

(* Direct generator-driven differential (the fuzzer runs the same check
   as a pipeline stage; this keeps a seed-replayable copy in tier 1). *)
let prop_rob_matches_interp =
  QCheck.Test.make ~name:"rob backend = scalar interpreter (arch state)"
    ~count:60 Gen_programs.arb_program (fun g ->
      let ref_mem = Gen_programs.make_mem g in
      let s =
        Interp.run ~regs:Gen_programs.regs ~mem:ref_mem g.Gen_programs.program
      in
      match s.Interp.outcome with
      | Interp.Out_of_fuel -> true (* cycle fuel is not comparable *)
      | Interp.Halted | Interp.Fatal _ ->
          let rob_mem = Gen_programs.make_mem g in
          let r =
            Rob_sim.run ~model:Machine_model.base ~regs:Gen_programs.regs
              ~mem:rob_mem g.Gen_programs.program
          in
          s.Interp.outcome = r.Rob_sim.outcome
          && s.Interp.output = r.Rob_sim.output
          && Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs
          && Memory.equal ref_mem rob_mem
          && s.Interp.faults_handled = r.Rob_sim.faults_handled
          && Rob_sim.breakdown_total r.Rob_sim.breakdown = r.Rob_sim.cycles)

(* ---------- predecoded scalar form (Scalar_kernel) ---------- *)

(* Decoded/tree cycle-exactness on hand-written edge shapes, on both
   scalar backends (interpreter and ROB); the broad random coverage
   lives in the differential suite and the fuzzer. *)

let run_both_scalar ?fuel ?(mem_of = fun () -> Memory.create ~size:64) program
    =
  let decoded = Decoded.of_program program in
  let run kernel =
    let mem = mem_of () in
    (Interp.run ?fuel ~kernel ~decoded ~regs:[] ~mem program, mem)
  in
  (run Scalar_kernel.Decoded, run Scalar_kernel.Tree)

let check_scalar_identical name ((dec, dmem), (tree, tmem)) =
  check_bool (name ^ ": outcome") true
    (dec.Interp.outcome = tree.Interp.outcome);
  Alcotest.(check (list int))
    (name ^ ": output") tree.Interp.output dec.Interp.output;
  check_int (name ^ ": cycles") tree.Interp.cycles dec.Interp.cycles;
  check_int (name ^ ": dyn instrs") tree.Interp.dyn_instrs
    dec.Interp.dyn_instrs;
  Alcotest.(check (array int))
    (name ^ ": trace") tree.Interp.block_trace dec.Interp.block_trace;
  check_bool (name ^ ": regs") true
    (Reg.Map.equal Int.equal tree.Interp.regs dec.Interp.regs);
  check_int (name ^ ": faults") tree.Interp.faults_handled
    dec.Interp.faults_handled;
  check_bool (name ^ ": memory") true (Memory.equal tmem dmem)

let run_both_rob ?fuel ?(mem_of = fun () -> Memory.create ~size:64) program =
  let decoded = Decoded.of_program program in
  let run kernel =
    let mem = mem_of () in
    ( Rob_sim.run ?fuel ~kernel ~decoded ~model:Machine_model.base ~regs:[]
        ~mem program,
      mem )
  in
  (run Scalar_kernel.Decoded, run Scalar_kernel.Tree)

let check_rob_identical name ((dec, dmem), (tree, tmem)) =
  check_bool (name ^ ": outcome") true
    (dec.Rob_sim.outcome = tree.Rob_sim.outcome);
  Alcotest.(check (list int))
    (name ^ ": output") tree.Rob_sim.output dec.Rob_sim.output;
  check_int (name ^ ": cycles") tree.Rob_sim.cycles dec.Rob_sim.cycles;
  check_bool (name ^ ": stats") true (tree.Rob_sim.stats = dec.Rob_sim.stats);
  check_bool (name ^ ": breakdown") true
    (tree.Rob_sim.breakdown = dec.Rob_sim.breakdown);
  check_bool (name ^ ": regs") true
    (Reg.Map.equal Int.equal tree.Rob_sim.regs dec.Rob_sim.regs);
  check_bool (name ^ ": memory") true (Memory.equal tmem dmem)

let test_decoded_empty_blocks () =
  (* blocks with no operations at all — only terminators — including the
     entry block; op_bounds must still be a valid (degenerate) CSR *)
  let program =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry") [] (Instr.Jmp (lbl "mid"));
        Program.block (lbl "mid") [] (Instr.Jmp (lbl "tail"));
        Program.block (lbl "tail")
          [ Instr.Mov { dst = reg 1; src = imm 7 }; Instr.Out (r 1) ]
          Instr.Halt;
      ]
  in
  let decoded = Decoded.of_program program in
  check_int "entry has no ops" 0
    (Decoded.block_ops decoded (Decoded.block_index decoded (lbl "entry")));
  check_int "two flat ops in total" 2 (Decoded.num_ops decoded);
  check_scalar_identical "empty-blocks" (run_both_scalar program);
  check_rob_identical "empty-blocks/rob" (run_both_rob program)

let test_decoded_fallthrough_only () =
  (* a conditional whose both arms are op-less forwarding blocks that
     reconverge — control flows through without touching the op arrays,
     and the 2-bit predictor in the ROB frontend sees the branch *)
  let program =
    Asm.parse_exn
      {|
entry entry
entry:
  r1 = 0
  jmp head
head:
  r2 = r1 < 3
  br r2 ? stay : leave
stay:
  jmp body
body:
  r1 = add r1 1
  out r1
  jmp head
leave:
  jmp tail
tail:
  halt
|}
  in
  check_scalar_identical "fallthrough-only" (run_both_scalar program);
  check_rob_identical "fallthrough-only/rob" (run_both_rob program)

let test_decoded_fault_on_first_instr () =
  (* instruction 0 of the entry block faults before anything else ran:
     recoverable on demand memory (handled, retried), fatal on a
     negative address *)
  let recoverable =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry")
          [
            Instr.Load { dst = reg 1; base = reg 0; off = 200 };
            Instr.Out (r 1);
          ]
          Instr.Halt;
      ]
  in
  let demand () = Memory.create_demand ~size:512 ~unmapped:(128, 384) in
  let ((dec, _), _) as both =
    run_both_scalar ~mem_of:demand recoverable
  in
  check_scalar_identical "fault-instr0" both;
  check_int "fault was handled" 1 dec.Interp.faults_handled;
  check_rob_identical "fault-instr0/rob"
    (run_both_rob ~mem_of:demand recoverable);
  let fatal =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry")
          [ Instr.Load { dst = reg 1; base = reg 0; off = -4 } ]
          Instr.Halt;
      ]
  in
  let ((dec, _), _) as both = run_both_scalar fatal in
  check_scalar_identical "fatal-instr0" both;
  check_bool "run is fatal" true
    (match dec.Interp.outcome with Interp.Fatal _ -> true | _ -> false);
  check_rob_identical "fatal-instr0/rob" (run_both_rob fatal)

let test_decoded_out_of_fuel_mid_block () =
  (* the fuel runs dry in the middle of a block body: both kernels
     sample the budget at block entry only, so both must overshoot to
     exactly the same boundary, trace included *)
  let body =
    List.init 10 (fun i ->
        Instr.Alu
          { op = Opcode.Add; dst = reg 1; a = r 1; b = imm (i + 1) })
  in
  let program =
    Program.make ~entry:(lbl "entry")
      [ Program.block (lbl "entry") body (Instr.Jmp (lbl "entry")) ]
  in
  let ((dec, _), _) as both = run_both_scalar ~fuel:25 program in
  check_scalar_identical "fuel-mid-block" both;
  check_bool "actually out of fuel" true
    (dec.Interp.outcome = Interp.Out_of_fuel);
  check_bool "budget expired mid-block, stopped at the next boundary" true
    (dec.Interp.dyn_instrs > 25);
  (* the ROB's fuel is cycles, not instructions; parity must hold at
     whatever point the budget expires *)
  let ((dec, _), _) as rob_both = run_both_rob ~fuel:7 program in
  check_rob_identical "fuel-mid-block/rob" rob_both;
  check_bool "rob out of fuel" true
    (dec.Rob_sim.outcome = Interp.Out_of_fuel)

let test_decoded_stale_form_rejected () =
  (* both scalar backends must reject a decoded form that was not built
     from the exact program value (the driver-cache hazard: structural
     equality is not enough) *)
  let make () =
    Program.make ~entry:(lbl "entry")
      [ Program.block (lbl "entry") [ Instr.Out (imm 1) ] Instr.Halt ]
  in
  let program = make () in
  let other = make () in
  let stale = Decoded.of_program other in
  (match
     Interp.run ~kernel:Scalar_kernel.Decoded ~decoded:stale ~regs:[]
       ~mem:(Memory.create ~size:64) program
   with
  | _ -> Alcotest.fail "interp accepted a stale decoded form"
  | exception Invalid_argument _ -> ());
  match
    Rob_sim.run ~kernel:Scalar_kernel.Decoded ~decoded:stale
      ~model:Machine_model.base ~regs:[] ~mem:(Memory.create ~size:64) program
  with
  | _ -> Alcotest.fail "rob accepted a stale decoded form"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "machine"
    [
      ( "ccr",
        [
          Alcotest.test_case "basic" `Quick test_ccr_basic;
          Alcotest.test_case "eval" `Quick test_ccr_eval;
          Alcotest.test_case "assign" `Quick test_ccr_assign;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "commit" `Quick test_regfile_commit;
          Alcotest.test_case "squash" `Quick test_regfile_squash;
          Alcotest.test_case "shadow fallback" `Quick test_regfile_shadow_fallback;
          Alcotest.test_case "conflict" `Quick test_regfile_conflict;
          Alcotest.test_case "infinite mode" `Quick test_regfile_infinite_mode;
          Alcotest.test_case "exception buffering" `Quick
            test_regfile_exception_buffering;
        ] );
      ( "store-buffer",
        [
          Alcotest.test_case "fifo drain" `Quick test_sb_fifo_drain;
          Alcotest.test_case "spec blocks drain" `Quick test_sb_spec_blocks_drain;
          Alcotest.test_case "squash" `Quick test_sb_squash;
          Alcotest.test_case "forwarding" `Quick test_sb_forwarding;
        ] );
      ( "vliw",
        [
          Alcotest.test_case "diamond commit" `Quick test_vliw_diamond_commit;
          Alcotest.test_case "diamond squash" `Quick test_vliw_diamond_squash;
          Alcotest.test_case "spec store commit" `Quick test_vliw_spec_store_commit;
          Alcotest.test_case "spec store squash" `Quick test_vliw_spec_store_squash;
          Alcotest.test_case "recovery (recoverable)" `Quick
            test_vliw_recovery_recoverable;
          Alcotest.test_case "no recovery when mapped" `Quick
            test_vliw_recovery_dependent_reexecuted;
          Alcotest.test_case "fatal committed exception" `Quick
            test_vliw_fatal_committed_exception;
          Alcotest.test_case "squashed fault ignored" `Quick
            test_vliw_squashed_fault_ignored;
          Alcotest.test_case "region transition" `Quick test_vliw_region_transition;
          Alcotest.test_case "shadow source fetch" `Quick
            test_vliw_shadow_source_fetch;
          Alcotest.test_case "out of fuel" `Quick test_vliw_out_of_fuel;
          Alcotest.test_case "conflict stall" `Quick test_vliw_conflict_stall;
          Alcotest.test_case "double recovery" `Quick test_vliw_double_recovery;
          Alcotest.test_case "recovery regenerates store" `Quick
            test_vliw_recovery_regenerates_store;
          Alcotest.test_case "fatal during recovery" `Quick
            test_vliw_fatal_during_recovery;
          Alcotest.test_case "store-buffer capacity" `Quick
            test_vliw_sb_capacity_stall;
        ] );
      ( "bad-code",
        [
          Alcotest.test_case "machine rejects invalid schedules" `Quick
            test_vliw_bad_code_rejected;
        ] );
      ( "widths",
        [
          Alcotest.test_case "1/2/8-issue agree" `Quick test_vliw_widths_agree;
          Alcotest.test_case "zero width rejected" `Quick
            test_full_issue_rejects_zero;
        ] );
      ( "pcode-text",
        [
          Alcotest.test_case "round trip" `Quick test_pcode_text_roundtrip;
          Alcotest.test_case "errors" `Quick test_pcode_text_errors;
        ] );
      ( "paper-example",
        [
          Alcotest.test_case "figure 4 / table 1" `Quick test_paper_figure4;
          Alcotest.test_case "figure 5 recovery" `Quick test_paper_figure5;
        ] );
      ( "pred-kernel",
        [
          Qc.to_alcotest prop_mask_eval_agrees;
          Qc.to_alcotest prop_mask_eval_tracks_resets;
          Qc.to_alcotest prop_mask_relations_agree;
          Alcotest.test_case "regfile dirty gating" `Quick
            test_regfile_dirty_gating;
          Alcotest.test_case "regfile idle tick, wide version" `Quick
            test_regfile_idle_tick_wide;
          Alcotest.test_case "store-buffer fresh entry" `Quick
            test_sb_dirty_gating_fresh_entry;
          Alcotest.test_case "same-cycle condition writes" `Quick
            test_vliw_dirty_gating_same_cycle_conds;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "flat shape" `Quick test_lowered_shape;
          Alcotest.test_case "exit-only region" `Quick
            test_lowered_exit_only_region;
          Alcotest.test_case "single-op region" `Quick
            test_lowered_single_op_region;
          Alcotest.test_case "sb-capacity identity" `Quick
            test_lowered_sb_capacity_identity;
          Alcotest.test_case "shadow-conflict identity" `Quick
            test_lowered_shadow_conflict_identity;
          Alcotest.test_case "stale form rejected" `Quick
            test_lowered_stale_form_rejected;
        ] );
      ( "hwcost",
        [
          Alcotest.test_case "paper numbers" `Quick test_hwcost;
          Alcotest.test_case "rival ROB columns" `Quick test_hwcost_rob;
        ] );
      ( "rob",
        [
          Alcotest.test_case "suite byte-identical x machine models" `Quick
            test_rob_suite_identical;
          Alcotest.test_case "squashed fatal fault vanishes" `Quick
            test_rob_squashed_fatal_fault;
          Alcotest.test_case "speculation profile reconciles" `Quick
            test_rob_spec_profile_reconciles;
          Qc.to_alcotest prop_rob_commit_monotone;
          Qc.to_alcotest prop_rob_matches_interp;
        ] );
      ( "decoded",
        [
          Alcotest.test_case "empty blocks" `Quick test_decoded_empty_blocks;
          Alcotest.test_case "fallthrough-only blocks" `Quick
            test_decoded_fallthrough_only;
          Alcotest.test_case "fault on instruction 0" `Quick
            test_decoded_fault_on_first_instr;
          Alcotest.test_case "out of fuel mid-block" `Quick
            test_decoded_out_of_fuel_mid_block;
          Alcotest.test_case "stale form rejected" `Quick
            test_decoded_stale_form_rejected;
        ] );
    ]
