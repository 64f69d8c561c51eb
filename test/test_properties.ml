(* Property-based tests of the compiler's structural invariants, checked
   over the random-program generator:

   - unit formation: exit predicates are pairwise disjoint (exactly one
     path out); copies of the same block carry pairwise-disjoint
     predicates; the per-region condition count respects the CCR; every
     (copy, direction) has a step; condition-set instructions carry the
     [alw] predicate;
   - schedules: the independent validator accepts every model's schedule;
     every operation issues no later than each exit it is compatible with
     (nothing needed on a path is left unissued when the path leaves);
     predicated exits wait for their own conditions;
   - profiles: the dense block-index [Trace] statistics equal a naive
     recomputation from the run's label sequence, and both interpreter
     kernels record the same index trace. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Cfg = Psb_cfg.Cfg
module Dominance = Psb_cfg.Dominance
module Loops = Psb_cfg.Loops

let machine = Machine_model.base

let units_of g scope =
  let program = g.Gen_programs.program in
  let _, profile =
    Driver.profile_of program ~regs:Gen_programs.regs
      ~mem:(Gen_programs.make_mem g)
  in
  let cfg = Cfg.of_program program in
  let dom = Dominance.compute cfg in
  let loop_heads = Loops.loop_heads cfg dom in
  let params =
    Runit.default_params ~scope ~max_conds:machine.Machine_model.ccr_size
      ~fuse_compare:true ()
  in
  Runit.build_all params cfg profile ~loop_heads ~entry:program.Program.entry

let forall_units g scope f =
  Label.Map.for_all (fun _ u -> f u) (units_of g scope)

let both_scopes ~name prop =
  QCheck.Test.make ~name ~count:80 Gen_programs.arb_program (fun g ->
      prop g Model.Region && prop g Model.Trace)

let prop_exits_disjoint =
  both_scopes ~name:"exit predicates pairwise disjoint" (fun g scope ->
       forall_units g scope (fun u ->
           let xs = Array.to_list u.Runit.exits in
           List.for_all
             (fun (a : Runit.uexit) ->
               List.for_all
                 (fun (b : Runit.uexit) ->
                   a.Runit.xid = b.Runit.xid
                   || Pred.disjoint a.Runit.pred b.Runit.pred)
                 xs)
             xs))

let prop_copies_disjoint =
  both_scopes ~name:"same-block copies pairwise disjoint" (fun g scope ->
       forall_units g scope (fun u ->
           let cs = Array.to_list u.Runit.copies in
           List.for_all
             (fun (a : Runit.copy) ->
               List.for_all
                 (fun (b : Runit.copy) ->
                   a.Runit.cid = b.Runit.cid
                   || (not (Label.equal a.Runit.label b.Runit.label))
                   || Pred.disjoint a.Runit.pred b.Runit.pred)
                 cs)
             cs))

let prop_cond_budget =
  both_scopes ~name:"condition budget respects CCR" (fun g scope ->
       forall_units g scope (fun u ->
           u.Runit.nconds <= machine.Machine_model.ccr_size))

let prop_steps_total =
  both_scopes ~name:"every copy direction has a step" (fun g scope ->
       forall_units g scope (fun u ->
           Array.for_all
             (fun (c : Runit.copy) ->
               let b = Program.find g.Gen_programs.program c.Runit.label in
               let dirs =
                 match b.Program.term with
                 | Instr.Br _ -> [ Runit.Dtrue; Runit.Dfalse ]
                 | Instr.Jmp _ | Instr.Halt -> [ Runit.Djmp ]
               in
               List.for_all
                 (fun d -> Hashtbl.mem u.Runit.steps (c.Runit.cid, d))
                 dirs)
             u.Runit.copies))

let prop_setc_always =
  both_scopes ~name:"condition-set instructions are alw" (fun g scope ->
       forall_units g scope (fun u ->
           Array.for_all
             (fun (i : Runit.uinstr) ->
               match i.Runit.op with
               | Instr.Setc _ -> Pred.is_always i.Runit.pred
               | _ -> true)
             u.Runit.instrs))

let prop_validator_all_models =
  QCheck.Test.make ~name:"schedule validator accepts every model" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      List.for_all
        (fun model ->
          let compiled = Driver.compile ~model ~machine ~profile program in
          Label.Map.for_all
            (fun _ s -> Sched.check s model machine = Ok ())
            compiled.Driver.schedules)
        (Model.trace_pred_counter :: Model.all))

let prop_completion_before_exits =
  QCheck.Test.make ~name:"ops issue no later than compatible exits" ~count:60
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      let compiled =
        Driver.compile ~model:Model.region_pred ~machine ~profile program
      in
      Label.Map.for_all
        (fun _ (s : Sched.t) ->
          let u = s.Sched.unit_ in
          let ni = Array.length u.Runit.instrs in
          Array.for_all
            (fun (i : Runit.uinstr) ->
              match i.Runit.op with
              | Instr.Setc _ | Instr.Nop -> true
              | _ ->
                  Array.for_all
                    (fun (x : Runit.uexit) ->
                      Pred.disjoint i.Runit.dep_pred x.Runit.pred
                      || i.Runit.seq > x.Runit.seq
                      || s.Sched.issue.(i.Runit.uid)
                         <= s.Sched.issue.(ni + x.Runit.xid))
                    u.Runit.exits)
            u.Runit.instrs)
        compiled.Driver.schedules)

let prop_exits_wait_for_conditions =
  QCheck.Test.make ~name:"predicated exits wait for their conditions"
    ~count:60 Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      let compiled =
        Driver.compile ~model:Model.region_pred ~machine ~profile program
      in
      Label.Map.for_all
        (fun _ (s : Sched.t) ->
          let u = s.Sched.unit_ in
          let ni = Array.length u.Runit.instrs in
          Array.for_all
            (fun (x : Runit.uexit) ->
              Cond.Set.for_all
                (fun c ->
                  let setc = Runit.setc_uid u c in
                  s.Sched.issue.(ni + x.Runit.xid) >= s.Sched.issue.(setc) + 1)
                (Pred.conds x.Runit.pred))
            u.Runit.exits)
        compiled.Driver.schedules)

(* ----- compile cache ----- *)

let profile_of g =
  let program = g.Gen_programs.program in
  let _, profile =
    Driver.profile_of program ~regs:Gen_programs.regs
      ~mem:(Gen_programs.make_mem g)
  in
  profile

(* Structural equality of compiled results: same schedules (per-label
   issue cycles), same static size, same predicated code text. *)
let compiled_equal (a : Driver.compiled) (b : Driver.compiled) =
  Driver.code_size a = Driver.code_size b
  && Label.Map.equal
       (fun (s1 : Sched.t) (s2 : Sched.t) -> s1.Sched.issue = s2.Sched.issue)
       a.Driver.schedules b.Driver.schedules
  && Option.equal
       (fun c1 c2 ->
         Format.asprintf "%a" Psb_machine.Pcode.pp c1
         = Format.asprintf "%a" Psb_machine.Pcode.pp c2)
       a.Driver.pcode b.Driver.pcode

let prop_cache_hit_equals_fresh =
  QCheck.Test.make ~name:"cache hit = fresh compile (structurally)" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let cache = Compile_cache.create () in
      List.for_all
        (fun model ->
          let via_cache () =
            Driver.compile ~cache ~model ~machine ~profile program
          in
          let first = via_cache () in
          let second = via_cache () in
          let fresh = Driver.compile ~model ~machine ~profile program in
          (* the hit returns the cached value itself... *)
          second == first
          (* ...and that value is indistinguishable from recompiling *)
          && compiled_equal first fresh)
        Model.all
      && (Compile_cache.stats cache).Compile_cache.hits
         = List.length Model.all)

let prop_cache_keys_distinct =
  QCheck.Test.make ~name:"distinct configurations never collide" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let machines =
        [
          Machine_model.base;
          Machine_model.full_issue ~width:4 ~max_spec_conds:4;
          Machine_model.full_issue ~width:8 ~max_spec_conds:8;
        ]
      in
      let all_keys () =
        List.concat_map
          (fun model ->
            List.concat_map
              (fun machine ->
                List.concat_map
                  (fun single_shadow ->
                    List.concat_map
                      (fun avoid_commit_deps ->
                        List.map
                          (fun verify ->
                            Compile_cache.key ~model ~machine ~single_shadow
                              ~avoid_commit_deps ~verify ~profile program)
                          [ true; false ])
                      [ true; false ])
                  [ true; false ])
              machines)
          (Model.trace_pred_counter :: Model.all)
      in
      let keys = all_keys () in
      (* every (model × machine × flags) combination keys differently,
         and the key is a pure function of its inputs *)
      List.length (List.sort_uniq compare keys) = List.length keys
      && keys = all_keys ())

let prop_cache_program_sensitivity =
  (* two different random programs (their canonical text differs) must
     key differently even under the same model/machine/flags *)
  QCheck.Test.make ~name:"distinct programs never collide"
    ~count:40
    QCheck.(pair Gen_programs.arb_program Gen_programs.arb_program)
    (fun (g1, g2) ->
      QCheck.assume
        (Asm.print g1.Gen_programs.program <> Asm.print g2.Gen_programs.program);
      let k g =
        Compile_cache.key ~model:Model.region_pred ~machine
          ~single_shadow:true ~avoid_commit_deps:false ~verify:true
          ~profile:(profile_of g) g.Gen_programs.program
      in
      k g1 <> k g2)

let prop_cache_verify_flag_regression =
  (* regression: a schedule compiled with verification off must never be
     served from the cache to a verified compile — the flags key apart *)
  QCheck.Test.make ~name:"verify flag keys apart" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let k verify =
        Compile_cache.key ~model:Model.region_pred ~machine
          ~single_shadow:true ~avoid_commit_deps:false ~verify ~profile
          program
      in
      k true <> k false)

(* ----- dense profiles vs a naive label-sequence recount ----- *)

(* Every statistic [Trace] offers, recomputed the obvious way from the
   label sequence: scans and pair counts, no per-block tables. *)
module Naive = struct
  let stream program labels =
    List.filter_map
      (fun i ->
        match (Program.find program labels.(i)).Program.term with
        | Instr.Br { if_true; _ } ->
            Some (labels.(i), Label.equal labels.(i + 1) if_true)
        | Instr.Jmp _ | Instr.Halt -> None)
      (List.init (max 0 (Array.length labels - 1)) Fun.id)

  let block_count labels l =
    Array.fold_left (fun n b -> if Label.equal b l then n + 1 else n) 0 labels

  let edge_count labels ~src ~dst =
    let n = ref 0 in
    for i = 0 to Array.length labels - 2 do
      if Label.equal labels.(i) src && Label.equal labels.(i + 1) dst then incr n
    done;
    !n

  let outcomes stream l =
    List.filter_map (fun (b, tk) -> if Label.equal b l then Some tk else None)
      stream

  let taken_fraction stream l =
    match outcomes stream l with
    | [] -> None
    | mine ->
        Some
          (float_of_int (List.length (List.filter Fun.id mine))
          /. float_of_int (List.length mine))

  let predict stream l =
    let mine = outcomes stream l in
    let taken = List.length (List.filter Fun.id mine) in
    taken >= List.length mine - taken

  let correct stream =
    Array.of_list (List.map (fun (b, tk) -> predict stream b = tk) stream)

  let prediction_accuracy stream =
    let c = correct stream in
    if c = [||] then 1.0
    else
      float_of_int (Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 c)
      /. float_of_int (Array.length c)

  (* Every window checked in full — no sliding count. *)
  let successive_accuracy stream n =
    let c = correct stream in
    let len = Array.length c in
    if len < n then 1.0
    else begin
      let good = ref 0 in
      for start = 0 to len - n do
        if Array.for_all Fun.id (Array.sub c start n) then incr good
      done;
      float_of_int !good /. float_of_int (len - n + 1)
    end
end

let bit_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let bit_equal_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> bit_equal x y
  | Some _, None | None, Some _ -> false

let labels_of_trace program (r : Interp.result) =
  let labels = Array.of_list (Program.labels program) in
  Array.map (fun b -> labels.(b)) r.Interp.block_trace

(* The indexed profile of [r] agrees with [Naive] on every label of the
   program (and one it does not have), every label pair, and every
   Table 3 window length. *)
let profile_matches_naive program (r : Interp.result) =
  let labels = labels_of_trace program r in
  let stream = Naive.stream program labels in
  let t = Trace.of_result program r in
  let queried = Label.make "no-such-block" :: Program.labels program in
  Trace.dynamic_branches t = List.length stream
  && List.for_all
       (fun l ->
         Trace.block_count t l = Naive.block_count labels l
         && Trace.predict t l = Naive.predict stream l
         && bit_equal_opt (Trace.taken_fraction t l)
              (Naive.taken_fraction stream l)
         && List.for_all
              (fun dst ->
                Trace.edge_count t ~src:l ~dst
                = Naive.edge_count labels ~src:l ~dst)
              queried)
       queried
  && bit_equal (Trace.prediction_accuracy t) (Naive.prediction_accuracy stream)
  && List.for_all
       (fun n ->
         bit_equal
           (Trace.successive_accuracy t n)
           (Naive.successive_accuracy stream n))
       (List.init 8 (fun i -> i + 1))

(* Both kernels record the same index trace; it starts at the entry,
   follows CFG edges, and names the blocks [on_block] reports. *)
let index_traces_agree ?fuel program ~mem_of =
  let run kernel =
    let entered = ref [] in
    let r =
      Interp.run ?fuel ~kernel
        ~on_block:(fun _ l -> entered := l :: !entered)
        ~regs:Gen_programs.regs ~mem:(mem_of ()) program
    in
    (r, List.rev !entered)
  in
  let dec, dec_entered = run Scalar_kernel.Decoded in
  let tree, tree_entered = run Scalar_kernel.Tree in
  let labels = labels_of_trace program dec in
  let n = Array.length labels in
  dec.Interp.block_trace = tree.Interp.block_trace
  && List.equal Label.equal dec_entered tree_entered
  && List.equal Label.equal dec_entered (Array.to_list labels)
  && (n = 0 || Label.equal labels.(0) program.Program.entry)
  && List.for_all
       (fun i ->
         List.exists
           (Label.equal labels.(i + 1))
           (Program.successors (Program.find program labels.(i))))
       (List.init (max 0 (n - 1)) Fun.id)

let prop_trace_matches_naive =
  QCheck.Test.make ~name:"indexed trace = naive label recount" ~count:100
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let mem_of () = Gen_programs.make_mem g in
      let run ?fuel () =
        Interp.run ?fuel ~regs:Gen_programs.regs ~mem:(mem_of ()) program
      in
      (* the full run (which may end in a fatal fault, possibly at a
         branch) and one cut short by fuel, so the trace can end at any
         block *)
      let full = run () in
      let fuel = full.Interp.dyn_instrs / 2 in
      profile_matches_naive program full
      && profile_matches_naive program (run ~fuel ())
      && index_traces_agree program ~mem_of
      && index_traces_agree ~fuel program ~mem_of)

let () =
  Alcotest.run "properties"
    [
      ( "runit",
        List.map Qc.to_alcotest
          [
            prop_exits_disjoint;
            prop_copies_disjoint;
            prop_cond_budget;
            prop_steps_total;
            prop_setc_always;
          ] );
      ( "sched",
        List.map Qc.to_alcotest
          [
            prop_validator_all_models;
            prop_completion_before_exits;
            prop_exits_wait_for_conditions;
          ] );
      ( "cache",
        List.map Qc.to_alcotest
          [
            prop_cache_hit_equals_fresh;
            prop_cache_keys_distinct;
            prop_cache_program_sensitivity;
            prop_cache_verify_flag_regression;
          ] );
      ("trace", List.map Qc.to_alcotest [ prop_trace_matches_naive ]);
    ]
