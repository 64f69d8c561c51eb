(* Golden fixtures.

   golden/profile.txt pins, per suite kernel, everything the compiler and
   the evaluation derive from the scalar reference run's block trace —
   the estimated cycles under every model on the base machine, the
   branch-prediction fingerprint, every model's compile-cache key, the
   Table 3 successive-branch accuracies (as hex floats, so they are
   bit-exact) and the full hot-block histogram. Any change to how
   profiles are recorded or replayed must leave it untouched.

   golden/vliw.txt pins, per suite kernel and executable model on the
   base machine, what the VLIW simulator observably does: cycles, every
   [Vliw_sim.stats] field, the cycle breakdown, the tick-gating and
   predicate-evaluation counters, and digests of the [Events] ring and of
   the [on_event] stream. Extra region-pred rows cover the infinite
   shadow model and a one-cycle transition penalty. The predicate kernel
   is pinned to [Mask] (the evaluation counters are per kernel); the
   execution kernel is the default one, so the [PSB_EXEC_KERNEL=tree]
   run checks the reference kernel against the same numbers. Any change
   to the cycle loop's implementation must leave it untouched.

   Regenerate (only for an intended behaviour change) with
     PSB_GOLDEN_PRINT=profile dune exec test/test_golden.exe > test/golden/profile.txt
     PSB_GOLDEN_PRINT=vliw dune exec test/test_golden.exe > test/golden/vliw.txt *)

open Psb_isa
open Psb_workloads
open Psb_compiler
open Psb_eval
module Machine_model = Psb_machine.Machine_model
module Branch_predict = Psb_cfg.Branch_predict
module Vliw_sim = Psb_machine.Vliw_sim
module Regfile = Psb_machine.Regfile
module Pred_kernel = Psb_machine.Pred_kernel
module Events = Psb_obs.Events
module Metrics = Psb_obs.Metrics

let lines_of_entry h (e : Harness.entry) =
  let name = e.Harness.workload.Dsl.name in
  let program = e.Harness.workload.Dsl.program in
  let line field value = Printf.sprintf "%s\t%s\t%s" name field value in
  let estimates =
    List.map
      (fun (m : Model.t) ->
        line ("estimate " ^ m.Model.name)
          (string_of_int (Harness.estimated_cycles h m e)))
      Model.all
  in
  let keys =
    List.map
      (fun (m : Model.t) ->
        line ("key " ^ m.Model.name)
          (Compile_cache.key ~model:m ~machine:Machine_model.base
             ~single_shadow:true ~avoid_commit_deps:false ~verify:true
             ~profile:e.Harness.profile program))
      Model.all
  in
  let trace = Trace.of_result program e.Harness.scalar in
  let table3 =
    List.init 8 (fun i ->
        line
          (Printf.sprintf "table3 %d" (i + 1))
          (Printf.sprintf "%h" (Trace.successive_accuracy trace (i + 1))))
  in
  let hot =
    List.map
      (fun (l, n) -> line ("hot " ^ Label.name l) (string_of_int n))
      (Trace.hot_blocks trace)
  in
  estimates
  @ [ line "fingerprint" (Branch_predict.fingerprint e.Harness.profile) ]
  @ keys @ table3 @ hot

let profile_lines =
  lazy
    (let h = Harness.create ~machine:Machine_model.base () in
     List.map
       (fun (e : Harness.entry) ->
         (e.Harness.workload.Dsl.name, lines_of_entry h e))
       h.Harness.entries)

(* One ring for every run, cleared in between: large enough that no
   suite run drops an event (checked), allocated once. *)
let ring = lazy (Events.create ~capacity:(1 lsl 20) ())

let ring_digest r =
  let b = Buffer.create (1 lsl 16) in
  Events.iter r (fun cycle kind a b' ->
      Printf.bprintf b "%d %s %d %d\n" cycle (Events.kind_name kind) a b');
  Printf.sprintf "%d %d %s" (Events.total r) (Events.dropped r)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A run that stops on [Vliw_sim.Machine_error] pins the message, and the
   event digests up to the error, in place of the result rows. *)
let vliw_lines name field_prefix ?(single_shadow = true)
    ?(regfile_mode = Regfile.Single) ~machine (w : Dsl.t) profile
    (m : Model.t) =
  let compiled =
    Driver.compile ~single_shadow ~model:m ~machine ~profile w.Dsl.program
  in
  let run ?on_event ?events ?metrics () =
    match
      Driver.run_vliw ~regfile_mode ~pred_kernel:Pred_kernel.Mask ?on_event
        ?events ?metrics compiled ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    with
    | res -> Ok res
    | exception Vliw_sim.Machine_error msg -> Error msg
  in
  let r = Lazy.force ring in
  Events.clear r;
  let metrics = Metrics.create () in
  let res = run ~events:r ~metrics () in
  (* Each event is hashed structurally with a limit well above any
     event's size, so every field counts; pretty-printing them all would
     cost ten times more. *)
  let stream = Buffer.create (1 lsl 16) in
  let on_event cycle (ev : Vliw_sim.event) =
    Buffer.add_string stream
      (string_of_int (Hashtbl.seeded_hash_param 64 256 0 (cycle, ev)));
    Buffer.add_char stream '\n'
  in
  let res' = run ~on_event () in
  let line field value =
    Printf.sprintf "%s\t%s %s\t%s" name field_prefix field value
  in
  let int_line (f, v) = line f (string_of_int v) in
  let digests =
    [
      line "events" (ring_digest r);
      line "on_event"
        (Digest.to_hex (Digest.string (Buffer.contents stream)));
    ]
  in
  match (res, res') with
  | Error msg, Error msg' ->
      line "machine error" msg :: line "on_event machine error" msg' :: digests
  | Error msg, Ok _ | Ok _, Error msg ->
      Alcotest.failf "%s %s: only one run raised %s" name field_prefix msg
  | Ok res, Ok res' ->
      let st = res.Vliw_sim.stats in
      let stats =
        [
          ("dyn_bundles", st.Vliw_sim.dyn_bundles);
          ("dyn_ops", st.Vliw_sim.dyn_ops);
          ("squashed_ops", st.Vliw_sim.squashed_ops);
          ("spec_ops", st.Vliw_sim.spec_ops);
          ("commits", st.Vliw_sim.commits);
          ("squashes", st.Vliw_sim.squashes);
          ("recoveries", st.Vliw_sim.recoveries);
          ("recovery_cycles", st.Vliw_sim.recovery_cycles);
          ("shadow_conflicts", st.Vliw_sim.shadow_conflicts);
          ("conflict_stall_cycles", st.Vliw_sim.conflict_stall_cycles);
          ("sb_max_occupancy", st.Vliw_sim.sb_max_occupancy);
          ("sb_stall_cycles", st.Vliw_sim.sb_stall_cycles);
          ("region_transitions", st.Vliw_sim.region_transitions);
        ]
      in
      let counter cname label =
        Metrics.counter_value (Metrics.counter metrics ~labels:[ label ] cname)
      in
      let counters =
        [
          ("tick examined", counter "vliw_tick_entries" ("gate", "examined"));
          ("tick skipped", counter "vliw_tick_entries" ("gate", "skipped"));
          ("evals mask", counter "vliw_pred_evals" ("kind", "mask"));
          ("evals map", counter "vliw_pred_evals" ("kind", "map"));
        ]
      in
      (line "outcome"
         (Format.asprintf "%a" Psb_isa.Interp.pp_outcome res.Vliw_sim.outcome)
      :: int_line ("cycles", res.Vliw_sim.cycles)
      :: int_line ("on_event cycles", res'.Vliw_sim.cycles)
      :: List.map int_line stats)
      @ List.map
          (fun (f, v) -> int_line ("breakdown " ^ f, v))
          (Vliw_sim.breakdown_fields res.Vliw_sim.breakdown)
      @ List.map int_line counters
      @ digests

let vliw_lines_of_kernel (w : Dsl.t) =
  let _, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let name = w.Dsl.name in
  let base = Machine_model.base in
  List.concat_map
    (fun (m : Model.t) ->
      vliw_lines name m.Model.name ~machine:base w profile m)
    (List.filter (fun (m : Model.t) -> m.Model.executable) Model.all)
  @ vliw_lines name "region-pred/infinite" ~single_shadow:false
      ~regfile_mode:Regfile.Infinite ~machine:base w profile Model.region_pred
  @ vliw_lines name "region-pred/conflict" ~single_shadow:false ~machine:base
      w profile Model.region_pred
  @ vliw_lines name "region-pred/penalty1"
      ~machine:{ base with Machine_model.transition_penalty = 1 }
      w profile Model.region_pred

let vliw_computed =
  lazy (List.map (fun (w : Dsl.t) -> (w.Dsl.name, vliw_lines_of_kernel w)) Suite.all)

let read_fixture path =
  lazy
    (In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> ""))

let fixtures =
  [
    ("profile", (read_fixture "golden/profile.txt", profile_lines));
    ("vliw", (read_fixture "golden/vliw.txt", vliw_computed));
  ]

let test_kernel (expected, computed) name () =
  let got = List.assoc name (Lazy.force computed) in
  let want =
    List.filter
      (fun l ->
        match String.index_opt l '\t' with
        | Some i -> String.sub l 0 i = name
        | None -> false)
      (Lazy.force expected)
  in
  Alcotest.(check bool) (name ^ " has fixture lines") true (want <> []);
  Alcotest.(check (list string)) name want got

let test_covers_suite (expected, _) () =
  let kernels =
    List.sort_uniq compare
      (List.map
         (fun l -> List.hd (String.split_on_char '\t' l))
         (Lazy.force expected))
  in
  Alcotest.(check (list string)) "fixture kernels = suite"
    (List.sort compare Suite.names) kernels

let () =
  match Sys.getenv_opt "PSB_GOLDEN_PRINT" with
  | Some which -> (
      match List.assoc_opt which fixtures with
      | Some (_, computed) ->
          List.iter
            (fun (_, ls) -> List.iter print_endline ls)
            (Lazy.force computed)
      | None ->
          prerr_endline "PSB_GOLDEN_PRINT must name a fixture: profile or vliw";
          exit 2)
  | None ->
      Alcotest.run "golden"
        (List.map
           (fun (group, fx) ->
             ( group,
               Alcotest.test_case "fixture covers the suite" `Quick
                 (test_covers_suite fx)
               :: List.map
                    (fun n -> Alcotest.test_case n `Quick (test_kernel fx n))
                    Suite.names ))
           fixtures)
