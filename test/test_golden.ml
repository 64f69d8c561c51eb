(* Golden profile fixture: pins, per suite kernel, everything the
   compiler and the evaluation derive from the scalar reference run's
   block trace — the estimated cycles under every model on the base
   machine, the branch-prediction fingerprint, every model's compile-cache
   key, the Table 3 successive-branch accuracies (as hex floats, so they
   are bit-exact) and the full hot-block histogram. Any change to how
   profiles are recorded or replayed must leave golden/profile.txt
   untouched.

   Regenerate (only for an intended behaviour change) with
     PSB_GOLDEN_PRINT=1 dune exec test/test_golden.exe > test/golden/profile.txt *)

open Psb_isa
open Psb_workloads
open Psb_compiler
open Psb_eval
module Machine_model = Psb_machine.Machine_model
module Branch_predict = Psb_cfg.Branch_predict

let fixture = "golden/profile.txt"

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

let computed =
  lazy
    (let h = Harness.create ~machine:Machine_model.base () in
     List.map
       (fun (e : Harness.entry) ->
         (e.Harness.workload.Dsl.name, lines_of_entry h e))
       h.Harness.entries)

let expected =
  lazy
    (In_channel.with_open_text fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> ""))

let test_kernel name () =
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
  Alcotest.(check (list string)) (name ^ " profile") want got

let test_covers_suite () =
  let kernels =
    List.sort_uniq compare
      (List.map
         (fun l -> List.hd (String.split_on_char '\t' l))
         (Lazy.force expected))
  in
  Alcotest.(check (list string)) "fixture kernels = suite"
    (List.sort compare Suite.names) kernels

let () =
  if Sys.getenv_opt "PSB_GOLDEN_PRINT" = Some "1" then
    List.iter
      (fun (_, ls) -> List.iter print_endline ls)
      (Lazy.force computed)
  else
    Alcotest.run "golden"
      [
        ( "profile",
          Alcotest.test_case "fixture covers the suite" `Quick test_covers_suite
          :: List.map
               (fun n -> Alcotest.test_case n `Quick (test_kernel n))
               Suite.names );
      ]
