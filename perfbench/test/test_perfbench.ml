(* The benchmark's own tests: the fire drill, determinism in the seed,
   span nesting and the probe's place, and BENCHMARK.json in step with
   the declared metrics. *)

open Perfbench
module Json = Psb_obs.Json

let cfg ?(trace = false) ?inject ~seed ~max_ops () =
  {
    Report.seed;
    seconds = 600.;
    max_ops;
    trace;
    inject;
  }

let line (r : Report.result) name =
  match List.find_opt (fun (k, _, _) -> k = name) r.Report.lines with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "no %s line" name

(* With a planted miscompile the differential must fail trials: a
   benchmark that reports fail_ratio 0 here has gone blind. *)
let fire_drill () =
  let r =
    Fuzz_gen.run
      (cfg ~inject:Psb_proptest.Inject.Sched_order ~seed:7 ~max_ops:20 ())
  in
  Alcotest.(check int) "attempted" 20 r.Report.attempted;
  if not (line r "fail_ratio" > 0.) then
    Alcotest.fail "sched-order injection went unnoticed"

let fuzz_programs () =
  let digests seed =
    Array.map Fuzz_gen.digest (Fuzz_gen.programs Span.disabled ~seed 50)
  in
  Alcotest.(check (array string)) "same seed" (digests 5) (digests 5);
  let a = digests 5 and b = digests 6 in
  let same = ref 0 in
  Array.iteri (fun i d -> if d = b.(i) then incr same) a;
  Alcotest.(check int) "different seed, different programs" 0 !same

let suite_cycles () =
  let run seed = Suite_sim.run (cfg ~seed ~max_ops:1 ()) in
  let a = run 5 and b = run 5 and c = run 6 in
  List.iter
    (fun (r : Report.result) ->
      Alcotest.(check int) "no failures" 0 r.Report.failed)
    [ a; b; c ];
  List.iter
    (fun k ->
      Alcotest.(check (float 0.)) (k ^ ", same seed") (line a k) (line b k);
      (* the kernels are fixed; the seed only reorders the ops *)
      Alcotest.(check (float 0.)) (k ^ ", other seed") (line a k) (line c k))
    [ "sim_cycles"; "region_pred_speedup"; "rob_speedup" ]

let nesting (r : Report.result) () =
  let spans = Span.spans r.Report.spans in
  if List.length (List.filter (fun s -> s.Span.op >= 0) spans) < 2 then
    Alcotest.fail "no traced op spans";
  Alcotest.(check (list string)) "violations" []
    (Span.nesting_violations r.Report.spans)

(* The probe's compiles run under their own root, not in an op, so the
   ops' layer self times are the workload's own. *)
let probe_outside_ops (r : Report.result) () =
  let compiles = Span.named r.Report.spans "compiler.compile" in
  if compiles = [] then Alcotest.fail "no probe compiles";
  List.iter
    (fun s -> Alcotest.(check int) "compile span op" Span.probe_op s.Span.op)
    compiles

let traced_fuzz () = Fuzz_gen.run (cfg ~trace:true ~seed:2 ~max_ops:6 ())

(* Rounds alternate untraced and traced, so two rounds trace one. *)
let traced_suite () =
  Suite_sim.run (cfg ~trace:true ~seed:2 ~max_ops:37 ())

let benchmark_json () =
  let doc =
    match
      Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let declared key =
    match Json.member key doc with
    | Some l ->
        List.map
          (fun m ->
            let s k =
              Option.bind (Json.member k m) Json.to_str |> Option.value ~default:""
            in
            (s "name", s "unit", s "better",
             Option.bind (Json.member "bound" m) Json.to_float))
          (Json.to_list l)
    | None -> Alcotest.failf "BENCHMARK.json has no %s" key
  in
  let expected ms =
    List.map
      (fun (m : Report.metric) ->
        ( m.Report.name,
          m.Report.unit_,
          (match m.Report.better with Report.Higher -> "higher" | Lower -> "lower"),
          m.Report.bound ))
      ms
  in
  let pp (n, u, b, bound) =
    Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S%s}" n u b
      (match bound with Some x -> Printf.sprintf ", \"bound\": %g" x | None -> "")
  in
  let check key ms =
    Alcotest.(check (list string)) key
      (List.map pp (expected ms))
      (List.map pp (declared key))
  in
  check "end_to_end" Report.end_to_end;
  check "per_layer" Report.per_layer

let () =
  let fuzz = lazy (traced_fuzz ()) and suite = lazy (traced_suite ()) in
  Alcotest.run "perfbench"
    [
      ("fire drill", [ Alcotest.test_case "sched-order fails trials" `Quick fire_drill ]);
      ( "determinism",
        [
          Alcotest.test_case "fuzz-gen programs follow the seed" `Quick fuzz_programs;
          Alcotest.test_case "suite-sim cycles repeat exactly" `Quick suite_cycles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "fuzz-gen spans nest in their op" `Quick (fun () ->
              nesting (Lazy.force fuzz) ());
          Alcotest.test_case "suite-sim spans nest in their op" `Quick (fun () ->
              nesting (Lazy.force suite) ());
          Alcotest.test_case "fuzz-gen probe stays out of its ops" `Quick
            (fun () -> probe_outside_ops (Lazy.force fuzz) ());
        ] );
      ("metrics", [ Alcotest.test_case "BENCHMARK.json lists them" `Quick benchmark_json ]);
    ]
