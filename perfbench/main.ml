(* perfbench: run one workload for a fixed time and print its metrics.

     main.exe --workload fuzz-gen|suite-sim|paper-sweep --seed N
              --seconds S --trace 0|1 [--trace-out FILE]

   Human-readable figures go first; the last line of standard output is
   one JSON object {correct, attempted, failed, metrics}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans are written as Chrome trace-event JSON to --trace-out
   (default .perfbench/trace-WORKLOAD-seedN.json). *)

open Perfbench

let workloads =
  [
    (Fuzz_gen.name, Fuzz_gen.run);
    (Suite_sim.name, Suite_sim.run);
    (Paper_sweep.name, Paper_sweep.run);
  ]

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--trace-out", Arg.Set_string trace_out, "FILE span output of --trace 1");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map fst workloads)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  let cfg =
    {
      Report.default_config with
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
    }
  in
  let r = run cfg in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" !workload !seed
    !seconds !trace;
  List.iter (fun (k, v, u) -> Printf.printf "  %-26s %16.6f %s\n" k v u) r.Report.lines;
  List.iter (fun f -> Printf.printf "  FAILURE %s\n" f) r.Report.failures;
  if cfg.Report.trace then begin
    let file =
      if !trace_out <> "" then !trace_out
      else Printf.sprintf ".perfbench/trace-%s-seed%d.json" !workload !seed
    in
    mkdir_p (Filename.dirname file);
    let doc =
      Span.to_trace_json r.Report.spans
        ~metadata:
          [
            ("workload", Psb_obs.Json.String !workload);
            ("seed", Psb_obs.Json.Int !seed);
          ]
    in
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Psb_obs.Json.to_string ~minify:true doc));
    let bad = Span.nesting_violations r.Report.spans in
    Printf.printf "  spans %d written to %s; nesting violations %d\n"
      (List.length (Span.spans r.Report.spans))
      file (List.length bad);
    List.iter (fun v -> Printf.printf "  NESTING %s\n" v) bad
  end;
  print_endline
    (Psb_obs.Json.to_string ~minify:true
       (Report.json_of_result ~trace:cfg.Report.trace r))
