(* fuzz-gen: what a [psb fuzz] user waits on. One op is one
   [Diff.check] on a generated program; the programs come from
   [Fuzz.gen_trial] at the run's seed and are generated in set-up. The op
   loop goes round the pool until the time is up, so every program is
   checked several times and its mean time is what counts. *)

open Psb_proptest
module Model = Psb_compiler.Model

let name = "fuzz-gen"

(* Small enough that a run goes round it often, so each program's time
   is taken over repeats spread across the run; large enough that the
   program mix differs little between seeds. *)
let pool_size = 250

let programs sp ~seed n =
  Span.record sp "proptest.gen" (fun () ->
      Array.init n (fun i -> Fuzz.gen_trial { Fuzz.default with Fuzz.seed } i))

let digest (g : Gen.t) =
  Digest.to_hex (Digest.string (Psb_isa.Asm.print g.Gen.program))

let executable_models = List.filter (fun m -> m.Model.executable) Model.all

let check ?inject ?times g =
  try Diff.check ?inject ?times g
  with e -> Error { Diff.stage = "harness"; detail = Printexc.to_string e }

let run (cfg : Report.config) =
  let sp = Span.create ~enabled:cfg.trace () in
  let n = min pool_size cfg.max_ops in
  let setup = Report.setup cfg sp (fun () -> programs sp ~seed:cfg.seed n) in
  let pool = setup.Report.value in
  let probe = Probe.create () in
  let times = Hashtbl.create 8 in
  let samples = ref [] in
  let failed = ref 0 and failures = ref [] and probe_errors = ref 0 in
  let start = Unix.gettimeofday () in
  let ops = ref 0 in
  while not (Report.deadline_reached cfg ~start ~ops:!ops) do
    Report.setup_tick setup;
    let i = !ops in
    let p = i mod n in
    let g = pool.(p) in
    (* each program runs traced and untraced in alternate rounds *)
    let traced = cfg.trace && (p + (i / n)) land 1 = 1 in
    let trial () =
      let t0 = Unix.gettimeofday () in
      let r =
        if traced then
          Span.record sp "proptest.diff.check" (fun () ->
              check ?inject:cfg.inject ~times g)
        else check ?inject:cfg.inject g
      in
      let seconds = Unix.gettimeofday () -. t0 in
      samples := { Report.key = p; traced; seconds } :: !samples;
      match r with
      | Ok () -> ()
      | Error f ->
          incr failed;
          failures :=
            Report.keep_failure !failures
              (Printf.sprintf "trial %d (seed %d): %s" p cfg.seed
                 (Diff.pp_failure f))
    in
    if traced then begin
      Span.with_op sp i trial;
      try
        Span.with_probe sp (fun () ->
            Probe.program probe sp ~models:executable_models ~regs:Gen.regs
              ~make_mem:(fun () -> Gen.make_mem g)
              g.Gen.program)
      with e ->
        if !probe_errors = 0 then
          prerr_endline ("probe: " ^ Printexc.to_string e);
        incr probe_errors
    end
    else trial ();
    incr ops;
    if !ops mod n = 0 then Report.pass_done setup
  done;
  let samples = List.rev !samples in
  let attempted = !ops in
  let traced_ops = List.length (List.filter (fun s -> s.Report.traced) samples) in
  let per = float_of_int (max 1 traced_ops) in
  let metrics =
    if not cfg.trace then
      Report.unit_metrics setup samples
    else
      [
        ("trace.overhead_pct", Report.overhead_pct samples);
        ( "proptest.gen.busy_s",
          Span.total_seconds (Span.named sp "proptest.gen") );
      ]
      @ List.map
          (fun b ->
            ( "proptest.diff." ^ b ^ ".busy_s",
              (match Hashtbl.find_opt times b with Some s -> s | None -> 0.)
              /. per ))
          Report.diff_buckets
      @ Report.common_layer_metrics sp probe ~traced_ops ~per
  in
  let mean_ms =
    List.map (fun (_, s) -> 1e3 *. s) (Report.key_mean ~traced:false samples)
  in
  let lines =
    [
      ( "trials_per_s",
        Stats.ratio
          (1e3 *. float_of_int (List.length mean_ms))
          (Stats.sum mean_ms),
        "1/s" );
      ("trial_ms_p50", Stats.quantile mean_ms 0.5, "ms");
      ("trial_ms_p99", Stats.quantile mean_ms 0.99, "ms");
      ("programs", float_of_int (List.length mean_ms), "count");
      ("trials", float_of_int attempted, "count");
      ( "fail_ratio",
        Stats.ratio (float_of_int !failed) (float_of_int attempted),
        "ratio" );
      ("probe_errors", float_of_int !probe_errors, "count");
    ]
  in
  {
    Report.attempted;
    failed = !failed;
    failures = !failures;
    metrics;
    lines;
    spans = sp;
  }
