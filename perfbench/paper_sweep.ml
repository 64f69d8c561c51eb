(* paper-sweep: regenerating the paper's tables. One op is one sweep: a
   fresh [Harness.create ()] (so a fresh compile cache, as every bench
   invocation pays) followed by [Report.experiment] for every experiment
   name, on one domain. The seed shuffles the experiment order; the set of
   cache keys, and so the miss count, does not change. *)

module Harness = Psb_eval.Harness
module Eval_report = Psb_eval.Report
module Json = Psb_obs.Json
module Model = Psb_compiler.Model
module Dsl = Psb_workloads.Dsl

let name = "paper-sweep"

(* One order per run, so each experiment pays the same cache misses in
   every sweep of the run and its times compare across sweeps. *)
let order ~seed =
  let a = Array.of_list Eval_report.experiment_names in
  Suite_sim.shuffle (Random.State.make [| seed |]) a;
  Array.to_list a

(* Time one step of a sweep into [samples]. *)
let step samples ~traced key f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  samples :=
    { Report.key; traced; seconds = Unix.gettimeofday () -. t0 } :: !samples;
  v

let sweep sp samples ~traced ~order =
  let sp = if traced then sp else Span.disabled in
  let h =
    step samples ~traced "harness" (fun () ->
        Span.record sp "eval.harness.create" Harness.create)
  in
  let docs =
    List.map
      (fun n ->
        step samples ~traced n (fun () ->
            Span.record sp ("eval.experiment." ^ n) (fun () ->
                match Eval_report.experiment h n with
                | Some doc -> (n, Json.to_string ~minify:true doc)
                | None -> failwith ("unknown experiment " ^ n))))
      order
  in
  (h, docs)

let run (cfg : Report.config) =
  let sp = Span.create ~enabled:cfg.trace () in
  (* Set-up profiles the suite, untimed by the sweeps, so lazy
     initialisation is done before the first sweep. *)
  let setup =
    Report.setup cfg sp (fun () ->
        Span.record sp "eval.harness.create" Harness.create)
  in
  let order = order ~seed:cfg.seed in
  let probe = Probe.create () in
  let reference = Hashtbl.create 32 in
  let samples = ref [] and sweep_seconds = ref [] in
  let failed = ref 0 and failures = ref [] in
  let hits = ref 0 and lookups = ref 0 in
  let start = Unix.gettimeofday () in
  let ops = ref 0 in
  while not (Report.deadline_reached cfg ~start ~ops:!ops) do
    Report.setup_tick setup;
    let i = !ops in
    let traced = cfg.trace && i land 1 = 1 in
    let once () =
      let t0 = Unix.gettimeofday () in
      let result =
        try Ok (sweep sp samples ~traced ~order)
        with e -> Error (Printexc.to_string e)
      in
      sweep_seconds := (Unix.gettimeofday () -. t0) :: !sweep_seconds;
      let problem =
        match result with
        | Error e -> Some ("raised " ^ e)
        | Ok (h, docs) ->
            let st = Harness.cache_stats h in
            hits := !hits + st.Psb_compiler.Compile_cache.hits;
            lookups := !lookups + st.hits + st.misses;
            List.find_map
              (fun (n, doc) ->
                match Hashtbl.find_opt reference n with
                | None ->
                    Hashtbl.replace reference n doc;
                    None
                | Some r when r <> doc ->
                    Some (n ^ ": JSON differs from the first sweep")
                | Some _ -> None)
              docs
      in
      Option.iter
        (fun p ->
          incr failed;
          failures :=
            Report.keep_failure !failures (Printf.sprintf "sweep %d: %s" i p))
        problem;
      result
    in
    (if traced then
       match Span.with_op sp i once with
       | Ok (h, _) ->
           Span.with_probe sp (fun () ->
               List.iter
                 (fun (e : Harness.entry) ->
                   let w = e.Harness.workload in
                   Probe.program probe sp ~models:Model.all ~regs:w.Dsl.regs
                     ~make_mem:w.Dsl.make_mem w.Dsl.program)
                 h.Harness.entries)
       | Error _ -> ()
     else ignore (once ()));
    incr ops;
    Report.pass_done setup
  done;
  let samples = List.rev !samples in
  (* a sweep's time: the sum of its steps' mean times over the sweeps *)
  let step_means = List.map snd (Report.key_mean ~traced:false samples) in
  let sweep_s = Stats.sum step_means in
  let attempted = !ops in
  let traced_ops = attempted / 2 in
  let per = float_of_int (max 1 traced_ops) in
  let op_busy name = Span.total_seconds (Report.op_spans sp name) /. per in
  let metrics =
    if not cfg.trace then
      Report.op_metrics setup
        ~ops_per_s:(Stats.ratio 1. sweep_s)
        ~op_ms_p50:(1e3 *. Stats.median step_means)
    else
      [
        ("trace.overhead_pct", Report.overhead_pct samples);
        ("eval.harness.create.busy_s", op_busy "eval.harness.create");
      ]
      @ List.map
          (fun n ->
            ( "eval.experiment." ^ n ^ ".busy_s",
              op_busy ("eval.experiment." ^ n) ))
          Eval_report.experiment_names
      @ ( "compiler.cache.hit_ratio",
          Stats.ratio (float_of_int !hits) (float_of_int !lookups) )
        :: Report.common_layer_metrics sp probe ~traced_ops ~per
  in
  let lines =
    [
      ("sweep_s", sweep_s, "s");
      ("sweep_s_min", List.fold_left Float.min infinity !sweep_seconds, "s");
      ("sweep_s_max", List.fold_left Float.max 0. !sweep_seconds, "s");
      ("sweeps", float_of_int attempted, "count");
      ( "cache_hits_per_sweep",
        Stats.ratio (float_of_int !hits) (float_of_int attempted),
        "count" );
      ( "cache_lookups_per_sweep",
        Stats.ratio (float_of_int !lookups) (float_of_int attempted),
        "count" );
      ( "fail_ratio",
        Stats.ratio (float_of_int !failed) (float_of_int attempted),
        "ratio" );
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
