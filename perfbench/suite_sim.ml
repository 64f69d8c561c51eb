(* suite-sim: simulation of the six suite kernels. Set-up profiles,
   decodes and compiles every kernel once under every executable model;
   one op is then one run of one kernel on one backend, so the compiler
   does no work inside a timed op. The seed shuffles the ops of each
   round. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Rob_sim = Psb_machine.Rob_sim
module Vliw_sim = Psb_machine.Vliw_sim
module Dsl = Psb_workloads.Dsl
module Suite = Psb_workloads.Suite

let name = "suite-sim"
let executable_models = List.filter (fun m -> m.Model.executable) Model.all

type kernel = {
  w : Dsl.t;
  reference : Interp.result;  (** the interpreter's run, from profiling *)
  ref_mem : Memory.t;  (** memory after the reference run *)
  decoded : Decoded.t;
  compiled : Driver.compiled array;  (** by [executable_models] position *)
}

type backend = Interp_run | Rob_run | Vliw_run of int

let backend_name = function
  | Interp_run -> "interp"
  | Rob_run -> "rob"
  | Vliw_run i -> "vliw/" ^ (List.nth executable_models i).Model.name

let backends =
  Interp_run :: Rob_run
  :: List.mapi (fun i _ -> Vliw_run i) executable_models

let setup ?probe sp =
  List.map
    (fun (w : Dsl.t) ->
      let ref_mem = w.Dsl.make_mem () in
      let reference, profile =
        Probe.profile sp w.Dsl.program ~regs:w.Dsl.regs ~mem:ref_mem
      in
      if reference.Interp.outcome <> Interp.Halted then
        failwith ("suite-sim: reference run did not halt: " ^ w.Dsl.name);
      let decoded = Probe.decode sp w.Dsl.program in
      let compiled =
        Array.of_list
          (List.map
             (fun model -> Probe.compile ?probe sp ~model ~profile w.Dsl.program)
             executable_models)
      in
      { w; reference; ref_mem; decoded; compiled })
    Suite.all
  |> Array.of_list

(* What one op observed, for checking and for the metrics. *)
type run = {
  outcome : Interp.outcome;
  output : int list;
  regs : int Reg.Map.t;
  cycles : int;
  vliw : Vliw_sim.stats option;
  rob : Rob_sim.stats option;
}

let execute sp k backend ~mem =
  let regs = k.w.Dsl.regs and program = k.w.Dsl.program in
  match backend with
  | Interp_run ->
      let r =
        Span.record sp "isa.interp.run" (fun () ->
            Interp.run ~record_trace:false ~decoded:k.decoded ~regs ~mem program)
      in
      { outcome = r.Interp.outcome; output = r.Interp.output;
        regs = r.Interp.regs; cycles = r.Interp.cycles; vliw = None;
        rob = None }
  | Rob_run ->
      let r =
        Span.record sp "machine.rob.run" (fun () ->
            Rob_sim.run ~decoded:k.decoded ~model:Machine_model.base ~regs ~mem
              program)
      in
      { outcome = r.Rob_sim.outcome; output = r.Rob_sim.output;
        regs = r.Rob_sim.regs; cycles = r.Rob_sim.cycles; vliw = None;
        rob = Some r.Rob_sim.stats }
  | Vliw_run i ->
      let r =
        (* [Driver.run_vliw] hands straight to the machine simulator *)
        Span.record sp "machine.vliw.run" (fun () ->
            Driver.run_vliw k.compiled.(i) ~regs ~mem)
      in
      { outcome = r.Vliw_sim.outcome; output = r.Vliw_sim.output;
        regs = r.Vliw_sim.regs; cycles = r.Vliw_sim.cycles;
        vliw = Some r.Vliw_sim.stats; rob = None }

(* Architectural state against the set-up reference. *)
let mismatch k (r : run) ~mem =
  let ref_ = k.reference in
  if r.outcome <> ref_.Interp.outcome then Some "outcome"
  else if r.output <> ref_.Interp.output then Some "output"
  else if not (Reg.Map.equal Int.equal r.regs ref_.Interp.regs) then
    Some "final registers"
  else if not (Memory.equal k.ref_mem mem) then Some "final memory"
  else None

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type sample = {
  kernel : int;
  backend : backend;
  seconds : float;
  words : float;  (** minor words allocated by the call; traced ops only *)
  traced : bool;
}

let run (cfg : Report.config) =
  let sp = Span.create ~enabled:cfg.trace () in
  let probe = Probe.create () in
  let set_up =
    Report.setup cfg sp (fun () ->
        setup ?probe:(if cfg.trace then Some probe else None) sp)
  in
  let kernels = set_up.Report.value in
  let pairs =
    Array.concat
      (List.map
         (fun b -> Array.init (Array.length kernels) (fun k -> (k, b)))
         backends)
  in
  let first = Hashtbl.create 64 in
  let samples = ref [] and failed = ref 0 and failures = ref [] in
  let start = Unix.gettimeofday () in
  let ops = ref 0 and round = ref 0 in
  while not (Report.deadline_reached cfg ~start ~ops:!ops) do
    Report.setup_tick set_up;
    let order = Array.copy pairs in
    shuffle (Random.State.make [| cfg.seed; !round |]) order;
    let traced = cfg.trace && !round land 1 = 1 in
    Array.iter
      (fun (ki, backend) ->
        let k = kernels.(ki) in
        let op () =
          let mem = k.w.Dsl.make_mem () in
          let w0 = if traced then Gc.minor_words () else 0. in
          let t0 = Unix.gettimeofday () in
          let r =
            try Ok (execute (if traced then sp else Span.disabled) k backend ~mem)
            with e -> Error (Printexc.to_string e)
          in
          let seconds = Unix.gettimeofday () -. t0 in
          let words = if traced then Gc.minor_words () -. w0 else 0. in
          samples :=
            { kernel = ki; backend; seconds; words; traced } :: !samples;
          let problem =
            match r with
            | Error e -> Some ("raised " ^ e)
            | Ok r -> (
                match mismatch k r ~mem with
                | Some _ as p -> p
                | None -> (
                    match Hashtbl.find_opt first (ki, backend) with
                    | None ->
                        Hashtbl.replace first (ki, backend) r;
                        None
                    | Some (f : run) when f.cycles <> r.cycles ->
                        Some
                          (Printf.sprintf "cycles %d, first run %d" r.cycles
                             f.cycles)
                    | Some _ -> None))
          in
          Option.iter
            (fun p ->
              incr failed;
              failures :=
                Report.keep_failure !failures
                  (Printf.sprintf "%s on %s: %s" k.w.Dsl.name
                     (backend_name backend) p))
            problem
        in
        if traced then Span.with_op sp !ops op else op ();
        incr ops)
      order;
    incr round;
    Report.pass_done set_up
  done;
  let samples = List.rev !samples in
  let dyn ki = float_of_int kernels.(ki).reference.Interp.dyn_instrs in
  let is_vliw = function Vliw_run _ -> true | _ -> false in
  let timed =
    List.map
      (fun s ->
        { Report.key = (s.kernel, s.backend); traced = s.traced; seconds = s.seconds })
      samples
  in
  let pair_mean = Report.key_mean ~traced:false timed in
  let minstr_per_s p =
    let ms = List.filter (fun ((_, b), _) -> p b) pair_mean in
    Stats.ratio
      (Stats.sum (List.map (fun ((ki, _), _) -> dyn ki) ms))
      (Stats.sum (List.map snd ms))
    /. 1e6
  in
  (* Simulated figures from the first run of each pair: exact. *)
  let firsts b =
    List.filter_map
      (fun ki -> Option.map (fun r -> (ki, r)) (Hashtbl.find_opt first (ki, b)))
      (List.init (Array.length kernels) Fun.id)
  in
  let region_pred =
    Vliw_run
      (Option.get
         (List.find_index (fun m -> m == Model.region_pred) executable_models))
  in
  let speedup b =
    Psb_eval.Harness.geomean
      (List.map
         (fun (ki, (r : run)) ->
           float_of_int kernels.(ki).reference.Interp.cycles
           /. float_of_int r.cycles)
         (firsts b))
  in
  let sum_firsts b f =
    float_of_int (List.fold_left (fun acc (_, r) -> acc + f r) 0 (firsts b))
  in
  let vliw_sum f =
    sum_firsts region_pred (fun r -> Option.fold ~none:0 ~some:f r.vliw)
  in
  let rob_sum f = sum_firsts Rob_run (fun r -> Option.fold ~none:0 ~some:f r.rob) in
  let traced_samples p = List.filter (fun s -> s.traced && p s.backend) samples in
  let per_unit p unit_of =
    let ss = traced_samples p in
    let units = Stats.sum (List.map unit_of ss) in
    ( Stats.ratio (Stats.sum (List.map (fun s -> s.seconds) ss) *. 1e9) units,
      Stats.ratio (Stats.sum (List.map (fun s -> s.words) ss)) units )
  in
  let cycles_of s =
    match Hashtbl.find_opt first (s.kernel, s.backend) with
    | Some r -> float_of_int r.cycles
    | None -> 0.
  in
  let metrics =
    if not cfg.trace then
      Report.unit_metrics set_up timed
    else
      let interp_ns, interp_words =
        per_unit (( = ) Interp_run) (fun s -> dyn s.kernel)
      in
      let rob_ns, rob_words =
        per_unit (( = ) Rob_run) (fun s -> dyn s.kernel)
      in
      let vliw_ns, vliw_words = per_unit is_vliw cycles_of in
      [
        ("trace.overhead_pct", Report.overhead_pct timed);
        ("isa.interp.ns_per_instr", interp_ns);
        ("isa.interp.minor_words_per_instr", interp_words);
        ("machine.rob.ns_per_instr", rob_ns);
        ("machine.rob.minor_words_per_instr", rob_words);
        ("machine.vliw.ns_per_cycle", vliw_ns);
        ("machine.vliw.minor_words_per_cycle", vliw_words);
        ( "machine.vliw.useful_slot_ratio",
          Stats.ratio
            (vliw_sum (fun st -> st.Vliw_sim.dyn_ops))
            (vliw_sum (fun st -> st.Vliw_sim.dyn_ops + st.Vliw_sim.squashed_ops))
        );
        ( "machine.vliw.commit_ratio",
          Stats.ratio
            (vliw_sum (fun st -> st.Vliw_sim.commits))
            (vliw_sum (fun st -> st.Vliw_sim.commits + st.Vliw_sim.squashes)) );
        ("machine.vliw.recoveries", vliw_sum (fun st -> st.Vliw_sim.recoveries));
        ( "machine.rob.commit_ratio",
          Stats.ratio
            (rob_sum (fun st -> st.Rob_sim.committed))
            (rob_sum (fun st -> st.Rob_sim.fetched)) );
        ("sim.region_pred_speedup", speedup region_pred);
        ("sim.rob_speedup", speedup Rob_run);
      ]
      @ Report.common_layer_metrics sp probe
          ~traced_ops:(List.length (traced_samples (fun _ -> true)))
          ~per:1.
  in
  let lines =
    [
      ("vliw_minstr_per_s", minstr_per_s is_vliw, "M/s");
      ("rob_minstr_per_s", minstr_per_s (( = ) Rob_run), "M/s");
      ( "interp_minstr_per_s",
        minstr_per_s (( = ) Interp_run),
        "M/s" );
      ("region_pred_speedup", speedup region_pred, "x");
      ("rob_speedup", speedup Rob_run, "x");
      ( "sim_cycles",
        float_of_int (Hashtbl.fold (fun _ (r : run) acc -> acc + r.cycles) first 0),
        "cycles" );
      ("rounds", float_of_int !round, "count");
      ("runs", float_of_int !ops, "count");
      ( "fail_ratio",
        Stats.ratio (float_of_int !failed) (float_of_int !ops),
        "ratio" );
    ]
  in
  {
    Report.attempted = !ops;
    failed = !failed;
    failures = !failures;
    metrics;
    lines;
    spans = sp;
  }
