(* Metric declarations, the per-layer metrics every workload shares, and
   the result line. BENCHMARK.json at the repository root lists the same
   names and units; a test keeps the two in step. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* Every workload reports every end-to-end metric; what one op is differs
   per workload (README.md). A tail percentile is printed in the log but
   not declared: paper-sweep completes too few ops in a run to estimate
   one. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_ms_p50" "ms" Lower 0.25;
    e2e "peak_heap_mb" "MB" Lower 0.2;
  ]

let diff_buckets =
  [ "decode"; "interp"; "scalar"; "rob"; "profile"; "models"; "cache" ]

let per_layer =
  [ layer "trace.overhead_pct" "%" Lower ]
  @ List.map
      (fun l -> layer ("layer." ^ l ^ ".self_s") "s" Lower)
      Span.layers
  @ [ layer "proptest.gen.busy_s" "s" Lower ]
  @ List.map
      (fun b -> layer ("proptest.diff." ^ b ^ ".busy_s") "s" Lower)
      diff_buckets
  @ [
      layer "compiler.compile.calls" "count" Lower;
      layer "compiler.compile.busy_s" "s" Lower;
      layer "compiler.compile.us_per_call" "us" Lower;
    ]
  @ List.map
      (fun p -> layer ("compiler.pass." ^ p ^ ".busy_s") "s" Lower)
      (Probe.passes @ [ "untimed" ])
  @ [
      layer "compiler.cache.key_us" "us" Lower;
      layer "compiler.cache.hit_ratio" "ratio" Higher;
      layer "compiler.cache.hit_us" "us" Lower;
      layer "compiler.profile.busy_s" "s" Lower;
      layer "compiler.estimate.busy_s" "s" Lower;
      layer "isa.decode.us_per_program" "us" Lower;
      layer "isa.interp.ns_per_instr" "ns" Lower;
      layer "isa.interp.minor_words_per_instr" "words/instr" Lower;
      layer "machine.vliw.ns_per_cycle" "ns" Lower;
      layer "machine.vliw.minor_words_per_cycle" "words/cycle" Lower;
      layer "machine.vliw.useful_slot_ratio" "ratio" Higher;
      layer "machine.vliw.commit_ratio" "ratio" Higher;
      layer "machine.vliw.recoveries" "count" Lower;
      layer "machine.rob.ns_per_instr" "ns" Lower;
      layer "machine.rob.minor_words_per_instr" "words/instr" Lower;
      layer "machine.rob.commit_ratio" "ratio" Higher;
      layer "sim.region_pred_speedup" "x" Higher;
      layer "sim.rob_speedup" "x" Higher;
      layer "eval.harness.create.busy_s" "s" Lower;
    ]
  @ List.map
      (fun n -> layer ("eval.experiment." ^ n ^ ".busy_s") "s" Lower)
      Psb_eval.Report.experiment_names

type config = {
  seed : int;
  seconds : float;
  max_ops : int;  (** stop earlier than [seconds] after this many ops *)
  trace : bool;
  inject : Psb_proptest.Inject.t option;
}

let default_config =
  {
    seed = 1;
    seconds = 10.;
    max_ops = max_int;
    trace = false;
    inject = None;
  }

(* Set-up runs once before the first op, and then again between ops at
   even intervals over the run (results dropped) until [setups] runs are
   timed, so that its median sees the host as the ops do. The traced run
   sets up once, inside a set-up span.

   The record also holds the heap peak after the first full pass over the
   workload's units of work (the program pool, a round, a sweep). Over
   the whole run the peak grows with the ops completed, so a faster
   program would read as a larger heap; a pass is a fixed amount of work.
   Set-up runs again only after that pass, so that the figure depends on
   the seed alone. *)
let setups = 7

type 'a setup = {
  value : 'a;  (** the first set-up's result, which the ops use *)
  again : unit -> unit;
  total : int;
  spacing : float;
  start : float;
  mutable times : float list;
  mutable heap_mb : float option;  (** peak after the first pass *)
}

let setup cfg sp f =
  let t0 = Unix.gettimeofday () in
  let value = Span.with_op sp (-1) f in
  let dt = Unix.gettimeofday () -. t0 in
  let total = if cfg.trace then 1 else setups in
  {
    value;
    again = (fun () -> ignore (f ()));
    total;
    spacing = cfg.seconds /. float_of_int total;
    start = Unix.gettimeofday ();
    times = [ dt ];
    heap_mb = None;
  }

(* Call after every pass. *)
let pass_done s =
  if Option.is_none s.heap_mb then s.heap_mb <- Some (Stats.peak_heap_mb ())

(* Call between ops. *)
let setup_tick s =
  let n = List.length s.times in
  if
    Option.is_some s.heap_mb && n < s.total
    && Unix.gettimeofday () -. s.start >= float_of_int n *. s.spacing
  then begin
    let t0 = Unix.gettimeofday () in
    s.again ();
    s.times <- (Unix.gettimeofday () -. t0) :: s.times
  end

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  metrics : (string * float) list;
      (** end-to-end values untraced, per-layer values traced *)
  lines : (string * float * string) list;
      (** the workload's own end-to-end figures under their workload
          names ([trials_per_s], [sweep_s], ...), for the log *)
  spans : Span.t;
}

let max_failures_kept = 5

(* Distinct failure details, the first few; a unit that fails fails in
   every repeat. *)
let keep_failure failures detail =
  if List.length failures < max_failures_kept && not (List.mem detail failures)
  then failures @ [ detail ]
  else failures

(* [deadline_reached cfg ~start ~ops]: the op loop's stopping rule. *)
let deadline_reached cfg ~start ~ops =
  ops >= cfg.max_ops || Unix.gettimeofday () -. start >= cfg.seconds

(* A timed op: the unit of work it repeats (a program, a kernel on a
   backend, a step of a sweep), whether it ran traced, and its host
   seconds. *)
type 'k sample = { key : 'k; traced : bool; seconds : float }

(* The mean seconds of every key over its samples with the given tracing,
   in order of first appearance. The host's speed drifts by up to 50%
   over seconds and minutes. The mean over a run's repeats moves smoothly
   with the share of the run the host spent fast; a median or a best time
   flips between the host's fast and slow states from run to run, and
   spread more over sets of runs. *)
let key_mean ~traced samples =
  let tbl = Hashtbl.create 64 and keys = ref [] in
  List.iter
    (fun s ->
      if s.traced = traced then
        match Hashtbl.find_opt tbl s.key with
        | Some (sum, n) -> Hashtbl.replace tbl s.key (sum +. s.seconds, n + 1)
        | None ->
            keys := s.key :: !keys;
            Hashtbl.replace tbl s.key (s.seconds, 1))
    samples;
  List.rev_map
    (fun k ->
      let sum, n = Hashtbl.find tbl k in
      (k, sum /. float_of_int n))
    !keys

(* The end-to-end values; the heap peak is taken at the end of a run cut
   short before its first pass. *)
let op_metrics setup ~ops_per_s ~op_ms_p50 =
  [
    ("setup_s", Stats.median setup.times);
    ("ops_per_s", ops_per_s);
    ("op_ms_p50", op_ms_p50);
    ( "peak_heap_mb",
      match setup.heap_mb with Some mb -> mb | None -> Stats.peak_heap_mb () );
  ]

(* For workloads whose op is one repeated unit: ops per second of the
   units' mean times, and the median unit's mean time in ms. *)
let unit_metrics setup samples =
  let means = List.map snd (key_mean ~traced:false samples) in
  op_metrics setup
    ~ops_per_s:(Stats.ratio (float_of_int (List.length means)) (Stats.sum means))
    ~op_ms_p50:(1e3 *. Stats.median means)

(* Traced against untraced time over the keys run both ways, in percent. *)
let overhead_pct samples =
  let untraced = key_mean ~traced:false samples in
  let both =
    List.filter_map
      (fun (k, t) -> Option.map (fun u -> (t, u)) (List.assoc_opt k untraced))
      (key_mean ~traced:true samples)
  in
  if both = [] then 0.
  else
    100.
    *. ((Stats.sum (List.map fst both) /. Stats.sum (List.map snd both)) -. 1.)

let op_spans sp name = List.filter (fun s -> s.Span.op >= 0) (Span.named sp name)

(* Layer self time and the compile accounting shared by all workloads.
   Busy times are per [per] (a traced op, or the one traced set-up when
   the workload compiles only in set-up); self times are per traced op. *)
let common_layer_metrics sp (probe : Probe.t) ~traced_ops ~per =
  let self_ops = Span.self_seconds ~keep:(fun s -> s.Span.op >= 0) sp in
  let busy name = Span.total_seconds (Span.named sp name) /. per in
  let compiles = Span.named sp "compiler.compile" in
  let n_compiles = float_of_int (List.length compiles) in
  let compile_s = Span.total_seconds compiles in
  let pass_s = List.map (fun p -> (p, Probe.pass_seconds probe p)) Probe.passes in
  let mean_us name =
    let ss = Span.named sp name in
    Stats.ratio (Span.total_seconds ss *. 1e6) (float_of_int (List.length ss))
  in
  List.map
    (fun l ->
      ( "layer." ^ l ^ ".self_s",
        (match Hashtbl.find_opt self_ops l with Some v -> v | None -> 0.)
        /. float_of_int (max 1 traced_ops) ))
    Span.layers
  @ [
      ("compiler.compile.calls", n_compiles /. per);
      ("compiler.compile.busy_s", compile_s /. per);
      ("compiler.compile.us_per_call", Stats.ratio (compile_s *. 1e6) n_compiles);
    ]
  @ List.map (fun (p, s) -> ("compiler.pass." ^ p ^ ".busy_s", s /. per)) pass_s
  @ [
      ( "compiler.pass.untimed.busy_s",
        (compile_s -. Stats.sum (List.map snd pass_s)) /. per );
      ("compiler.cache.key_us", mean_us "compiler.cache.key");
      ("compiler.cache.hit_us", mean_us "compiler.cache.hit");
      ("compiler.profile.busy_s", busy "compiler.profile");
      ("compiler.estimate.busy_s", busy "compiler.estimate");
      ("isa.decode.us_per_program", mean_us "isa.decode");
    ]

let json_of_result ~trace r =
  let module Json = Psb_obs.Json in
  let declared = if trace then per_layer else end_to_end in
  let value m =
    match List.assoc_opt m.name r.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> 0.
    | None when trace -> 0. (* layer not exercised by this workload *)
    | None -> failwith ("perfbench: end-to-end metric not computed: " ^ m.name)
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float (value m)); ("unit", Json.String m.unit_) ]
               ))
             declared) );
    ]
