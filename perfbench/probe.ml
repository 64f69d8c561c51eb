(* Compile accounting, run in traced runs only and outside the timed call.

   [Diff.check] and the experiment harness take no metrics registry, so the
   traced run compiles the same programs again from outside, after the
   op and under its own root span ([Span.with_probe]): profile, decode,
   then per model the cache key, a cold [Driver.compile ~metrics]
   (per-pass timers), a cache hit, and the trace-driven estimate. The
   compile span minus its timed passes is the compile time no pass timer
   covers. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Metrics = Psb_obs.Metrics

(* The registry that collects the per-pass timers. *)
type t = Metrics.t

let create = Metrics.create

let passes =
  [ "cfg"; "unit_formation"; "schedule"; "check"; "emit"; "verify"; "lower";
    "decode" ]

let pass_seconds p pass =
  Metrics.histogram_sum
    (Metrics.histogram p ~labels:[ ("pass", pass) ]
       "compile_pass_seconds")

let profile sp program ~regs ~mem =
  Span.record sp "compiler.profile" (fun () ->
      Driver.profile_of program ~regs ~mem)

let decode sp program =
  Span.record sp "isa.decode" (fun () -> Decoded.of_program program)

(* A cold compile with pass timers, plus the key and a hit on a cache that
   holds only this compile, as in [Diff.check]'s cache stage. Without a
   probe this is a plain cold compile. *)
let compile ?probe sp ~model ~profile program =
  let machine = Machine_model.base in
  match probe with
  | None -> Driver.compile ~model ~machine ~profile program
  | Some p ->
      let key =
        Span.record sp "compiler.cache.key" (fun () ->
            Compile_cache.key ~model ~machine ~single_shadow:true
              ~avoid_commit_deps:false ~verify:true ~profile program)
      in
      let c =
        Span.record sp "compiler.compile" (fun () ->
            Driver.compile ~metrics:p ~model ~machine ~profile program)
      in
      let cache = Compile_cache.create () in
      ignore (Compile_cache.find_or_compile cache key (fun () -> c));
      let hit =
        Span.record sp "compiler.cache.hit" (fun () ->
            Driver.compile ~cache ~model ~machine ~profile program)
      in
      if hit != c then failwith "probe: the cache lookup missed";
      c

(* The whole accounting for one program under [models]. The trace-driven
   estimate needs a complete trace, so it is skipped for programs that end
   in a fatal fault. *)
let program p sp ~models ~regs ~make_mem prog =
  let scalar, profile = profile sp prog ~regs ~mem:(make_mem ()) in
  ignore (decode sp prog);
  List.iter
    (fun model ->
      let c = compile ~probe:p sp ~model ~profile prog in
      if scalar.Interp.outcome = Interp.Halted then
        ignore
          (Span.record sp "compiler.estimate" (fun () ->
               Driver.estimate_cycles c prog
                 ~block_trace:scalar.Interp.block_trace)))
    models
