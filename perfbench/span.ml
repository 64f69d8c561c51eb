(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's side of each public call into a
   layer of the program. A span's name starts with its layer ("isa",
   "compiler", "machine", "eval", "proptest", or "bench" for the benchmark's
   own op, set-up and probe spans), so per-layer self time needs no extra table.
   The minor-words delta of every span is kept too: allocation per
   simulated instruction or cycle is a per-layer metric. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  op : int;  (** op index; [-1] for set-up, [probe_op] for the probe *)
  t0 : float;  (** seconds, host wall-clock *)
  t1 : float;
  minor_words : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;  (** most recent first *)
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable current_op : int;
}

let create ~enabled () =
  {
    enabled;
    origin = Unix.gettimeofday ();
    spans = [];
    next = 0;
    stack = [];
    current_op = -1;
  }

let disabled = create ~enabled:false ()

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let minor_words = Gc.minor_words () -. w0 in
        t.stack <- List.tl t.stack;
        t.spans <-
          { id; name; parent; op = t.current_op; t0; t1; minor_words } :: t.spans)
  end

let root t ~op name f =
  let prev = t.current_op in
  t.current_op <- op;
  Fun.protect ~finally:(fun () -> t.current_op <- prev) (fun () ->
      record t name f)

(* [with_op t op f] runs [f] as op [op], or as set-up when [op] is [-1]. *)
let with_op t op f = root t ~op (if op < 0 then "bench.setup" else "bench.op") f

(* The compile-accounting probe runs after an op under a root of its own,
   so that its work stays out of the ops' layer self times. *)
let probe_op = -2
let with_probe t f = root t ~op:probe_op "bench.probe" f

let spans t = List.rev t.spans
let dur s = s.t1 -. s.t0

(* Spans with [name], in recording order. *)
let named t name = List.filter (fun s -> s.name = name) (spans t)

let total_seconds ss = List.fold_left (fun acc s -> acc +. dur s) 0. ss

(* A layer's self time: its spans' durations minus the part covered by
   their children (children never overlap one another: one thread).
   Only spans satisfying [keep] count. *)
let self_seconds ?(keep = fun _ -> true) t =
  let kept = List.filter keep t.spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((match Hashtbl.find_opt children s.parent with
           | Some v -> v
           | None -> 0.)
          +. dur s))
    kept;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let covered =
        match Hashtbl.find_opt children s.id with Some v -> v | None -> 0.
      in
      let l = layer s.name in
      Hashtbl.replace by_layer l
        ((match Hashtbl.find_opt by_layer l with Some v -> v | None -> 0.)
        +. dur s -. covered))
    kept;
  by_layer

(* Every span with a parent lies inside it in time and belongs to the same
   op; the result lists the violations. *)
let nesting_violations t =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  List.filter_map
    (fun s ->
      if s.parent < 0 then
        if List.mem s.name [ "bench.op"; "bench.setup"; "bench.probe" ] then None
        else Some (Printf.sprintf "span %d (%s) has no op span" s.id s.name)
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> Some (Printf.sprintf "span %d (%s): parent missing" s.id s.name)
        | Some p ->
            if p.op <> s.op then
              Some
                (Printf.sprintf "span %d (%s): op %d, parent op %d" s.id s.name
                   s.op p.op)
            else if s.t0 < p.t0 || s.t1 > p.t1 then
              Some
                (Printf.sprintf "span %d (%s) outside parent %d (%s)" s.id
                   s.name p.id p.name)
            else None)
    (spans t)

let layers = [ "bench"; "proptest"; "eval"; "compiler"; "isa"; "machine" ]

(* Chrome trace-event JSON, written by the same module as [psb trace], so the
   file opens in Perfetto. One track per layer; timestamps are host
   microseconds since the recorder was created. *)
let to_trace_json t ~metadata =
  let module Te = Psb_obs.Trace_event in
  let module Json = Psb_obs.Json in
  let te = Te.create ~process_name:"perfbench" () in
  let tracks =
    List.mapi (fun i l -> (l, Te.track te ~sort_index:i l)) layers
  in
  let us x = int_of_float ((x -. t.origin) *. 1e6) in
  List.iter
    (fun s ->
      let l = layer s.name in
      let track =
        match List.assoc_opt l tracks with
        | Some tr -> tr
        | None -> Te.track te l
      in
      let ts = us s.t0 in
      Te.span te track ~name:s.name ~ts ~dur:(us s.t1 - ts)
        ~args:
          [
            ("id", Json.Int s.id);
            ("parent", Json.Int s.parent);
            ("op", Json.Int s.op);
            ("minor_words", Json.Float s.minor_words);
          ]
        ())
    (spans t);
  Te.to_json te ~metadata ()
