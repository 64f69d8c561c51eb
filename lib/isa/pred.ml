type t = bool Cond.Map.t
(* Invariant: each condition appears at most once, with its required value. *)

type value = True | False | Unspec
type cond_value = T | F | U

let always = Cond.Map.empty
let is_always = Cond.Map.is_empty

let conj p c v =
  match Cond.Map.find_opt c p with
  | None -> Cond.Map.add c v p
  | Some v' when v = v' -> p
  | Some _ ->
      invalid_arg
        (Format.asprintf "Pred.conj: contradictory literal on %a" Cond.pp c)

let of_list lits = List.fold_left (fun p (c, v) -> conj p c v) always lits
let literals p = Cond.Map.bindings p
let conds p = Cond.Map.fold (fun c _ acc -> Cond.Set.add c acc) p Cond.Set.empty
let fold_conds f p acc = Cond.Map.fold f p acc
let iter_conds f p = Cond.Map.iter f p
let arity p = Cond.Map.cardinal p
let requires p c = Cond.Map.find_opt c p
let count_conds f p = Cond.Map.fold (fun c _ n -> if f c then n + 1 else n) p 0
let max_cond p = Option.map fst (Cond.Map.max_binding_opt p)

let flip p c =
  match Cond.Map.find_opt c p with
  | None ->
      invalid_arg
        (Format.asprintf "Pred.flip: %a not in predicate" Cond.pp c)
  | Some v -> Cond.Map.add c (not v) p

let eval p lookup =
  (* Unspec must dominate False no matter where the literals sit: a
     short-circuiting [Map.for_all] visits the tree root first, so its
     verdict on a mixed unspec/mismatch predicate would depend on the
     map's internal shape (i.e. on literal insertion order). Traverse
     every literal, exiting only for the dominant [Unspec]. *)
  let exception Unspecified in
  try
    let matched = ref true in
    Cond.Map.iter
      (fun c v ->
        match lookup c with
        | U -> raise Unspecified
        | T -> if not v then matched := false
        | F -> if v then matched := false)
      p;
    if !matched then True else False
  with Unspecified -> Unspec

let eval_early_false p lookup =
  let any_false =
    Cond.Map.exists
      (fun c v ->
        match lookup c with T -> not v | F -> v | U -> false)
      p
  in
  if any_false then False
  else
    let any_unspec = Cond.Map.exists (fun c _ -> lookup c = U) p in
    if any_unspec then Unspec else True

let implies p q =
  Cond.Map.for_all
    (fun c v -> match Cond.Map.find_opt c p with Some v' -> v = v' | None -> false)
    q

let disjoint p q =
  Cond.Map.exists
    (fun c v -> match Cond.Map.find_opt c q with Some v' -> v <> v' | None -> false)
    p

let equal = Cond.Map.equal Bool.equal
let compare = Cond.Map.compare Bool.compare

let rename f p =
  Cond.Map.fold (fun c v acc -> conj acc (f c) v) p always

let to_vector ~width p =
  let buf = Bytes.make width 'X' in
  Cond.Map.iter
    (fun c v ->
      let i = Cond.index c in
      if i >= width then
        invalid_arg
          (Format.asprintf "Pred.to_vector: %a out of CCR width %d" Cond.pp c
             width);
      Bytes.set buf i (if v then '1' else '0'))
    p;
  Bytes.to_string buf

(* ----- compiled form: the paper's ternary-mask comparator (§4.2.1) -----

   A conjunction over conditions [0 .. word_bits-1] packs into two machine
   words: [c_mask] has bit [i] set iff the predicate mentions condition
   [i], [c_want] the required value of each mentioned bit. Evaluation
   against a packed CCR ({!Ccr}-side) is then a pair of AND/compare ops —
   the software mirror of the per-entry mask comparators.

   Predicates reaching past [word_bits] conditions keep the same encoding
   per word in [c_wide] (index 0 = conditions [0..word_bits-1], aliasing
   [c_mask]/[c_want]); they are rare enough that the evaluator may loop. *)

let word_bits = Sys.int_size

type compiled = {
  c_source : t;
  c_mask : int;
  c_want : int;
  c_wide : (int array * int array) option;
}

let compile p =
  let maxi = match max_cond p with None -> -1 | Some c -> Cond.index c in
  if maxi < word_bits then
    let mask, want =
      Cond.Map.fold
        (fun c v (m, w) ->
          let b = 1 lsl Cond.index c in
          (m lor b, if v then w lor b else w))
        p (0, 0)
    in
    { c_source = p; c_mask = mask; c_want = want; c_wide = None }
  else begin
    let nwords = (maxi / word_bits) + 1 in
    let masks = Array.make nwords 0 and wants = Array.make nwords 0 in
    Cond.Map.iter
      (fun c v ->
        let i = Cond.index c in
        let w = i / word_bits and b = 1 lsl (i mod word_bits) in
        masks.(w) <- masks.(w) lor b;
        if v then wants.(w) <- wants.(w) lor b)
      p;
    {
      c_source = p;
      c_mask = masks.(0);
      c_want = wants.(0);
      c_wide = Some (masks, wants);
    }
  end

let compiled_always = compile always
let source cp = cp.c_source

(* Mask forms of {!disjoint}/{!implies}/{!equal}. [c_want] is zero
   outside [c_mask], so the single-word relations are plain word
   arithmetic; a wide predicate on either side falls back to the maps. *)
let disjoint_c p q =
  match (p.c_wide, q.c_wide) with
  | None, None -> p.c_mask land q.c_mask land (p.c_want lxor q.c_want) <> 0
  | _ -> disjoint p.c_source q.c_source

let implies_c p q =
  match (p.c_wide, q.c_wide) with
  | None, None ->
      q.c_mask land p.c_mask = q.c_mask
      && (p.c_want lxor q.c_want) land q.c_mask = 0
  | _ -> implies p.c_source q.c_source

let equal_c p q =
  match (p.c_wide, q.c_wide) with
  | None, None -> p.c_mask = q.c_mask && p.c_want = q.c_want
  | _ -> equal p.c_source q.c_source

let compiled_fits ~width cp =
  match cp.c_wide with
  | None ->
      if width >= word_bits then true
      else cp.c_mask land lnot ((1 lsl width) - 1) = 0
  | Some (masks, _) ->
      let nwords = Array.length masks in
      let ok = ref true in
      for w = 0 to nwords - 1 do
        let lo = w * word_bits in
        let allowed =
          if width >= lo + word_bits then -1
          else if width <= lo then 0
          else (1 lsl (width - lo)) - 1
        in
        if masks.(w) land lnot allowed <> 0 then ok := false
      done;
      !ok

let pp ppf p =
  if is_always p then Format.pp_print_string ppf "alw"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
      (fun ppf (c, v) ->
        if v then Cond.pp ppf c else Format.fprintf ppf "!%a" Cond.pp c)
      ppf (literals p)

let pp_value ppf v =
  Format.pp_print_string ppf
    (match v with True -> "T" | False -> "F" | Unspec -> "U")
