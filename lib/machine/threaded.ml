(** The execution engine for DFG/FTL code.

    Compiles each pre-decoded block body once into a chain of OCaml
    closures — each closure executes its instruction and tail-calls the
    next — so the per-instruction [match] over [Lir.kind] is paid once at
    compile time instead of on every execution.  [sem_only] is the one
    place each instruction's semantics is written; the accounting around
    it is chosen per compile by [Engine.kind]:

    - [Engine.Decoded] (per-instruction accounting, the reference): every
      instruction is a [solo] closure that burns one fuel, ticks the
      transaction watchdog and charges its pre-computed cost at the tier's
      CPI *before* its semantics run; each block terminator charges one
      instruction, also before it runs.  Free instructions (ghost-mode tx
      markers, NoMap_BC-elided checks) burn fuel only — their semantics,
      including guard failure, still execute.  This protocol *defines* the
      simulated-metric contract.
    - [Engine.Threaded] (segment-batched accounting, the default): maximal
      call/tx-marker-free straight-line runs become *deferred-accounting
      segments*.  A segment burns its fuel and adds its watchdog ticks
      once up front — falling back to the exact [solo] chain when the
      batched tick could cross the transaction watchdog, so a watchdog
      abort fires at the precise instruction — then runs the semantics
      back to back and applies the instr/cycle charges once at the end: a
      single [add_instrs] of the summed cost (integer adds commute) and the
      per-instruction cycle deltas accumulated in program order (the same
      FP additions on the same values in the same order, so the result is
      bit-identical).  Category and in-region flag are invariant across a
      segment — it contains no calls and no tx markers — so computing them
      once is exact.  Calls, intrinsics, runtime calls and tx markers stay
      [solo] in both modes.

    Deferral is exact because no instruction inside a segment *observes*
    the counters; the reordering could show only if the segment ends
    early.  Instructions that can raise or abort (checks → deopt;
    logged heap accesses → capacity aborts; allocs) therefore record how
    many instructions' accounting is due ([st.due]) before their semantics
    run, and the segment's exception guard reconciles exactly that prefix
    — the per-instruction counter state — before re-raising.  Pure
    instructions ([Decode.pure]) cannot raise and skip the bookkeeping.
    (The transaction's [instr_count] may be over-advanced when an abort
    tears the transaction down mid-segment; [handle_abort] never reads it
    and the transaction object dies, so it is unobservable.)  Elided runs
    are the degenerate segment with zero tick and zero cost.

    Batched fuel: a segment burns its fuel up front, so a program that
    runs out of fuel mid-segment dies a few instructions earlier than
    under per-instruction accounting.  [Out_of_fuel] is a crash, not an
    observation — the oracle compares crash identity, and both modes
    raise the same exception — so this is crash-equivalent.

    The free / zero-cost / charged decision and the CPI multiplication are
    resolved at compile time ([float_of_int cost *. cpi] at compile time is
    the same IEEE operation as at run time).  The compiled chain is cached
    on [Specialize.compiled] via the extensible [Specialize.artifact] slot,
    keyed on tier and accounting mode; adaptation discarding a version
    ([ftl <- None]) discards the chain with it.  Closures capture the
    [Machine.env] they were compiled against — compiled records are
    per-VM, so this never crosses VMs (or domains). *)

module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Ops = Nomap_runtime.Ops
module Shape = Nomap_runtime.Shape
module Intrinsics = Nomap_runtime.Intrinsics
module Instance = Nomap_interp.Instance
module L = Nomap_lir.Lir
module D = Nomap_lir.Decode
module Htm = Nomap_htm.Htm
module Specialize = Nomap_tiers.Specialize
module Hot = Nomap_util.Hot
open Machine

(* Same-module copies of the float-touching hot helpers.  The dev build
   profile compiles with -opaque, which disables cross-module inlining —
   there, a cross-module call taking or returning a float boxes it on
   every invocation (once per executed comparison / cycle charge).
   Defining these locally keeps the hot path allocation-free under every
   build profile.  Semantics must stay identical to [Value.to_number] /
   [Value.number] / [Hot.fget]; the tier-0 interpreter oracle and the
   golden counter table guard the equivalence. *)
let[@inline] int_ i =
  if i >= Value.small_int_min && i <= Value.small_int_max then
    Array.unsafe_get Value.small_ints (i - Value.small_int_min)
  else Value.Int i

let[@inline] bool_ b = if b then Value.true_ else Value.false_

let[@inline] as_int = function Value.Int i -> i | v -> Value.to_int32 v

let[@inline] as_num = function
  | Value.Int i -> float_of_int i
  | Value.Num f -> f
  | v -> Value.to_number v

let[@inline] number f =
  if Float.is_integer f && Float.abs f <= 2147483647.0 && not (f = 0.0 && 1.0 /. f < 0.0)
  then int_ (int_of_float f)
  else Value.Num f

let[@inline] fget (a : float array) i =
  if Hot.checked then Array.get a i else Array.unsafe_get a i

(* Likewise for the register-file accessors: under -opaque every operand
   read/write would otherwise be an outlined call (several per executed
   instruction).  Inlined here, each site specializes to a direct load or
   store at the concrete array type. *)
let[@inline] get a i = if Hot.checked then Array.get a i else Array.unsafe_get a i
let[@inline] set a i v = if Hot.checked then Array.set a i v else Array.unsafe_set a i v

(* And for the check counters: the kind index is fixed at closure-compile
   time, so a hit is one array bump instead of a [Counters.add_check]
   call per executed check. *)
let ci_bounds = Counters.check_index L.Bounds
let ci_overflow = Counters.check_index L.Overflow
let ci_type = Counters.check_index L.Type
let ci_property = Counters.check_index L.Property
let ci_hole = Counters.check_index L.Hole
let ci_path = Counters.check_index L.Path

let[@inline] bump_check cnt ci =
  let a = cnt.Counters.checks in
  a.(ci) <- a.(ci) + 1

(* The rest of the per-instruction protocol, also same-module so it
   inlines: fuel, the transaction watchdog tick, the region predicate,
   int32-overflow materialization, and the instruction/cycle charge.
   [category_ix] maps the frame's transaction state (TMOpt inside its own
   region, TMUnopt inside someone else's, NoTM outside) straight to
   [Counters.category_index]; the index constants come from Counters, so
   the mapping cannot drift. *)
let[@inline] burn inst n =
  inst.Instance.fuel <- inst.Instance.fuel - n;
  if inst.Instance.fuel < 0 then raise Instance.Out_of_fuel

let[@inline] tx_tick env =
  match env.tx with
  | Some tx ->
    tx.Htm.instr_count <- tx.Htm.instr_count + 1;
    if tx.Htm.instr_count > env.tx_watchdog then raise (Htm.Abort Htm.Watchdog)
  | None -> ()

let[@inline] in_region env =
  match env.tx with Some _ -> true | None -> env.ghost_depth > 0

let[@inline] int_result env (overflowed : bool array) id raw =
  if raw >= Value.int32_min && raw <= Value.int32_max then int_ raw
  else begin
    set overflowed id true;
    (match env.tx with Some tx when env.sof_enabled -> tx.Htm.sof <- true | _ -> ());
    int_ (wrap_int32 raw)
  end

let ix_no_tm = Counters.category_index Counters.No_tm
let ix_tm_opt = Counters.category_index Counters.Tm_opt
let ix_tm_unopt = Counters.category_index Counters.Tm_unopt

let[@inline] category_ix env frame =
  match env.tx with
  | Some tx -> if frame = tx.Htm.owner_frame then ix_tm_opt else ix_tm_unopt
  | None ->
    if env.ghost_depth > 0 then
      if frame = env.ghost_owner then ix_tm_opt else ix_tm_unopt
    else ix_no_tm

let[@inline] bump_instrs cnt ix n =
  let a = cnt.Counters.instrs in
  a.(ix) <- a.(ix) + n

(* Charge [n] instructions whose cycle cost [delta] = [float_of_int n *.
   cpi] was computed at compile time. *)
let[@inline] charge env cnt ~frame n delta =
  bump_instrs cnt (category_ix env frame) n;
  let f = cnt.Counters.f in
  f.Counters.cycles <- f.Counters.cycles +. delta;
  if in_region env then f.Counters.tx_cycles <- f.Counters.tx_cycles +. delta

(** Per-activation state threaded through every closure.  [next_block] is
    the driver's program counter; -1 means the function returned. *)
type state = {
  values : Value.t array;
  overflowed : bool array;
  mutable this : Value.t;
  mutable argv : Value.t array;
  mutable nargs : int;
  mutable frame : int;
  mutable prev_block : int;
  mutable next_block : int;
  mutable result : Value.t;
  mutable due : int;
      (** deferred-accounting progress within the executing segment: number
          of leading segment instructions whose instr/cycle charges must be
          reconciled if the segment raises (see the module doc) *)
}

type code = state -> unit

type tfunc = {
  t_entry : int;
  t_blocks : code array;  (** per-block entry closure (phis + body + term) *)
  t_nvalues : int;
  t_tier : tier;
  t_engine : Engine.kind;
  mutable t_pool : state list;
      (** activation-frame free list: a normal return scrubs its frame
          (values/overflowed reset to the fresh-frame state) and parks it
          here; frames abandoned by a deopt/abort/error are simply dropped.
          Recursion is safe — a frame in use is never simultaneously in the
          pool. *)
}

type Specialize.artifact += Threaded_code of tfunc

let compile_func env ~tier ~engine (d : D.t) : tfunc =
  let cpi = cpi_of tier in
  let inst = env.instance in
  let heap = inst.Instance.heap in
  let cnt = env.counters in
  let fcnt = cnt.Counters.f in
  (* The semantics of one instruction, continuation-passing into [next].
     No accounting here — the caller bakes the charging protocol around
     it. *)
  let sem_only (di : D.dinstr) (next : code) : code =
    let v = di.D.id in
    let el = di.D.elided in
    match di.D.kind with
    | L.Nop | L.Phi _ -> fun st -> next st
    | L.Param r ->
      if r = 0 then
        fun st ->
          set st.values v st.this;
          next st
      else
        fun st ->
          set st.values v
            (if r - 1 < st.nargs then get st.argv (r - 1) else Value.Undef);
          next st
    | L.Const c ->
      fun st ->
        set st.values v c;
        next st
    | L.Iadd (a, b) ->
      fun st ->
        set st.values v
          (int_result env st.overflowed v
             (as_int (get st.values a) + as_int (get st.values b)));
        next st
    | L.Isub (a, b) ->
      fun st ->
        set st.values v
          (int_result env st.overflowed v
             (as_int (get st.values a) - as_int (get st.values b)));
        next st
    | L.Iadd_wrap (a, b) ->
      fun st ->
        set st.values v
          (int_ (wrap_int32 (as_int (get st.values a) + as_int (get st.values b))));
        next st
    | L.Isub_wrap (a, b) ->
      fun st ->
        set st.values v
          (int_ (wrap_int32 (as_int (get st.values a) - as_int (get st.values b))));
        next st
    | L.Imul (a, b) ->
      fun st ->
        set st.values v
          (int_result env st.overflowed v
             (as_int (get st.values a) * as_int (get st.values b)));
        next st
    | L.Ineg a ->
      fun st ->
        let x = as_int (get st.values a) in
        (* -0 and -int32_min are not int32-representable results. *)
        if x = 0 || x = Value.int32_min then begin
          set st.overflowed v true;
          (match env.tx with
          | Some tx when env.sof_enabled -> tx.Htm.sof <- true
          | _ -> ());
          set st.values v (int_ (wrap_int32 (-x)))
        end
        else set st.values v (int_ (-x));
        next st
    | L.Fadd (a, b) ->
      fun st ->
        set st.values v
          (number (as_num (get st.values a) +. as_num (get st.values b)));
        next st
    | L.Fsub (a, b) ->
      fun st ->
        set st.values v
          (number (as_num (get st.values a) -. as_num (get st.values b)));
        next st
    | L.Fmul (a, b) ->
      fun st ->
        set st.values v
          (number (as_num (get st.values a) *. as_num (get st.values b)));
        next st
    | L.Fdiv (a, b) ->
      fun st ->
        set st.values v
          (number (as_num (get st.values a) /. as_num (get st.values b)));
        next st
    | L.Fmod (a, b) ->
      fun st ->
        set st.values v
          (number (Float.rem (as_num (get st.values a)) (as_num (get st.values b))));
        next st
    | L.Fneg a ->
      fun st ->
        set st.values v (number (-.as_num (get st.values a)));
        next st
    | L.Band (a, b) ->
      fun st ->
        set st.values v
          (int_ (wrap_int32 (as_int (get st.values a) land as_int (get st.values b))));
        next st
    | L.Bor (a, b) ->
      fun st ->
        set st.values v
          (int_ (wrap_int32 (as_int (get st.values a) lor as_int (get st.values b))));
        next st
    | L.Bxor (a, b) ->
      fun st ->
        set st.values v
          (int_ (wrap_int32 (as_int (get st.values a) lxor as_int (get st.values b))));
        next st
    | L.Bnot a ->
      fun st ->
        set st.values v (int_ (wrap_int32 (lnot (as_int (get st.values a)))));
        next st
    | L.Shl (a, b) ->
      fun st ->
        set st.values v
          (int_
             (wrap_int32 (as_int (get st.values a) lsl (as_int (get st.values b) land 31))));
        next st
    | L.Shr (a, b) ->
      fun st ->
        set st.values v
          (int_ (as_int (get st.values a) asr (as_int (get st.values b) land 31)));
        next st
    | L.Ushr (a, b) ->
      fun st ->
        set st.values v (Ops.js_ushr (get st.values a) (get st.values b));
        next st
    (* One closure per comparator: the dispatch on [c] happens at compile
       time and the float compare stays local (unboxed) in each body. *)
    | L.Cmp (L.Ceq, a, b) ->
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) = as_num (get st.values b)));
        next st
    | L.Cmp (L.Cne, a, b) ->
      (* JS: NaN != anything is true *)
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) <> as_num (get st.values b)));
        next st
    | L.Cmp (L.Clt, a, b) ->
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) < as_num (get st.values b)));
        next st
    | L.Cmp (L.Cle, a, b) ->
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) <= as_num (get st.values b)));
        next st
    | L.Cmp (L.Cgt, a, b) ->
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) > as_num (get st.values b)));
        next st
    | L.Cmp (L.Cge, a, b) ->
      fun st ->
        set st.values v
          (bool_ (as_num (get st.values a) >= as_num (get st.values b)));
        next st
    | L.Not a ->
      fun st ->
        set st.values v (bool_ (not (Value.truthy (get st.values a))));
        next st
    | L.Load_slot (o, slot) ->
      fun st ->
        (match get st.values o with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          set st.values v (Heap.load_slot heap obj slot)
        | _ -> set st.values v Value.Undef);
        next st
    | L.Store_slot (o, slot, x) ->
      fun st ->
        (match get st.values o with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          Heap.store_slot heap obj slot (get st.values x)
        | _ -> ());
        next st
    | L.Store_transition (o, name, slot, x) ->
      fun st ->
        (match get st.values o with
        | Value.Obj obj ->
          (* The guarding shape check ran just before; resolve the
             (memoized, site-cached) transition and install shape + value. *)
          let new_shape = ic_transition env heap di.D.ic obj name in
          if new_shape.Shape.prop_count - 1 = slot then
            Heap.transition_store heap obj new_shape slot (get st.values x)
          else
            (* Shape drifted (possible only in a doomed transaction). *)
            Heap.set_prop heap obj name (get st.values x)
        | _ -> ());
        next st
    | L.Load_elem (a, i') ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          set st.values v (Heap.load_elem heap arr (as_int (get st.values i')))
        | _ -> set st.values v Value.Undef);
        next st
    | L.Store_elem (a, i', x) ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          Heap.store_elem heap arr (as_int (get st.values i')) (get st.values x)
        | _ -> ());
        next st
    | L.Load_length a ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          Heap.note_load heap arr.Value.aaddr 8;
          set st.values v (int_ arr.Value.alen)
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Str_length a ->
      fun st ->
        (match get st.values a with
        | Value.Str s -> set st.values v (int_ (String.length s.Value.sdata))
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Load_char_code (s, i') ->
      fun st ->
        (match get st.values s with
        | Value.Str str ->
          set st.values v
            (int_ (Ops.string_char_code heap str (as_int (get st.values i'))))
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Load_global g ->
      fun st ->
        set st.values v inst.Instance.globals.(g);
        next st
    | L.Store_global (g, x) ->
      fun st ->
        inst.Instance.globals.(g) <- get st.values x;
        next st
    (* Elided checks (NoMap_BC) guard exactly as charged ones do, but
       model zero hardware instructions: no check-category count, no
       cache-visible load of the metadata they test. *)
    | L.Check_int (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Int _ ->
          if not el then bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_number (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Int _ | Value.Num _ ->
          if not el then bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_string (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Str _ ->
          if not el then bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_array (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Arr _ ->
          if not el then bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_shape (a, shape_id, e) ->
      fun st ->
        (match get st.values a with
        | Value.Obj o when o.Value.shape.Shape.id = shape_id ->
          if not el then begin
            Heap.note_load heap o.Value.oaddr 8;
            bump_check cnt ci_property
          end;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Property);
        next st
    | L.Check_fun_eq (a, fid, e) ->
      fun st ->
        (match get st.values a with
        | Value.Fun f when f = fid ->
          if not el then bump_check cnt ci_path;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Path);
        next st
    | L.Check_bounds (a, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values a with
         | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
           if not el then begin
             Heap.note_load heap arr.Value.aaddr 8;
             bump_check cnt ci_bounds
           end;
           set st.values v (int_ idx)
         | _ -> check_fail env st.values e L.Bounds);
        next st
    | L.Check_str_bounds (s, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values s with
         | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
           if not el then bump_check cnt ci_bounds;
           set st.values v (int_ idx)
         | _ -> check_fail env st.values e L.Bounds);
        next st
    | L.Check_not_hole (a, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values a with
         | Value.Arr arr
           when idx >= 0
                && idx < Array.length arr.Value.elems
                && (match Heap.load_elem heap arr idx with Value.Hole -> false | _ -> true) ->
           if not el then bump_check cnt ci_hole;
           set st.values v (int_ idx)
         | _ -> check_fail env st.values e L.Hole);
        next st
    | L.Check_overflow (a, e) ->
      fun st ->
        if get st.overflowed a then check_fail env st.values e L.Overflow
        else begin
          if not el then bump_check cnt ci_overflow;
          set st.values v (get st.values a)
        end;
        next st
    | L.Check_cond (a, expected, e) ->
      fun st ->
        if Value.truthy (get st.values a) = expected then begin
          if not el then bump_check cnt ci_path;
          set st.values v (get st.values a)
        end
        else check_fail env st.values e L.Path;
        next st
    | L.Call_func (fid, _) ->
      let args = di.D.args in
      fun st ->
        set st.values v (env.call ~fid ~this:Value.Undef ~args:(arg_values st.values args));
        next st
    | L.Call_method (fid, thisv, _) ->
      let args = di.D.args in
      fun st ->
        set st.values v
          (env.call ~fid ~this:(get st.values thisv) ~args:(arg_values st.values args));
        next st
    | L.Ctor_call (fid, _) ->
      let args = di.D.args in
      fun st ->
        let obj = Value.Obj (Heap.alloc_object heap) in
        let r = env.call ~fid ~this:obj ~args:(arg_values st.values args) in
        set st.values v (match r with Value.Undef -> obj | x -> x);
        next st
    | L.Call_runtime (rt, recv, _) ->
      let args = di.D.args in
      let ic = di.D.ic in
      fun st ->
        set st.values v (exec_runtime env ~ic rt (get st.values recv) args st.values);
        next st
    | L.Intrinsic (intr, _) ->
      let args = di.D.args in
      let ftl_c, rt_c = intrinsic_cost intr in
      let ftl_delta = float_of_int ftl_c *. cpi in
      fun st ->
        if not el then begin
          if ftl_c > 0 then charge env cnt ~frame:st.frame ftl_c ftl_delta;
          charge_runtime env rt_c
        end;
        set st.values v (eval_intrinsic heap intr Value.Undef args st.values);
        next st
    | L.Alloc_object ->
      fun st ->
        set st.values v (Value.Obj (Heap.alloc_object heap));
        next st
    | L.Alloc_array len ->
      fun st ->
        let n = as_int (get st.values len) in
        if n < 0 || n > 1 lsl 24 then begin
          match env.tx with
          | Some _ -> raise (Htm.Abort Htm.Watchdog)
          | None -> raise (Nomap_interp.Interp.Runtime_error "bad array length")
        end;
        set st.values v (Value.Arr (Heap.alloc_array heap n));
        next st
    | L.Tx_begin smp ->
      fun st ->
        exec_tx_begin env st.values ~frame:st.frame smp;
        next st
    | L.Tx_end ->
      fun st ->
        exec_tx_end env;
        next st
  in
  (* A solo closure: the per-instruction protocol with the free /
     zero-cost / charged decision and the CPI multiply resolved at compile
     time. *)
  let solo (di : D.dinstr) (next : code) : code =
    let free = di.D.elided || (di.D.is_tx_marker && env.htm_mode = Htm.Ghost) in
    let cost = di.D.cost in
    let delta = float_of_int cost *. cpi in
    let sem = sem_only di next in
    if free then
      fun st ->
        burn inst 1;
        sem st
    else if cost = 0 then
      fun st ->
        burn inst 1;
        tx_tick env;
        sem st
    else
      fun st ->
        burn inst 1;
        tx_tick env;
        charge env cnt ~frame:st.frame cost delta;
        sem st
  in
  (* Segment membership: everything except the instructions that change
     the category/in-region state or re-enter the VM (whose charge
     protocols differ and whose callees run arbitrary code). *)
  let seg_able (di : D.dinstr) =
    match di.D.kind with
    | L.Call_func _ | L.Call_method _ | L.Ctor_call _ | L.Call_runtime _ | L.Intrinsic _
    | L.Tx_begin _ | L.Tx_end ->
      false
    | _ -> true
  in
  let unit_code : code = fun _ -> () in
  (* One deferred-accounting segment over [run] (see the module doc):
     burn/tick batched up front, semantics chained, instr/cycle charges
     applied once at the end, with an exception guard reconciling the
     exact charged prefix if an instruction deopts/aborts mid-segment and
     an exact per-instruction fallback when the batched tick could cross
     the transaction watchdog.

     A segment that runs to the end of the block additionally absorbs the
     terminator's 1-instruction charge into its batched apply ([fold_term]):
     terminators charge but never burn fuel or tick the transaction, the
     category/in-tx flag cannot change between the segment's last
     instruction and the terminator (no calls or tx markers in between),
     and appending the terminator's cycle delta last preserves the
     per-instruction accumulation order.  The watchdog fallback and any
     mid-segment raise never reach the terminator, so those paths keep the
     self-charging [term]. *)
  let rec compile_seq (body : D.dinstr array) i ~(term : code) ~(term_free : code) :
      code =
    if i >= Array.length body then term
    else if engine = Engine.Decoded || not (seg_able (get body i)) then
      solo (get body i) (compile_seq body (i + 1) ~term ~term_free)
    else begin
      let n_body = Array.length body in
      let j = ref (i + 1) in
      while !j < n_body && seg_able (get body !j) do incr j done;
      let run = Array.sub body i (!j - i) in
      if !j >= n_body && Array.length run > 1 then
        compile_segment run ~next:term_free ~slow_next:term ~fold_term:true
      else begin
        let rest = compile_seq body !j ~term ~term_free in
        compile_segment run ~next:rest ~slow_next:rest ~fold_term:false
      end
    end
  and compile_segment (run : D.dinstr array) ~(next : code) ~(slow_next : code)
      ~fold_term : code =
    let n = Array.length run in
    if n = 1 then solo (get run 0) slow_next
    else begin
      let n_tick = ref 0 and total_cost = ref 0 in
      Array.iter
        (fun di ->
          if not di.D.elided then begin
            incr n_tick;
            total_cost := !total_cost + di.D.cost
          end)
        run;
      let n_tick = !n_tick and total_cost = !total_cost + if fold_term then 1 else 0 in
      let deltas =
        run |> Array.to_list
        |> List.filter_map (fun di ->
               if (not di.D.elided) && di.D.cost > 0 then
                 Some (float_of_int di.D.cost *. cpi)
               else None)
        |> (fun ds -> if fold_term then ds @ [ cpi ] else ds)
        |> Array.of_list
      in
      let n_deltas = Array.length deltas in
      (* cost_prefix.(k) / dcount_prefix.(k): summed cost and cycle-delta
         count charged by per-instruction accounting after the segment's first
         [k] instructions — what reconciliation owes at [st.due = k]. *)
      let cost_prefix = Array.make (n + 1) 0 in
      let dcount_prefix = Array.make (n + 1) 0 in
      for k = 0 to n - 1 do
        let di = get run k in
        let c = if di.D.elided then 0 else di.D.cost in
        cost_prefix.(k + 1) <- cost_prefix.(k) + c;
        dcount_prefix.(k + 1) <- (dcount_prefix.(k) + if c > 0 then 1 else 0)
      done;
      let any_raiser = Array.exists (fun di -> not di.D.pure) run in
      (* The semantic chain: raisers record their due prefix first; pure
         instructions cannot raise and skip the bookkeeping. *)
      let rec build k : code =
        if k >= n then unit_code
        else
          let di = get run k in
          let s = sem_only di (build (k + 1)) in
          if di.D.pure then s
          else begin
            let due = k + 1 in
            fun st ->
              st.due <- due;
              s st
          end
      in
      let sems = build 0 in
      let slow = Array.fold_right solo run slow_next in
      let apply st =
        if total_cost > 0 then begin
          bump_instrs cnt (category_ix env st.frame) total_cost;
          if in_region env then
            for x = 0 to n_deltas - 1 do
              let c = fget deltas x in
              fcnt.Counters.cycles <- fcnt.Counters.cycles +. c;
              fcnt.Counters.tx_cycles <- fcnt.Counters.tx_cycles +. c
            done
          else
            for x = 0 to n_deltas - 1 do
              fcnt.Counters.cycles <- fcnt.Counters.cycles +. fget deltas x
            done
        end
      in
      let reconcile st =
        let due = st.due in
        let c = get cost_prefix due in
        if c > 0 then begin
          bump_instrs cnt (category_ix env st.frame) c;
          let dk = get dcount_prefix due in
          if in_region env then
            for x = 0 to dk - 1 do
              let cd = fget deltas x in
              fcnt.Counters.cycles <- fcnt.Counters.cycles +. cd;
              fcnt.Counters.tx_cycles <- fcnt.Counters.tx_cycles +. cd
            done
          else
            for x = 0 to dk - 1 do
              fcnt.Counters.cycles <- fcnt.Counters.cycles +. fget deltas x
            done
        end
      in
      if not any_raiser then
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > env.tx_watchdog then slow st
            else begin
              burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              sems st;
              apply st;
              next st
            end
          | _ ->
            burn inst n;
            sems st;
            apply st;
            next st
      else
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > env.tx_watchdog then slow st
            else begin
              burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              st.due <- 0;
              (try sems st
               with e ->
                 reconcile st;
                 raise e);
              apply st;
              next st
            end
          | _ ->
            burn inst n;
            st.due <- 0;
            (try sems st
             with e ->
               reconcile st;
               raise e);
            apply st;
            next st
    end
  in
  (* Terminator effect only — the 1-instruction charge is folded into a
     preceding segment's apply when possible, or wrapped on by the caller. *)
  let compile_term bid (t : L.terminator) : code =
    match t with
    | L.Jump tgt ->
      fun st ->
        st.prev_block <- bid;
        st.next_block <- tgt
    | L.Br (cv, bt, bf) ->
      fun st ->
        st.prev_block <- bid;
        st.next_block <- (if Value.truthy (get st.values cv) then bt else bf)
    | L.Ret (Some rv) ->
      fun st ->
        st.result <- get st.values rv;
        st.next_block <- -1
    | L.Ret None -> fun st -> st.next_block <- -1
    | L.Unreachable ->
      fun _ -> raise (Nomap_interp.Interp.Runtime_error "reached unreachable block")
  in
  (* Phis: the pre-resolved copy table for the incoming edge, applied as a
     parallel assignment (read phase, then write phase) before the body —
     using the decoded function's scratch buffer. *)
  let with_phis (edges : D.phi_edge array) (body : code) : code =
    let scratch = d.D.scratch in
    let n_edges = Array.length edges in
    (* The edge scan is a plain loop: a local [let rec] capturing the
       incoming block would be a fresh closure on every block entry. *)
    fun st ->
      let prev = st.prev_block in
      let ei = ref (-1) in
      let i = ref 0 in
      while !ei < 0 && !i < n_edges do
        if (get edges !i).D.pred = prev then ei := !i else incr i
      done;
      let ei = !ei in
      if ei >= 0 then begin
        let e = get edges ei in
        let dsts = e.D.dsts and srcs = e.D.srcs in
        let np = Array.length dsts in
        for i = 0 to np - 1 do
          set scratch i (get st.values (get srcs i))
        done;
        for i = 0 to np - 1 do
          set st.values (get dsts i) (get scratch i)
        done
      end;
      body st
  in
  let t_blocks =
    Array.mapi
      (fun bid (b : D.dblock) ->
        let term_free = compile_term bid b.D.dterm in
        let term st =
          charge env cnt ~frame:st.frame 1 cpi;
          term_free st
        in
        let body = compile_seq b.D.body 0 ~term ~term_free in
        if Array.length b.D.phi_edges = 0 then body else with_phis b.D.phi_edges body)
      d.D.dblocks
  in
  {
    t_entry = d.D.entry;
    t_blocks;
    t_nvalues = d.D.nvalues;
    t_tier = tier;
    t_engine = engine;
    t_pool = [];
  }

(** The compiled code for [c] under [engine]'s accounting mode, compiled
    on first execution and cached on the compiled record. *)
let threaded env (c : Specialize.compiled) ~tier ~engine : tfunc =
  match c.Specialize.engine_code with
  | Some (Threaded_code tf) when tf.t_tier = tier && tf.t_engine = engine -> tf
  | _ ->
    let tf = compile_func env ~tier ~engine (decoded c) in
    c.Specialize.engine_code <- Some (Threaded_code tf);
    tf

let exec_func env (c : Specialize.compiled) ~tier ~engine ~this ~args : Value.t =
  let tf = threaded env c ~tier ~engine in
  let frame = enter_call env ~tier in
  let argv = Array.of_list args in
  let st =
    match tf.t_pool with
    | st :: rest ->
      (* Pooled frames were scrubbed on release, so this is exactly the
         fresh-frame state (values Undef, overflowed false). *)
      tf.t_pool <- rest;
      st.this <- this;
      st.argv <- argv;
      st.nargs <- Array.length argv;
      st.frame <- frame;
      st.prev_block <- -1;
      st.next_block <- tf.t_entry;
      st.result <- Value.Undef;
      st.due <- 0;
      st
    | [] ->
      let n = max 1 tf.t_nvalues in
      {
        values = Array.make n Value.Undef;
        overflowed = Array.make n false;
        this;
        argv;
        nargs = Array.length argv;
        frame;
        prev_block = -1;
        next_block = tf.t_entry;
        result = Value.Undef;
        due = 0;
      }
  in
  let blocks = tf.t_blocks in
  let run () =
    while st.next_block >= 0 do
      (get blocks st.next_block) st
    done;
    let r = st.result in
    (* Normal return: scrub and park the frame.  A raise (deopt, abort,
       runtime error, out-of-fuel) skips this and the frame is dropped. *)
    Array.fill st.values 0 (Array.length st.values) Value.Undef;
    Array.fill st.overflowed 0 (Array.length st.overflowed) false;
    st.this <- Value.Undef;
    st.argv <- [||];
    st.result <- Value.Undef;
    tf.t_pool <- st :: tf.t_pool;
    r
  in
  run_with_exits env ~fid:c.Specialize.lir.L.fid ~frame run
