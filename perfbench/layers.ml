(** Per-layer measurements for the traced run, each timing calls into one
    library's public entry point from outside.  Every timing is the median
    of [reps] repetitions. *)

open Common
module Registry = Nomap_workloads.Registry
module Experiments = Nomap_harness.Experiments
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Transform = Nomap_nomap.Transform
module Txplace = Nomap_nomap.Txplace
module Pipeline = Nomap_opt.Pipeline
module Specialize = Nomap_tiers.Specialize
module Lir = Nomap_lir.Lir
module Decode = Nomap_lir.Decode
module Machine = Nomap_machine.Machine
module Counters = Nomap_machine.Counters
module Interp = Nomap_interp.Interp
module Instance = Nomap_interp.Instance
module Feedback = Nomap_profile.Feedback
module Opcode = Nomap_bytecode.Opcode
module Compile = Nomap_bytecode.Compile
module Parser = Nomap_jsir.Parser
module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Htm = Nomap_htm.Htm
module Cache = Nomap_cache.Cache
module Footprint = Nomap_cache.Footprint
module Agents = Nomap_agents.Agents
module Interleave = Nomap_shared.Interleave
module Prng = Nomap_util.Prng

(** Repetitions per timing (1 in the self-test's tiny runs). *)
let reps = ref 3

(** Median over [reps] runs of [f]'s duration in ns. *)
let median_ns f =
  median (List.init !reps (fun _ -> float_of_int (snd (timed f))))

(* ------------------------------------------------------------------ *)
(* Frontend: jsir and bytecode *)

let frontend kernels =
  let sources = List.map (fun (b : Registry.benchmark) -> b.Registry.source) kernels in
  let parse () = List.map (fun s -> Parser.parse_program_exn s) sources in
  let asts = parse () in
  metric "jsir.parse_us" "us" (median_ns (fun () -> ignore (parse ())) /. 1e3);
  metric "jsir.source_kb" "KiB"
    (float_of_int (List.fold_left (fun acc s -> acc + String.length s) 0 sources) /. 1024.0);
  let compile () = List.map Compile.compile_program asts in
  let progs = compile () in
  metric "bytecode.compile_us" "us" (median_ns (fun () -> ignore (compile ())) /. 1e3);
  metric "bytecode.ops" "count"
    (float_of_int
       (List.fold_left
          (fun acc (p : Opcode.program) ->
            Array.fold_left (fun acc (f : Opcode.func) -> acc + Array.length f.Opcode.code) acc p.Opcode.funcs)
          0 progs))

(** [Vm.create] plus [run_main] on each kernel's cached program (Base). *)
let vm_create kernels =
  let progs = List.map Registry.compile kernels in
  metric "vm.create_us" "us"
    (median_ns (fun () ->
         List.iter
           (fun p ->
             let vm = Vm.create ~config:(Config.create Config.Base) ~tier_cap:Vm.Cap_ftl p in
             ignore (Vm.run_main vm))
           progs)
    /. 1e3)

(* ------------------------------------------------------------------ *)
(* Interpreter tiers, then the JIT pipeline over the feedback Baseline
   collected *)

type profiled = { prog : Opcode.program; inst : Instance.t; fb : Feedback.t }

(** One [benchmark()] call per kernel under [Interp.call_function] in
    [mode]; returns (ns, ops charged) for the calls and, in Baseline mode,
    the profiles they collected. *)
let interp_tier mode kernels =
  List.fold_left
    (fun (ns, ops, profs) (b : Registry.benchmark) ->
      let prog = Registry.compile b in
      let inst = Instance.create prog in
      let fb = Feedback.create prog in
      let count = ref 0 in
      let rec env =
        {
          Interp.instance = inst;
          mode;
          profile = (if mode = Interp.Baseline_tier then Some fb else None);
          charge = (fun _ -> incr count);
          call = (fun ~fid ~this ~args -> Interp.call_function env ~fid ~this ~args);
        }
      in
      ignore (Interp.call_function env ~fid:prog.Opcode.main_fid ~this:Value.Undef ~args:[]);
      let f = Option.get (Opcode.func_by_name prog "benchmark") in
      count := 0;
      let v, dt =
        timed (fun () -> Interp.call_function env ~fid:f.Opcode.fid ~this:Value.Undef ~args:[])
      in
      expect ~what:("interp " ^ b.Registry.id) ~expected:(Steady.reference b) (Value.to_js_string v);
      (ns + dt, ops + !count, { prog; inst; fb } :: profs))
    (0, 0, []) kernels

let interp kernels =
  let per_op mode =
    let samples = List.init !reps (fun _ -> interp_tier mode kernels) in
    let ns_per_op = List.map (fun (ns, ops, _) -> float_of_int ns /. float_of_int (max 1 ops)) samples in
    let _, _, profs = List.hd samples in
    (median ns_per_op, profs)
  in
  let interp_ns, _ = per_op Interp.Interp_tier in
  let baseline_ns, profs = per_op Interp.Baseline_tier in
  metric "interp.ns_per_op.interp" "ns" interp_ns;
  metric "interp.ns_per_op.baseline" "ns" baseline_ns;
  profs

let tx_archs = [ Config.NoMap_full; Config.NoMap_RTM; Config.NoMap_RTM_STM ]

(* Pass labels: a pass that runs twice gets "-2" on its second run. *)
let pass_labels =
  let seen = Hashtbl.create 8 in
  List.map
    (fun (p : Pipeline.pass) ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen p.Pipeline.name) in
      Hashtbl.replace seen p.Pipeline.name n;
      if n = 1 then p.Pipeline.name else Printf.sprintf "%s-%d" p.Pipeline.name n)
    Pipeline.ftl_passes

type jit_sample = {
  mutable specialize_ns : int;
  mutable specialized_instrs : int;
  transform_ns : int array;  (** per [tx_archs] entry *)
  pass_ns : int array;  (** per [Pipeline.ftl_passes] entry *)
  pass_applied : int array;
  mutable ftl_instrs : int;
  mutable decode_ns : int;
  stats : Transform.stats;  (** NoMap's *)
}

(** Specialize every profiled function, then per transactional arch run the
    NoMap transform; under NoMap also each FTL pass and the decoder. *)
let jit_once profs =
  let passes = Array.of_list Pipeline.ftl_passes in
  let s =
    {
      specialize_ns = 0;
      specialized_instrs = 0;
      transform_ns = Array.make (List.length tx_archs) 0;
      pass_ns = Array.make (Array.length passes) 0;
      pass_applied = Array.make (Array.length passes) 0;
      ftl_instrs = 0;
      decode_ns = 0;
      stats = Transform.empty_stats ();
    }
  in
  let compile_func p (bc : Opcode.func) =
    let fid = bc.Opcode.fid in
    let fp = Feedback.func_profile p.fb fid in
    let specialize () = Specialize.compile ~bc ~consts:p.inst.Instance.consts.(fid) ~profile:fp in
    let c, dt = timed specialize in
    s.specialize_ns <- s.specialize_ns + dt;
    s.specialized_instrs <- s.specialized_instrs + Lir.all_instrs_count c.Specialize.lir;
    List.iteri
      (fun a arch ->
        let nomap = arch = Config.NoMap_full in
        let c = specialize () in
        let stats = if nomap then s.stats else Transform.empty_stats () in
        let _, dt =
          timed (fun () -> Transform.apply (Config.create arch) ~placement:Txplace.Auto ~profile:fp ~stats c)
        in
        s.transform_ns.(a) <- s.transform_ns.(a) + dt;
        if nomap then begin
          let lir = c.Specialize.lir in
          Array.iteri
            (fun i (pass : Pipeline.pass) ->
              let applied, dt = timed (fun () -> pass.Pipeline.run lir) in
              s.pass_ns.(i) <- s.pass_ns.(i) + dt;
              s.pass_applied.(i) <- s.pass_applied.(i) + applied)
            passes;
          let _, dt = timed (fun () -> Decode.decode ~cost:Machine.base_cost lir) in
          s.decode_ns <- s.decode_ns + dt;
          s.ftl_instrs <- s.ftl_instrs + Lir.all_instrs_count lir
        end)
      tx_archs
  in
  List.iter
    (fun p ->
      Array.iter
        (fun (bc : Opcode.func) ->
          if bc.Opcode.fid <> p.prog.Opcode.main_fid
             && (Feedback.func_profile p.fb bc.Opcode.fid).Feedback.call_count > 0
          then compile_func p bc)
        p.prog.Opcode.funcs)
    profs;
  s

let jit profs =
  let samples = List.init !reps (fun _ -> jit_once profs) in
  let med f = median (List.map (fun s -> float_of_int (f s)) samples) in
  let first = List.hd samples in
  metric "tiers.specialize_us" "us" (med (fun s -> s.specialize_ns) /. 1e3);
  metric "lir.instrs.specialized" "count" (float_of_int first.specialized_instrs);
  List.iteri
    (fun a arch ->
      metric ("nomap.transform_us." ^ Config.name arch) "us" (med (fun s -> s.transform_ns.(a)) /. 1e3))
    tx_archs;
  let st = first.stats in
  metric "nomap.regions" "count" (float_of_int (st.Transform.regions_whole + st.Transform.regions_per_iter));
  metric "nomap.bounds_combined" "count" (float_of_int st.Transform.bounds_combined);
  metric "nomap.overflow_removed" "count" (float_of_int st.Transform.overflow_removed);
  List.iteri
    (fun i label ->
      metric (Printf.sprintf "opt.%s_us" label) "us" (med (fun s -> s.pass_ns.(i)) /. 1e3);
      metric (Printf.sprintf "opt.%s.applied" label) "count" (float_of_int first.pass_applied.(i)))
    pass_labels;
  metric "lir.instrs.ftl" "count" (float_of_int first.ftl_instrs);
  metric "lir.decode_us" "us" (med (fun s -> s.decode_ns) /. 1e3)

(* ------------------------------------------------------------------ *)
(* HTM, cache and footprint models *)

(* The scaled L1 the RTM write set must fit: 32 KB / capacity_scale. *)
let l1_words = 32 * 1024 / Config.capacity_scale / Heap.word_bytes

(** ns per transactional store: [Htm.begin_tx], [words] element stores,
    then [commit]. *)
let tx_store_ns ?stm_fallback ~mode ~words () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap words in
  let rounds = max 1 (200_000 / words) in
  median_ns (fun () ->
      for r = 1 to rounds do
        let tx =
          Htm.begin_tx ~capacity_scale:Config.capacity_scale ?stm_fallback heap ~mode ~snapshot:[]
            ~resume_pc:0 ~owner_frame:0
        in
        for i = 0 to words - 1 do
          Heap.store_elem heap arr i (Value.Int (i + r))
        done;
        Htm.commit tx
      done)
  /. float_of_int (rounds * words)

let htm () =
  let fit = l1_words / 2 and spill = 4 * l1_words in
  metric "htm.tx_store_ns.rot" "ns" (tx_store_ns ~mode:Htm.Rot ~words:fit ());
  metric "htm.tx_store_ns.rtm" "ns" (tx_store_ns ~mode:Htm.Rtm ~words:fit ());
  metric "htm.tx_store_ns.stm" "ns"
    (tx_store_ns ~stm_fallback:(fun _ -> ()) ~mode:Htm.Rtm ~words:spill ());
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap spill in
  let rollback_ns =
    List.init (!reps * 10) (fun r ->
        let tx =
          Htm.begin_tx ~capacity_scale:Config.capacity_scale heap ~mode:Htm.Rot ~snapshot:[]
            ~resume_pc:0 ~owner_frame:0
        in
        for i = 0 to spill - 1 do
          Heap.store_elem heap arr i (Value.Int (i + r))
        done;
        float_of_int (snd (timed (fun () -> Htm.rollback tx))))
  in
  metric "htm.rollback_us" "us" (median rollback_ns /. 1e3)

let cache ~seed =
  let stream ws =
    let prng = Prng.create ~seed in
    Array.init 200_000 (fun _ -> Prng.int prng ws land lnot 7)
  in
  let per_access ws =
    let addrs = stream ws in
    let c = Cache.l1d () in
    median_ns (fun () -> Array.iter (fun a -> ignore (Cache.access c a)) addrs)
    /. float_of_int (Array.length addrs)
  in
  metric "cache.access_ns.fit" "ns" (per_access (16 * 1024));
  metric "cache.access_ns.spill" "ns" (per_access (128 * 1024));
  let addrs = stream (l1_words * Heap.word_bytes / 2) in
  let fp = Footprint.l1d ~scale:Config.capacity_scale () in
  metric "footprint.touch_ns" "ns"
    (median_ns (fun () ->
         Footprint.clear fp;
         Array.iter (fun a -> ignore (Footprint.touch fp ~addr:a ~bytes:8)) addrs)
    /. float_of_int (Array.length addrs))

(* ------------------------------------------------------------------ *)
(* Multi-agent runtime *)

(** [Agents.run] with 2 agents under the seeded scheduler, on the
    shared-counter and sharded kernels; every run must apply exactly its
    adds. *)
let agents ~seed =
  let kernels = [ ("shared-counter", [| 0; 0 |]); ("sharded", [| 0; 8 |]) ] in
  let sample () =
    List.fold_left
      (fun (ns, commits, conflicts) (name, idxs) ->
        let progs = Array.map (fun i -> Compile.compile_source (Experiments.contention_src i)) idxs in
        let r, dt =
          timed (fun () ->
              Agents.run ~policy:(Interleave.Seeded seed) ~config:(Config.create Config.NoMap_RTM)
                ~tier_cap:Vm.Cap_ftl progs)
        in
        expect ~what:("agents " ^ name) ~expected:(string_of_int (240 * Array.length idxs))
          (string_of_int (Array.fold_left ( + ) 0 r.Agents.segment_data));
        let c =
          Array.fold_left
            (fun acc (o : Agents.outcome) ->
              match o.Agents.vm with Some vm -> acc + (Vm.counters vm).Counters.tx_commits | None -> acc)
            0 r.Agents.outcomes
        in
        (ns + dt, commits + c, conflicts + r.Agents.conflicts))
      (0, 0, 0) kernels
  in
  let samples = List.init !reps (fun _ -> sample ()) in
  let _, commits, conflicts = List.hd samples in
  metric "agents.run_ms" "ms" (median (List.map (fun (ns, _, _) -> ms_of_ns ns) samples));
  metric "agents.conflict_aborts" "count" (float_of_int conflicts);
  metric "agents.commit_ratio" "ratio" (float_of_int commits /. float_of_int (max 1 (commits + conflicts)))
