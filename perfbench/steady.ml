(** Steady-state suite rounds: every SunSpider and Kraken kernel on its own
    live VM per architecture, warmed to FTL during set-up; a round calls
    each VM's [benchmark()] once, in seeded order. *)

open Common
module Registry = Nomap_workloads.Registry
module Runner = Nomap_harness.Runner
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value
module Prng = Nomap_util.Prng

(** The self-test's tiny rounds run two of the lightest kernels instead. *)
let tiny = ref false

let tiny_ids = [ "S12"; "K09" ]

let kernels () =
  if !tiny then List.filter (fun (b : Registry.benchmark) -> List.mem b.Registry.id tiny_ids) Registry.all
  else Registry.sunspider @ Registry.kraken

(* Reference results from the plain interpreter, computed once per kernel
   before anything is timed. *)
let references : (string, string) Hashtbl.t = Hashtbl.create 64

let reference (b : Registry.benchmark) =
  match Hashtbl.find_opt references b.Registry.id with
  | Some r -> r
  | None ->
    let r = Registry.reference_result b in
    Hashtbl.replace references b.Registry.id r;
    r

type live = { bench : Registry.benchmark; arch : Config.arch; vm : Vm.t }

let label l = Printf.sprintf "%s/%s" l.bench.Registry.id (Config.name l.arch)

let call l =
  let v = Vm.call_function l.vm "benchmark" [] in
  expect ~what:(label l) ~expected:(reference l.bench) (Value.to_js_string v)

(** Which tier runs [benchmark()] call [n] (1-based) under the default
    thresholds. *)
let tier_of_call n =
  let th = Vm.default_thresholds in
  if n > th.Vm.ftl_at then 3 else if n > th.Vm.dfg_at then 2 else if n > th.Vm.baseline_at then 1
  else 0

let tier_names = [| "interp"; "baseline"; "dfg"; "ftl" |]

(** Per-call warm-up times, summed over a VM set: [tier_ns.(t)] is the time
    of the calls that ran in tier [t]; [first_ftl_extra_ns] sums, per VM,
    the first FTL call minus the median later FTL call. *)
type warm_stats = { tier_ns : int array; mutable first_ftl_extra_ns : int }

let new_warm_stats () = { tier_ns = Array.make 4 0; first_ftl_extra_ns = 0 }

let create ?engine ?host_ic arch bench =
  let vm =
    Vm.create ~fuel:max_int ?engine ?host_ic ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl
      (Registry.compile bench)
  in
  { bench; arch; vm }

(* Run the top level and [Runner.default_warmup] calls, checking each. *)
let warm ?stats l =
  ignore (Vm.run_main l.vm);
  let times = Array.make (Runner.default_warmup + 1) 0 in
  for n = 1 to Runner.default_warmup do
    let (), dt = timed (fun () -> call l) in
    times.(n) <- dt
  done;
  Option.iter
    (fun s ->
      Array.iteri (fun n dt -> if n > 0 then s.tier_ns.(tier_of_call n) <- s.tier_ns.(tier_of_call n) + dt) times;
      let first = Vm.default_thresholds.Vm.ftl_at + 1 in
      if first < Runner.default_warmup then begin
        let later =
          List.init (Runner.default_warmup - first) (fun i -> float_of_int times.(first + 1 + i))
        in
        s.first_ftl_extra_ns <- s.first_ftl_extra_ns + times.(first) - int_of_float (median later)
      end)
    stats

(** Build and warm one live VM per (kernel, arch). *)
let setup ?engine ?host_ic ?stats archs =
  List.concat_map
    (fun arch ->
      List.map
        (fun b ->
          let l = create ?engine ?host_ic arch b in
          warm ?stats l;
          l)
        (kernels ()))
    archs
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Rounds *)

type round = {
  total_ns : int;
  arch_ns : (Config.arch * int) list;
  sim_instrs : (Config.arch * int) list;  (** simulated instructions per arch *)
  commits : (Config.arch * int) list;  (** transaction commits per arch *)
  aborts : (Config.arch * int) list;
  stm_commits : (Config.arch * int) list;
  alloc_words : (Config.arch * int) list;  (** words the host allocated *)
  major_gcs : (Config.arch * int) list;
}

let allocated () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

(** One round: every live VM's [benchmark()] once, in an order drawn from
    [prng].  Spans: a [round] root with one [vm.call_function.<arch>] child
    per call. *)
let round ~prng ~tr ~archs lives =
  let order = Array.copy lives in
  Prng.shuffle prng order;
  let n = Array.length order in
  let dts = Array.make n 0 and instrs = Array.make n 0 and commits = Array.make n 0 in
  let aborts = Array.make n 0 and stms = Array.make n 0 in
  let words = Array.make n 0 and gcs = Array.make n 0 in
  let (), total_ns =
    timed (fun () ->
        Trace.span tr "round" (fun () ->
            Array.iteri
              (fun i l ->
                let c = Vm.counters l.vm in
                let i0 = Counters.total_instrs c and c0 = c.Counters.tx_commits in
                let a0 = c.Counters.tx_aborts and s0 = c.Counters.stm_commits in
                let w0 = allocated () and g0 = (Gc.quick_stat ()).Gc.major_collections in
                let t0 = now_ns () in
                Trace.span tr ("vm.call_function." ^ Config.name l.arch) (fun () -> call l);
                dts.(i) <- now_ns () - t0;
                words.(i) <- allocated () - w0;
                gcs.(i) <- (Gc.quick_stat ()).Gc.major_collections - g0;
                instrs.(i) <- Counters.total_instrs c - i0;
                commits.(i) <- c.Counters.tx_commits - c0;
                aborts.(i) <- c.Counters.tx_aborts - a0;
                stms.(i) <- c.Counters.stm_commits - s0)
              order))
  in
  let per arr =
    List.map
      (fun a ->
        let s = ref 0 in
        Array.iteri (fun i l -> if l.arch = a then s := !s + arr.(i)) order;
        (a, !s))
      archs
  in
  {
    total_ns;
    arch_ns = per dts;
    sim_instrs = per instrs;
    commits = per commits;
    aborts = per aborts;
    stm_commits = per stms;
    alloc_words = per words;
    major_gcs = per gcs;
  }

(** The exact-count oracle: every round's simulated totals must equal the
    first round's. *)
let check_repeat ~first r =
  check
    (r.sim_instrs = first.sim_instrs && r.commits = first.commits)
    (lazy "per-round simulated instruction/commit totals changed between rounds")

(** Run rounds for [seconds] (at least [min_rounds]). *)
let run_rounds ~prng ~tr ~archs ~seconds ~min_rounds lives =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc k =
    if k >= min_rounds && now_ns () >= deadline then List.rev acc
    else begin
      Trace.set_request tr k;
      let r = round ~prng ~tr ~archs lives in
      (match List.rev acc with first :: _ -> check_repeat ~first r | [] -> ());
      go (r :: acc) (k + 1)
    end
  in
  go [] 0

