(** Host-time benchmark of the NoMap simulator and the nomapd daemon.

    bench.exe --workload steady-base|steady-tx|nomapd-mix --seed N
              --seconds S --trace 0|1 --serve PATH --out DIR
              [--tiny] [--inject-wrong-expected]

    Prints host context and the seed on one line, then, as the last line,
    one JSON object: correct, attempted, failed and metrics (end-to-end
    metrics with --trace 0, per-layer metrics with --trace 1).  See
    README.md for the workloads and metrics. *)

open Common
module Config = Nomap_nomap.Config
module Engine = Nomap_machine.Engine
module Prng = Nomap_util.Prng
module Protocol = Nomap_server.Protocol
module Session = Nomap_server.Session
module Artifact_cache = Nomap_server.Artifact_cache
module Vm = Nomap_vm.Vm
module Heap_checksum = Nomap_vm.Heap_checksum
module Registry = Nomap_workloads.Registry
module Agent = Nomap_shared.Agent
module Segment = Nomap_shared.Segment

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  serve : string;
  out : string;
  tiny : bool;
}

let tx_archs = [ Config.NoMap_full; Config.NoMap_RTM; Config.NoMap_RTM_STM ]
let base_archs = [ Config.Base ]

(** Reconciliation of a traced run: layer self times plus the residual must
    sum to the end-to-end time. *)
let reconciled = ref true

let reconcile ~e2e_ms ~layers_ms ~residual_ms =
  let gap = Float.abs (layers_ms +. residual_ms -. e2e_ms) in
  if gap > 1e-6 *. Float.max 1.0 e2e_ms then reconciled := false;
  metric "residual_ms" "ms" residual_ms

(** Traced end-to-end time against untraced, in the same run. *)
let overhead ~traced ~untraced = metric "trace.overhead_pct" "%" (100.0 *. (traced -. untraced) /. untraced)

(* ------------------------------------------------------------------ *)
(* Steady workloads *)

let rounds_ms rs f = List.map (fun r -> ms_of_ns (f r)) rs
let min_rounds o = if o.tiny then 1 else 5

(** Set up [reps] times, keeping the last result and passing the others
    to [discard]; returns it with the median set-up time in seconds. *)
let repeated_setup ?(discard = ignore) ~reps f =
  let rec go k acc =
    let live, dt = timed f in
    let acc = (float_of_int dt /. 1e9) :: acc in
    if k = reps then (live, median acc)
    else begin
      discard live;
      Gc.full_major ();
      go (k + 1) acc
    end
  in
  go 1 []

let steady o archs =
  let reps = if o.tiny then 1 else 3 in
  let lives, setup_s = repeated_setup ~reps (fun () -> Steady.setup archs) in
  Gc.compact ();
  let prng = Prng.create ~seed:o.seed in
  let tr = Trace.create ~id_base:0 in
  let rs = Steady.run_rounds ~prng ~tr ~archs ~seconds:o.seconds ~min_rounds:(min_rounds o) lives in
  let totals = rounds_ms rs (fun r -> r.Steady.total_ns) in
  metric "round_ms_p50" "ms" (median totals);
  metric "round_ms_p90" "ms" (percentile totals 90.0);
  metric "setup_s" "s" setup_s;
  metric "peak_rss_mb" "MB" (peak_rss_mb "self");
  note "rounds" (float_of_int (List.length rs));
  List.iter
    (fun a ->
      note ("round_ms_p50." ^ Config.name a) (median (rounds_ms rs (fun r -> List.assoc a r.Steady.arch_ns))))
    archs

let per_round rs f = median (List.map (fun r -> float_of_int (f r)) rs)

(** The workload's own rounds, untraced then traced: warm-up per tier,
    the residual and the tracing overhead. *)
let workload_rounds o ~workload ~prng archs =
  let stats = Steady.new_warm_stats () in
  let lives = Steady.setup ~stats archs in
  Array.iteri
    (fun t ns -> metric ("vm.warmup_ms." ^ Steady.tier_names.(t)) "ms" (ms_of_ns ns))
    stats.Steady.tier_ns;
  metric "vm.first_ftl_call_extra_us" "us" (us_of_ns stats.Steady.first_ftl_extra_ns);
  Gc.compact ();
  let tr = Trace.create ~id_base:0 in
  let run () =
    Steady.run_rounds ~prng ~tr ~archs ~seconds:(o.seconds /. 2.0) ~min_rounds:(min_rounds o) lives
  in
  let untraced = run () in
  Trace.enabled := true;
  let traced = run () in
  Trace.enabled := false;
  let spans = tr.Trace.spans in
  let mean_round = ms_of_ns (Trace.root_total spans "round") /. float_of_int (List.length traced) in
  let calls_ms =
    List.fold_left
      (fun acc (name, ns, _) -> if name = "round" then acc else acc +. ms_of_ns ns)
      0.0 (Trace.self_times spans)
    /. float_of_int (List.length traced)
  in
  reconcile ~e2e_ms:mean_round ~layers_ms:calls_ms ~residual_ms:(mean_round -. calls_ms);
  overhead
    ~traced:(per_round traced (fun r -> r.Steady.total_ns))
    ~untraced:(per_round untraced (fun r -> r.Steady.total_ns));
  Trace.write (Filename.concat o.out (Printf.sprintf "trace-%s-%d.json" workload o.seed)) spans;
  lives

(** Base and every transactional arch in the same rounds: per-arch machine,
    runtime and HTM figures, and each arch's excess over Base. *)
let arch_rounds o ~prng ~have lives =
  let archs = Config.Base :: tx_archs in
  let missing = List.filter (fun a -> not (List.mem a have)) archs in
  let lives = Array.append lives (Steady.setup missing) in
  Gc.compact ();
  let tr = Trace.create ~id_base:0 in
  let rs =
    Steady.run_rounds ~prng ~tr ~archs ~seconds:(o.seconds /. 4.0) ~min_rounds:(min_rounds o) lives
  in
  let arch_med f a = per_round rs (fun r -> List.assoc a (f r)) in
  List.iter
    (fun a ->
      let n = Config.name a in
      let instrs = arch_med (fun r -> r.Steady.sim_instrs) a in
      metric ("machine.round_ms." ^ n) "ms" (arch_med (fun r -> r.Steady.arch_ns) a /. 1e6);
      metric ("machine.sim_instrs_per_round." ^ n) "count" instrs;
      metric ("machine.ns_per_sim_instr." ^ n) "ns" (arch_med (fun r -> r.Steady.arch_ns) a /. instrs);
      metric ("runtime.alloc_kw_per_round." ^ n) "kword" (arch_med (fun r -> r.Steady.alloc_words) a /. 1e3);
      metric ("runtime.major_gcs_per_round." ^ n) "count"
        (mean (List.map (fun r -> float_of_int (List.assoc a r.Steady.major_gcs)) rs)))
    archs;
  let base_ms = arch_med (fun r -> r.Steady.arch_ns) Config.Base /. 1e6 in
  List.iter
    (fun a ->
      let n = Config.name a in
      let commits = arch_med (fun r -> r.Steady.commits) a in
      let aborts = arch_med (fun r -> r.Steady.aborts) a in
      metric ("htm.commits_per_round." ^ n) "count" commits;
      metric ("htm.aborts_per_round." ^ n) "count" aborts;
      metric ("htm.commit_ratio." ^ n) "ratio" (commits /. Float.max 1.0 (commits +. aborts));
      metric ("htm.excess_ms." ^ n) "ms" ((arch_med (fun r -> r.Steady.arch_ns) a /. 1e6) -. base_ms))
    tx_archs;
  metric "htm.stm_fallbacks_per_round" "count"
    (arch_med (fun r -> r.Steady.stm_commits) Config.NoMap_RTM_STM)

(** A Base round per execution engine, and with host inline caches off. *)
let engine_rounds o ~prng =
  let round_ms lives =
    Gc.compact ();
    let tr = Trace.create ~id_base:0 in
    let rs =
      Steady.run_rounds ~prng ~tr ~archs:base_archs ~seconds:(o.seconds /. 8.0)
        ~min_rounds:(min_rounds o) lives
    in
    per_round rs (fun r -> r.Steady.total_ns) /. 1e6
  in
  List.iter
    (fun e -> metric ("machine.round_ms." ^ Engine.name e) "ms" (round_ms (Steady.setup ~engine:e base_archs)))
    Engine.all;
  metric "machine.round_ms.ic_off" "ms" (round_ms (Steady.setup ~host_ic:false base_archs))

(* ------------------------------------------------------------------ *)
(* nomapd-mix *)

let stream_length o = if o.tiny then 40 else 50_000

(** Start the daemon and prime its cache, [reps] times; the last one stays
    up. *)
let mix_setup o ~reps =
  let sock = Filename.concat o.out (Printf.sprintf "nomapd-%d.sock" (Unix.getpid ())) in
  repeated_setup ~discard:Mix.stop ~reps (fun () ->
      let d = Mix.start ~serve:o.serve ~dir:o.out ~sock in
      Mix.prime d;
      d)

let class_ms outcomes =
  List.map (fun c -> (c, Mix.latencies_ms outcomes c)) Mix.classes

let mix o =
  let d, setup_s = mix_setup o ~reps:(if o.tiny then 1 else 3) in
  let reqs = Mix.generate ~seed:o.seed (stream_length o) in
  let h0, m0 = Mix.cache_counts d in
  let deadline = now_ns () + int_of_float (o.seconds *. 1e9) in
  let outcomes, _ = Mix.drive ~seed:o.seed ~sock:d.Mix.sock ~reqs ~from:0 ~deadline () in
  let h1, m1 = Mix.cache_counts d in
  Mix.check_shared_total ~seed:o.seed ~sock:d.Mix.sock outcomes;
  let rss = peak_rss_mb (string_of_int d.Mix.pid) in
  Mix.stop d;
  Mix.verify outcomes;
  let first = Array.fold_left (fun acc oc -> min acc oc.Mix.start_ns) max_int outcomes in
  let last = Array.fold_left (fun acc oc -> max acc oc.Mix.stop_ns) 0 outcomes in
  List.iter
    (fun (c, ms) ->
      let n = Mix.cls_name c in
      metric (n ^ "_p50_ms") "ms" (median ms);
      metric (n ^ "_p90_ms") "ms" (percentile ms 90.0))
    (class_ms outcomes);
  metric "req_per_s" "1/s" (float_of_int (Array.length outcomes) /. (float_of_int (last - first) /. 1e9));
  metric "setup_s" "s" setup_s;
  metric "peak_rss_mb" "MB" rss;
  note "requests" (float_of_int (Array.length outcomes));
  List.iter (fun (c, ms) -> note (Mix.cls_name c ^ "_requests") (float_of_int (List.length ms))) (class_ms outcomes);
  note "cache_hits_in_stream" (float_of_int (h1 - h0));
  note "cache_misses_in_stream" (float_of_int (m1 - m0))

(* The traced mix: each reply is followed, on the same client, by an
   in-process [Session.run] of the identical request and a replay of the
   steps it takes, each step in its own span. *)

type replayer = {
  tr : Trace.t;
  cache : Session.cache;
  agent : Agent.t;
}

let replayer conn =
  let cache = Artifact_cache.create ~capacity:1024 () in
  let segment = Segment.create ~size:Session.shared_session_words () in
  let agent = Agent.agent (Agent.create_registry ~segment ~n:1 ()) 0 in
  (* The same artifacts the daemon was primed with. *)
  List.iter
    (fun (b : Registry.benchmark) ->
      Array.iter
        (fun arch ->
          ignore
            (Session.run ~max_fuel:Mix.fuel ~cache
               (Mix.run_of { Mix.idx = 0; cls = Mix.Warm; bench = b; arch; nonce = 0L })))
        Mix.hot_archs)
    (Steady.kernels ());
  { tr = Trace.create ~id_base:(conn * 100_000_000); cache; agent }

let replay rp (o : Mix.outcome) =
  let r = o.Mix.req in
  let run = Mix.run_of r in
  let tr = rp.tr in
  Trace.set_request tr r.Mix.idx;
  Trace.add tr "request" ~start_ns:o.Mix.start_ns ~stop_ns:o.Mix.stop_ns;
  let shared_agent = if r.Mix.cls = Mix.Shared then Some rp.agent else None in
  ignore
    (Trace.span tr "session.run" (fun () ->
         Session.run ~max_fuel:Mix.fuel ?shared_agent ~cache:rp.cache run));
  Trace.span tr "replay" (fun () ->
      let prog =
        match r.Mix.cls with
        | Mix.Cold ->
          let ast = Trace.span tr "jsir.parse" (fun () -> Nomap_jsir.Parser.parse_program_exn run.Protocol.src) in
          Trace.span tr "bytecode.compile" (fun () -> Nomap_bytecode.Compile.compile_program ast)
        | _ ->
          snd
            (Trace.span tr "artifact_cache.lookup" (fun () ->
                 Artifact_cache.find_or_add rp.cache
                   { Session.hash = Nomap_util.Fnv.hash64 run.Protocol.src; src = run.Protocol.src; tier = run.Protocol.tier; arch = run.Protocol.arch }
                   (fun () -> Nomap_bytecode.Compile.compile_source run.Protocol.src)))
      in
      let vm =
        Trace.span tr "vm.create" (fun () ->
            Vm.create ~fuel:Mix.fuel ?shared:shared_agent ~config:(Config.create run.Protocol.arch)
              ~tier_cap:run.Protocol.tier prog)
      in
      ignore (Trace.span tr "vm.run_main" (fun () -> Vm.run_main vm));
      Trace.span tr "vm.call_function" (fun () ->
          for _ = 1 to run.Protocol.iters do
            ignore (Vm.call_function vm "benchmark" [])
          done);
      ignore (Trace.span tr "vm.heap_checksum" (fun () -> Heap_checksum.checksum (Vm.instance vm))));
  Agent.tx_abort rp.agent

(** The daemon's per-layer metrics: an untraced then a traced stream of
    [seconds] / 2 each.  With [e2e] it also reconciles the traced stream's
    mean request time against its layers, as nomapd-mix's own traced run. *)
let server_layers o ~seconds ~e2e =
  let workload = "nomapd-mix" in
  let d, _ = mix_setup o ~reps:1 in
  let reqs = Mix.generate ~seed:o.seed (stream_length o) in
  let rps = [| replayer 0; replayer 1 |] in
  let half = int_of_float (seconds /. 2.0 *. 1e9) in
  let h0, m0 = Mix.cache_counts d in
  let untraced, next =
    Mix.drive ~seed:o.seed ~sock:d.Mix.sock ~reqs ~from:0 ~deadline:(now_ns () + half) ()
  in
  let h1, m1 = Mix.cache_counts d in
  Trace.enabled := true;
  let traced, _ =
    Mix.drive ~seed:o.seed ~sock:d.Mix.sock ~reqs ~from:next ~deadline:(now_ns () + half)
      ~on_reply:(fun conn oc -> replay rps.(conn) oc)
      ()
  in
  Trace.enabled := false;
  Mix.check_shared_total ~seed:o.seed ~sock:d.Mix.sock (Array.append untraced traced);
  Mix.stop d;
  Mix.verify (Array.append untraced traced);
  let spans = Trace.spans (Array.to_list (Array.map (fun rp -> rp.tr) rps)) in
  (* Per request: its spans by name. *)
  let by_req = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_req s.Trace.req
        ((s.Trace.name, s.Trace.stop_ns - s.Trace.start_ns)
        :: Option.value ~default:[] (Hashtbl.find_opt by_req s.Trace.req)))
    spans;
  let dur name l = List.fold_left (fun acc (n, ns) -> if n = name then acc + ns else acc) 0 l in
  let replay_steps =
    [ "jsir.parse"; "bytecode.compile"; "artifact_cache.lookup"; "vm.create"; "vm.run_main"; "vm.call_function"; "vm.heap_checksum" ]
  in
  let per_class = Hashtbl.create 4 in
  Array.iter
    (fun (oc : Mix.outcome) ->
      match Hashtbl.find_opt by_req oc.Mix.req.Mix.idx with
      | Some l ->
        let c = oc.Mix.req.Mix.cls in
        Hashtbl.replace per_class c (l :: Option.value ~default:[] (Hashtbl.find_opt per_class c))
      | None -> ())
    traced;
  let all = Hashtbl.fold (fun _ ls acc -> ls @ acc) per_class [] in
  let mean_of f ls = mean (List.map (fun l -> ms_of_ns (f l)) ls) in
  let e2e_ms = mean_of (dur "request") all in
  let overhead_ms = mean_of (fun l -> dur "request" l - dur "session.run" l) all in
  let steps_ms = List.fold_left (fun acc s -> acc +. mean_of (dur s) all) 0.0 replay_steps in
  let residual = mean_of (fun l -> dur "session.run" l - List.fold_left (fun a s -> a + dur s l) 0 replay_steps) all in
  if e2e then begin
    reconcile ~e2e_ms ~layers_ms:(overhead_ms +. steps_ms) ~residual_ms:residual;
    let mean_rtt ocs = mean (List.concat_map snd (class_ms ocs)) in
    overhead ~traced:(mean_rtt traced) ~untraced:(mean_rtt untraced)
  end;
  List.iter
    (fun c ->
      let ls = Option.value ~default:[] (Hashtbl.find_opt per_class c) in
      let med f = median (List.map (fun l -> us_of_ns (f l)) ls) in
      let name = Mix.cls_name c in
      metric ("session.run_us." ^ name) "us" (med (dur "session.run"));
      metric ("server.overhead_us." ^ name) "us" (med (fun l -> dur "request" l - dur "session.run" l)))
    Mix.classes;
  metric "artifact_cache.hit_ratio" "ratio"
    (float_of_int (h1 - h0) /. float_of_int (max 1 (h1 - h0 + m1 - m0)));
  Trace.write (Filename.concat o.out (Printf.sprintf "trace-%s-%d.json" workload o.seed)) spans

(** The frontend, VM creation, interpreter tiers, JIT pipeline and agents,
    each timed through its own entry point. *)
let layer_sweep o =
  let kernels = Steady.kernels () in
  Layers.frontend kernels;
  Layers.vm_create kernels;
  let profs = Layers.interp kernels in
  Layers.jit profs;
  Layers.agents ~seed:o.seed

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload steady-base|steady-tx|nomapd-mix --seed N --seconds S --trace 0|1 \
     --serve PATH --out DIR [--tiny] [--inject-wrong-expected]";
  exit 2

let parse_args () =
  let o =
    ref { workload = ""; seed = 1; seconds = 10.0; trace = false; serve = ""; out = ".perfbench"; tiny = false }
  in
  let rec go = function
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--serve" :: v :: rest -> o := { !o with serve = v }; go rest
    | "--out" :: v :: rest -> o := { !o with out = v }; go rest
    | "--tiny" :: rest -> o := { !o with tiny = true }; go rest
    | "--inject-wrong-expected" :: rest -> inject_wrong_expected := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !o

let () =
  let o = parse_args () in
  let h = host () in
  if o.tiny then begin
    Steady.tiny := true;
    Layers.reps := 1
  end;
  (try Sys.mkdir o.out 0o755 with Sys_error _ -> ());
  (* Reference results are the oracle's, not set-up work: compute them
     before anything is timed. *)
  List.iter (fun b -> ignore (Steady.reference b)) (Steady.kernels ());
  Printf.printf
    "{\"info\": {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"nproc\": %d, \"ocaml\": %s, \"loadavg_at_start\": %s}}\n%!"
    (json_string o.workload) o.seed o.seconds o.trace h.nproc (json_string h.ocaml)
    (json_string h.load_at_start);
  (match (o.workload, o.trace) with
  | "steady-base", false -> steady o base_archs
  | "steady-tx", false -> steady o tx_archs
  | "nomapd-mix", false -> mix o
  | ("steady-base" | "steady-tx"), true ->
    (* Both steady workloads' traced runs measure every layer: their own
       rounds, then the per-arch, engine, HTM/cache, daemon and compiler
       layers, which are the same for both. *)
    let archs = if o.workload = "steady-base" then base_archs else tx_archs in
    let prng = Prng.create ~seed:o.seed in
    let lives = workload_rounds o ~workload:o.workload ~prng archs in
    arch_rounds o ~prng ~have:archs lives;
    engine_rounds o ~prng;
    Layers.htm ();
    Layers.cache ~seed:o.seed;
    server_layers o ~seconds:(o.seconds /. 4.0) ~e2e:false;
    layer_sweep o
  | "nomapd-mix", true ->
    server_layers o ~seconds:o.seconds ~e2e:true;
    layer_sweep o
  | _ -> usage ());
  List.iter (fun m -> prerr_endline ("failure: " ^ m)) (List.rev tally.first_failures);
  Printf.printf "{\"details\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v)) (List.rev !notes)));
  let metrics = List.rev !metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v) (json_string unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && !reconciled && tally.attempted > 0)
    (max 1 tally.attempted) tally.failed body
