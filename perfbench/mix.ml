(** nomapd-mix: a [serve.exe --domains 2] daemon in its own process, driven
    closed-loop over two keepalive connections by a seeded request stream:
    30% cold, 30% warm, 25% hot and 15% shared by count. *)

open Common
module Registry = Nomap_workloads.Registry
module Experiments = Nomap_harness.Experiments
module Vm = Nomap_vm.Vm
module Heap_checksum = Nomap_vm.Heap_checksum
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value
module Prng = Nomap_util.Prng
module Client = Nomap_server.Client
module Protocol = Nomap_server.Protocol
module Session = Nomap_server.Session
module Segment = Nomap_shared.Segment
module Agent = Nomap_shared.Agent

type cls = Cold | Warm | Hot | Shared

let classes = [ Cold; Warm; Hot; Shared ]
let cls_name = function Cold -> "cold" | Warm -> "warm" | Hot -> "hot" | Shared -> "shared"

(* Per block of 20 requests: 6 cold, 6 warm, 5 hot, 3 shared. *)
let block = [ (Cold, 6); (Warm, 6); (Hot, 5); (Shared, 3) ]
let hot_iters = 30
let hot_archs = [| Config.Base; Config.NoMap_full; Config.NoMap_RTM; Config.NoMap_RTM_STM |]
let shared_arch = Config.NoMap_RTM

(* Each shared request runs the §16 shared-counter kernel: 120 calls of two
   Atomics.add(0, 1) each. *)
let shared_src = Experiments.contention_src 0
let adds_per_shared = 240
let fuel = 2_000_000_000

type req = { idx : int; cls : cls; bench : Registry.benchmark; arch : Config.arch; nonce : int64 }

(** A cold request's source is its kernel plus a unique trailing comment,
    so it always misses the artifact cache. *)
let source r =
  match r.cls with
  | Cold -> Printf.sprintf "%s\n// cold request %d nonce %016Lx\n" r.bench.Registry.source r.idx r.nonce
  | Warm | Hot -> r.bench.Registry.source
  | Shared -> shared_src

(** Requests per epoch: enough 20-request blocks that one epoch's hot
    requests cover every kernel exactly once.  A run measures whole epochs,
    so every seed times the same multiset of hot kernels: a hot request's
    latency depends mostly on its kernel. *)
let epoch_length () = 20 * max 1 (List.length (Steady.kernels ()) / 5)

(** The first [n] requests of the stream for [seed].  Classes, kernels and
    hot archs are dealt from decks reshuffled when empty. *)
let generate ~seed n =
  let prng = Prng.create ~seed in
  let kernels = Array.of_list (Steady.kernels ()) in
  let deck items =
    let cards = Array.copy items and next = ref (Array.length items) in
    fun () ->
      if !next = Array.length cards then begin
        Prng.shuffle prng cards;
        next := 0
      end;
      incr next;
      cards.(!next - 1)
  in
  let kernel = deck kernels and hot_kernel = deck kernels and hot_arch = deck hot_archs in
  let slot = deck (Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) block)) in
  Array.init n (fun idx ->
      let cls = slot () in
      let bench, arch =
        match cls with
        | Hot ->
          let b = hot_kernel () in
          (b, hot_arch ())
        | Shared -> (kernels.(0), shared_arch)
        | Cold | Warm -> (kernel (), Config.Base)
      in
      { idx; cls; bench; arch; nonce = Prng.next_int64 prng })

let run_of r =
  {
    Protocol.tier = Vm.Cap_ftl;
    arch = r.arch;
    iters = (if r.cls = Hot then hot_iters else 0);
    fuel;
    deadline_ms = 0;
    src = source r;
  }

let session ~seed = Printf.sprintf "perfbench-%d" seed

let protocol_request ~seed r =
  match r.cls with
  | Shared -> Protocol.Run_shared { run = run_of r; session = session ~seed }
  | _ -> Protocol.Run (run_of r)

(* ------------------------------------------------------------------ *)
(* Oracle: direct in-process execution through the same VM entry points the
   daemon uses. *)

let observe ?shared_agent (run : Protocol.run) =
  let prog = Nomap_bytecode.Compile.compile_source run.Protocol.src in
  let vm =
    Vm.create ~fuel:run.Protocol.fuel ?shared:shared_agent ~config:(Config.create run.Protocol.arch)
      ~tier_cap:run.Protocol.tier prog
  in
  ignore (Vm.run_main vm);
  let last = ref None in
  for _ = 1 to run.Protocol.iters do
    last := Some (Vm.call_function vm "benchmark" [])
  done;
  let result =
    match !last with
    | Some v -> Value.to_js_string v
    | None -> (
      match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "<no result>")
  in
  (result, Heap_checksum.checksum (Vm.instance vm))

(* A shared request observes whatever its peers added first; replay it on a
   private segment whose counter starts where this request's own adds
   began, which must reproduce the reply exactly. *)
let observe_shared ~result run =
  let segment = Segment.create ~size:Session.shared_session_words () in
  Segment.set segment 0 (result - adds_per_shared);
  let reg = Agent.create_registry ~segment ~n:1 () in
  let ag = Agent.agent reg 0 in
  Fun.protect
    ~finally:(fun () ->
      Agent.tx_abort ag;
      Agent.finish ag)
    (fun () -> observe ~shared_agent:ag run)

type outcome = { req : req; resp : Protocol.response; start_ns : int; stop_ns : int }

(** Expected (result, heap) for a plain RUN; the comment a cold request
    carries does not change what it computes, so it shares the warm entry. *)
let expectations reqs =
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      if r.cls <> Shared then Hashtbl.replace keys (r.bench.Registry.id, r.arch, r.cls = Hot) r)
    reqs;
  let todo = Hashtbl.fold (fun k r acc -> (k, r) :: acc) keys [] |> Array.of_list in
  let results = Array.make (Array.length todo) ("", "") in
  let worker lo () =
    let i = ref lo in
    while !i < Array.length todo do
      let _, r = todo.(!i) in
      results.(!i) <- observe (run_of { r with cls = (if r.cls = Cold then Warm else r.cls) });
      i := !i + 2
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i (k, _) -> Hashtbl.replace tbl k results.(i)) todo;
  tbl

(** Check every reply against direct execution (after the daemon is done,
    so the checks never compete with it for the cores). *)
let verify outcomes =
  let tbl = expectations (Array.map (fun o -> o.req) outcomes) in
  Array.iter
    (fun o ->
      let r = o.req in
      let what = Printf.sprintf "request %d (%s %s/%s)" r.idx (cls_name r.cls) r.bench.Registry.id (Config.name r.arch) in
      match o.resp with
      | Protocol.Run_ok { cache_hit; result; heap; _ } ->
        let exp_result, exp_heap =
          match r.cls with
          | Shared -> (
            match int_of_string_opt result with
            | Some n -> observe_shared ~result:n (run_of r)
            | None -> ("an integer", ""))
          | _ -> Hashtbl.find tbl (r.bench.Registry.id, r.arch, r.cls = Hot)
        in
        expect ~what ~expected:(exp_result ^ "/" ^ exp_heap) (result ^ "/" ^ heap);
        (* Cold sources are unique, warm ones were cached during set-up. *)
        (match r.cls with
        | Cold -> check (not cache_hit) (lazy (what ^ ": cold request hit the cache"))
        | Warm -> check cache_hit (lazy (what ^ ": warm request missed the cache"))
        | Hot | Shared -> ())
      | Protocol.Error { err; msg } ->
        check false (lazy (Printf.sprintf "%s: %s: %s" what (Protocol.err_name err) msg))
      | _ -> check false (lazy (what ^ ": unexpected response kind")))
    outcomes

(* ------------------------------------------------------------------ *)
(* The daemon *)

type daemon = { pid : int; sock : string }

let live_pids : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

let () = at_exit kill_all

let rpc_exn c req =
  match Client.rpc c req with
  | Protocol.Error { err; msg } -> failwith (Protocol.err_name err ^ ": " ^ msg)
  | resp -> resp

(** Start a daemon and wait until it answers PING. *)
let start ~serve ~dir ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "nomapd.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process serve
      [| serve; "--socket"; sock; "--domains"; "2"; "--cache"; "1024"; "--max-fuel"; string_of_int fuel; "--quiet" |]
      Unix.stdin log log
  in
  Unix.close log;
  live_pids := pid :: !live_pids;
  let c = Client.connect ~retry_for_s:60.0 sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.rpc c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> failwith "daemon did not answer PING");
  { pid; sock }

let stop d =
  (match Client.connect d.sock with
  | c ->
    (try ignore (Client.rpc c Protocol.Shutdown) with _ -> ());
    Client.close c
  | exception _ -> ());
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live_pids := List.filter (( <> ) d.pid) !live_pids;
  (try Sys.remove d.sock with Sys_error _ -> ())

(** Load every (kernel, arch) the warm and hot classes use into the
    artifact cache. *)
let prime d =
  let c = Client.connect d.sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      List.iter
        (fun (b : Registry.benchmark) ->
          Array.iter
            (fun arch ->
              ignore
                (rpc_exn c
                   (Protocol.Run
                      { Protocol.tier = Vm.Cap_ftl; arch; iters = 0; fuel; deadline_ms = 0; src = b.Registry.source })))
            hot_archs)
        (Steady.kernels ()))

let stat_field line k =
  String.split_on_char ' ' line
  |> List.find_map (fun w ->
         match String.split_on_char '=' w with [ k'; v ] when k' = k -> int_of_string_opt v | _ -> None)
  |> Option.value ~default:0

(** Artifact-cache (hits, misses) from the STATS reply. *)
let cache_counts d =
  let c = Client.connect d.sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.rpc c Protocol.Stats with
      | Protocol.Stats_ok text -> (
        match List.find_opt (String.starts_with ~prefix:"cache ") (String.split_on_char '\n' text) with
        | Some line -> (stat_field line "hits", stat_field line "misses")
        | None -> (0, 0))
      | _ -> (0, 0))

(* ------------------------------------------------------------------ *)
(* The closed loop *)

(** Drive [reqs] from index [from] over two connections in whole epochs,
    until the epoch running at [deadline] is done; [on_reply] runs on the
    client's domain right after each reply (the traced run replays the
    request there).  Returns the outcomes and the next unsent index. *)
let drive ~seed ~sock ~reqs ~from ~deadline ?(on_reply = fun _ _ -> ()) () =
  let epoch = epoch_length () in
  let lock = Mutex.create () and next = ref from and stop_at = ref (Array.length reqs) in
  let take () =
    Mutex.protect lock (fun () ->
        if now_ns () >= deadline && !stop_at = Array.length reqs then
          stop_at := min !stop_at (from + ((!next - from + epoch - 1) / epoch * epoch));
        if !next >= !stop_at then None
        else begin
          incr next;
          Some (!next - 1)
        end)
  in
  let outcomes = Array.make (Array.length reqs) None in
  let client conn () =
    let c = Client.connect sock in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        let rec loop () =
          match take () with
          | None -> ()
          | Some i ->
            let r = reqs.(i) in
            let start_ns = now_ns () in
            let resp =
              try Client.rpc c (protocol_request ~seed r)
              with e -> Protocol.Error { err = Protocol.Ecrash; msg = "client: " ^ Printexc.to_string e }
            in
            let o = { req = r; resp; start_ns; stop_ns = now_ns () } in
            outcomes.(i) <- Some o;
            on_reply conn o;
            loop ()
        in
        loop ())
  in
  let d = Domain.spawn (client 1) in
  client 0 ();
  Domain.join d;
  let got = Array.to_list outcomes |> List.filter_map Fun.id |> Array.of_list in
  (got, !next)

let latencies_ms outcomes cls =
  Array.to_list outcomes
  |> List.filter_map (fun o ->
         match o.resp with
         | Protocol.Run_ok _ when o.req.cls = cls -> Some (ms_of_ns (o.stop_ns - o.start_ns))
         | _ -> None)

(** After the stream: the session's counter must equal the adds applied by
    every shared request that succeeded. *)
let check_shared_total ~seed ~sock outcomes =
  let ok_shared =
    Array.fold_left
      (fun acc o -> match (o.req.cls, o.resp) with Shared, Protocol.Run_ok _ -> acc + 1 | _ -> acc)
      0 outcomes
  in
  let c = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      let resp =
        Client.rpc c
          (Protocol.Run_shared
             {
               run =
                 { Protocol.tier = Vm.Cap_ftl; arch = shared_arch; iters = 0; fuel; deadline_ms = 0; src = "var result = Atomics.load(0);" };
               session = session ~seed;
             })
      in
      let got = match resp with Protocol.Run_ok { result; _ } -> result | _ -> "error" in
      expect ~what:"shared session final Atomics.load" ~expected:(string_of_int (ok_shared * adds_per_shared)) got)
