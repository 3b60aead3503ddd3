(** Shared plumbing for the benchmark: one monotonic clock, summary
    statistics, the operation tally the output oracle feeds, metric
    collection, and host context. *)

(** Nanoseconds on the monotonic clock (the one clock every timing in the
    benchmark uses). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

(** Run [f] and return its result with its duration in ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let percentile xs p = Nomap_util.Stats.percentile xs p
let median xs = percentile xs 50.0
let mean xs = match xs with [] -> 0.0 | _ -> Nomap_util.Stats.mean xs

(* ------------------------------------------------------------------ *)
(* Output oracle: every operation the benchmark performs is attempted, and
   a mismatch, typed error or timeout counts it as failed. *)

type tally = { mutable attempted : int; mutable failed : int; mutable first_failures : string list }

let tally = { attempted = 0; failed = 0; first_failures = [] }

let attempt () = tally.attempted <- tally.attempted + 1

let fail msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.first_failures < 5 then
    tally.first_failures <- msg :: tally.first_failures

(** Count one operation; [ok] false (with its reason) counts it failed. *)
let check ok msg =
  attempt ();
  if not ok then fail (Lazy.force msg)

(** Self-test hook: when set, every comparison against an expected value
    uses this wrong expectation instead, so the failed count must rise. *)
let inject_wrong_expected = ref false

let expect ~what ~expected got =
  let expected = if !inject_wrong_expected then expected ^ "#wrong" else expected in
  check (got = expected) (lazy (Printf.sprintf "%s: expected %s, got %s" what expected got))

(* ------------------------------------------------------------------ *)
(* Metrics, in the order they are produced *)

let metrics : (string * float * string) list ref = ref []

let metric name unit value = metrics := (name, value, unit) :: !metrics

(** Figures that explain a run (sample counts and the like) but are not
    metrics; printed on their own line before the result. *)
let notes : (string * float) list ref = ref []

let note name value = notes := (name, value) :: !notes

(* ------------------------------------------------------------------ *)
(* Host context *)

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with l1 :: _ -> l1 | [] -> "unknown")
  | None -> "unknown"

(** Peak resident set size of process [pid] ("self" for this one), in MB,
    from the kernel's VmHWM. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

type host = { nproc : int; ocaml : string; load_at_start : string }

let host () =
  { nproc = Domain.recommended_domain_count (); ocaml = Sys.ocaml_version; load_at_start = loadavg () }

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
