(** Spans recorded by the benchmark around its calls into each layer.

    A span has a name, a start and an end on the monotonic clock, the span
    that caused it (its parent) and the request it belongs to.  Spans stay
    in memory in a per-client recorder and are written out when the run
    ends.  With tracing off, [span] is one branch and a call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request (or round) id shared by a request's spans *)
  start_ns : int;
  stop_ns : int;
}

let enabled = ref false

type t = {
  id_base : int;  (** recorders on different domains use disjoint id ranges *)
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : int;
  mutable spans : span list;
}

let create ~id_base = { id_base; next = 0; stack = []; req = 0; spans = [] }

let set_request t req = t.req <- req

(** Run [f] inside a span [name] (a child of the innermost open span). *)
let span t name f =
  if not !enabled then f ()
  else begin
    let id = t.id_base + t.next in
    t.next <- t.next + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = Common.now_ns () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; parent; req = t.req; start_ns; stop_ns = Common.now_ns () } :: t.spans
    in
    Fun.protect ~finally:finish f
  end

(** Record an already-measured interval as a root span (used where the
    work ran in another process, e.g. a daemon round trip). *)
let add t name ~start_ns ~stop_ns =
  if !enabled then begin
    let id = t.id_base + t.next in
    t.next <- t.next + 1;
    t.spans <- { id; name; parent = -1; req = t.req; start_ns; stop_ns } :: t.spans
  end

let spans ts = List.concat_map (fun t -> t.spans) ts

(** Self time per span name: each span's duration minus the time its
    children cover.  Returns (name, total self ns, span count). *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.stop_ns - s.start_ns)
          + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      let ns, n = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (ns + self, n + 1))
    spans;
  Hashtbl.fold (fun name (ns, n) acc -> (name, ns, n) :: acc) by_name []
  |> List.sort compare

(** Total duration of the root spans named [name]. *)
let root_total spans name =
  List.fold_left
    (fun acc s -> if s.parent < 0 && s.name = name then acc + (s.stop_ns - s.start_ns) else acc)
    0 spans

(** Write the spans as Chrome trace-event JSON (complete events). *)
let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": \
             %d, \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}\n"
            (if i = 0 then "" else ",")
            (Common.json_string s.name)
            (Common.us_of_ns s.start_ns)
            (Common.us_of_ns (s.stop_ns - s.start_ns))
            (s.id / 100_000_000) s.id s.parent s.req)
        (List.sort (fun a b -> compare a.start_ns b.start_ns) spans);
      output_string oc "]}\n")
