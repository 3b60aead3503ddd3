(** An agent's view of a shared segment, and the cross-agent conflict
    detection that makes HTM aborts real (DESIGN.md §16).

    Every VM owns exactly one agent (solo by default — a private 1-agent
    registry with a [Free] scheduler, so [Atomics] works identically in
    every tier of a single-agent run at zero coordination cost).  A
    multi-agent run shares one [registry]: the segment, the deterministic
    [Interleave] scheduler, and one lock serializing all shared-metadata
    mutation.

    Conflict model — eager, requester-wins, 64-byte line granularity
    (matching the footprint model's cache lines, so false sharing falls out
    naturally):
    - a hardware transaction publishes the lines it touches: writes always;
      reads only under RTM ([Rtm] tracks its read set in L2 — POWER8 ROT
      has no read-set tracking, so ROT transactions are *not* aborted by
      remote writes to lines they only read, true to the hardware);
    - any access by another agent that conflicts with a published line
      (write vs. anything, read vs. a published write) marks the publisher
      doomed; the requester proceeds.  A doomed transaction aborts with
      [Htm.Conflict] at its next shared operation or at commit;
    - in-transaction writes are redo-buffered: invisible until commit,
      dropped on abort (the hardware buffers speculative lines in cache;
      same observable behavior).  Commit flushes the buffer under the lock
      and dooms overlapping peers, like any other remote write.

    The PR 9 STM fallback cannot rely on hardware detection, so a
    fallen-back transaction validates à la NOrec: every transactional read
    served from shared data is logged with its observed value (under
    hardware too, so the log is complete if the fallback happens
    mid-flight), and commit re-reads the log — any changed value is a
    [Conflict].  Software transactions publish nothing and ignore the
    doomed flag; stale lines published before the fallback only cause
    spurious (ignored) dooming of this agent, never a wrong outcome.

    Determinism: every shared-data mutation — each operation, and each
    transaction commit (the redo flush) — consumes one [Interleave] turn.
    Metadata-only events (abort cleanup, the Hw→Sw mode flip) don't: their
    timing relative to peer turns only affects spurious dooming of agents
    that will ignore it, never an observable value. *)

module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Ops = Nomap_runtime.Ops
module Htm = Nomap_htm.Htm

type op_class = Op_load | Op_store | Op_rmw | Op_fence

type tx_mode =
  | No_tx
  | Hw of bool  (** inside a hardware transaction; payload = track reads (RTM) *)
  | Sw  (** fell back to the modeled software transaction (NOrec) *)

type registry = {
  segment : Segment.t;
  sched : Interleave.t;
  lock : Mutex.t;  (** serializes all shared-metadata and segment mutation *)
  mutable members : t array;
  mutable conflicts : int;  (** total [Conflict] aborts raised, for stats *)
}

and t = {
  id : int;
  reg : registry;
  mutable mode : tx_mode;
  read_lines : (int, unit) Hashtbl.t;  (** published read footprint (lines) *)
  write_lines : (int, unit) Hashtbl.t;  (** published write footprint (lines) *)
  redo : (int, int) Hashtbl.t;  (** in-tx segment writes, index → value *)
  mutable norec : (int * int) list;  (** read log: (index, observed value) *)
  doomed : bool Atomic.t;  (** set by conflicting peers, requester-wins *)
  mutable note : op_class -> unit;  (** VM counter callback *)
}

let create_registry ?(policy = Interleave.Free) ~segment ~n () =
  let reg =
    {
      segment;
      sched = Interleave.create ~n ~policy;
      lock = Mutex.create ();
      members = [||];
      conflicts = 0;
    }
  in
  reg.members <-
    Array.init n (fun id ->
        {
          id;
          reg;
          mode = No_tx;
          read_lines = Hashtbl.create 16;
          write_lines = Hashtbl.create 16;
          redo = Hashtbl.create 16;
          norec = [];
          doomed = Atomic.make false;
          note = (fun _ -> ());
        });
  reg

let agent reg i = reg.members.(i)
let registry ag = ag.reg
let id ag = ag.id
let segment reg = reg.segment
let conflicts reg = reg.conflicts
let set_note ag f = ag.note <- f

(** A private single-agent world: the default every VM gets so the
    [Shared]/[Atomics] surface works — and is tier-invariant — without any
    multi-agent setup. *)
let solo ?(size = 64) () =
  agent (create_registry ~segment:(Segment.create ~size ()) ~n:1 ()) 0

(* ------------------------------------------------------------------ *)
(* Internals.  Everything below that touches members' line sets, modes, or
   the segment runs under [reg.lock]; operations additionally hold a
   scheduler turn (see the determinism note above). *)

let with_lock reg f =
  Mutex.lock reg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.lock) f

(* Lock held. *)
let conflict_abort reg =
  reg.conflicts <- reg.conflicts + 1;
  raise (Htm.Abort Htm.Conflict)

(* Lock held.  Requester-wins: this agent's access to [line] dooms every
   hardware-transactional peer whose published footprint conflicts. *)
let doom_peers ag line ~is_write =
  Array.iter
    (fun peer ->
      if peer != ag then
        match peer.mode with
        | Hw _ ->
          if
            Hashtbl.mem peer.write_lines line
            || (is_write && Hashtbl.mem peer.read_lines line)
          then Atomic.set peer.doomed true
        | No_tx | Sw -> ())
    ag.reg.members

(* Lock held. *)
let check_doomed ag =
  match ag.mode with
  | Hw _ when Atomic.get ag.doomed -> conflict_abort ag.reg
  | _ -> ()

(* Lock held.  Transactional reads log (index, observed value) whenever
   served from shared data — the NOrec validation set if this transaction
   falls back to software. *)
let tx_read ag idx =
  match Hashtbl.find_opt ag.redo idx with
  | Some v -> v
  | None ->
    let v = Segment.get ag.reg.segment idx in
    ag.norec <- (idx, v) :: ag.norec;
    v

(* Lock held. *)
let read_idx ag idx =
  check_doomed ag;
  match ag.mode with
  | No_tx ->
    doom_peers ag (Segment.line_of idx) ~is_write:false;
    Segment.get ag.reg.segment idx
  | Hw track ->
    let line = Segment.line_of idx in
    if track then Hashtbl.replace ag.read_lines line ();
    doom_peers ag line ~is_write:false;
    tx_read ag idx
  | Sw -> tx_read ag idx

(* Lock held. *)
let write_idx ag idx v =
  check_doomed ag;
  let line = Segment.line_of idx in
  match ag.mode with
  | No_tx ->
    doom_peers ag line ~is_write:true;
    Segment.set ag.reg.segment idx v
  | Hw _ ->
    Hashtbl.replace ag.write_lines line ();
    doom_peers ag line ~is_write:true;
    Hashtbl.replace ag.redo idx v
  | Sw -> Hashtbl.replace ag.redo idx v

(* Lock held.  Returns the old value (JS Atomics RMW semantics). *)
let rmw_idx ag idx f =
  check_doomed ag;
  let line = Segment.line_of idx in
  match ag.mode with
  | No_tx ->
    let old = Segment.get ag.reg.segment idx in
    doom_peers ag line ~is_write:true;
    Segment.set ag.reg.segment idx (f old);
    old
  | Hw track ->
    if track then Hashtbl.replace ag.read_lines line ();
    Hashtbl.replace ag.write_lines line ();
    doom_peers ag line ~is_write:true;
    let old = tx_read ag idx in
    Hashtbl.replace ag.redo idx (f old);
    old
  | Sw ->
    let old = tx_read ag idx in
    Hashtbl.replace ag.redo idx (f old);
    old

(* Lock held. *)
let cleanup ag =
  ag.mode <- No_tx;
  Hashtbl.reset ag.read_lines;
  Hashtbl.reset ag.write_lines;
  Hashtbl.reset ag.redo;
  ag.norec <- [];
  Atomic.set ag.doomed false

(* Lock held.  Make the buffered writes visible; each flushed line is a
   remote write from the peers' point of view. *)
let flush ag =
  Hashtbl.iter
    (fun idx v ->
      doom_peers ag (Segment.line_of idx) ~is_write:true;
      Segment.set ag.reg.segment idx v)
    ag.redo;
  cleanup ag

(* ------------------------------------------------------------------ *)
(* Transaction boundary hooks, called by the machine at the outermost
   Tx_begin / Tx_end / abort. *)

let tx_begin ag ~(mode : Htm.mode) =
  with_lock ag.reg (fun () ->
      cleanup ag;
      ag.mode <-
        (match mode with
        | Htm.Rtm -> Hw true
        | Htm.Rot -> Hw false
        | Htm.Stm -> Sw
        | Htm.Ghost -> No_tx))

(** The hybrid fallback upgraded this transaction to software mid-flight:
    stop publishing and ignore the doomed flag from here on — commit-time
    NOrec validation takes over.  Lines already published stay until
    cleanup; they can only cause spurious dooming of this (now software)
    agent, which validation subsumes. *)
let to_stm ag =
  match ag.mode with
  | Hw _ -> with_lock ag.reg (fun () -> ag.mode <- Sw)
  | No_tx | Sw -> ()

(** Commit point: consumes a scheduler turn (the redo flush is a shared
    mutation).  Raises [Htm.Abort Htm.Conflict] if the transaction was
    doomed (hardware) or fails value validation (software); the machine's
    abort ladder takes it from there. *)
let tx_commit ag =
  match ag.mode with
  | No_tx -> ()
  | Hw _ | Sw ->
    Interleave.begin_op ag.reg.sched ~agent:ag.id;
    Fun.protect ~finally:(fun () -> Interleave.end_op ag.reg.sched ~agent:ag.id)
    @@ fun () ->
    with_lock ag.reg (fun () ->
        match ag.mode with
        | No_tx -> ()
        | Hw _ ->
          if Atomic.get ag.doomed then begin
            cleanup ag;
            conflict_abort ag.reg
          end
          else flush ag
        | Sw ->
          if
            List.for_all
              (fun (idx, v) -> Segment.get ag.reg.segment idx = v)
              ag.norec
          then flush ag
          else begin
            cleanup ag;
            conflict_abort ag.reg
          end)

(** Abort cleanup: drop the redo buffer and unpublish.  Idempotent (the
    commit path already cleaned up when it raised [Conflict] itself). *)
let tx_abort ag =
  match ag.mode with
  | No_tx -> ()
  | Hw _ | Sw -> with_lock ag.reg (fun () -> cleanup ag)

(** This agent will perform no further shared operations. *)
let finish ag = Interleave.finish ag.reg.sched ~agent:ag.id

(* ------------------------------------------------------------------ *)
(* The MiniJS surface: dispatch for the heap's [shared] closure. *)

let arg n args = match List.nth_opt args n with Some v -> v | None -> Value.Undef

let op_class : Heap.shared_op -> op_class = function
  | Heap.Sh_read | Heap.Sh_load -> Op_load
  | Heap.Sh_write | Heap.Sh_store -> Op_store
  | Heap.Sh_add | Heap.Sh_sub | Heap.Sh_exchange | Heap.Sh_cas -> Op_rmw
  | Heap.Sh_fence -> Op_fence
  | Heap.Sh_size -> Op_load  (* never dispatched: answered without a turn *)

(** One shared operation: take a scheduler turn, journal the access in the
    heap's transaction log through [Heap.note_load]/[note_store] (so
    in-transaction segment traffic counts against HTM capacity and STM
    access overheads exactly like private-heap traffic — synthetic segment
    addresses, no journal entry since the redo buffer owns rollback), then
    execute under the registry lock.  [Fun.protect] releases the turn even
    when the operation aborts the transaction. *)
let dispatch ag heap (op : Heap.shared_op) (args : Value.t list) : Value.t =
  let reg = ag.reg in
  let seg = reg.segment in
  match op with
  | Heap.Sh_size -> Value.int_ (Segment.length seg)
  | _ ->
    Interleave.begin_op reg.sched ~agent:ag.id;
    Fun.protect ~finally:(fun () -> Interleave.end_op reg.sched ~agent:ag.id)
    @@ fun () ->
    let result =
      match op with
      | Heap.Sh_fence ->
        with_lock reg (fun () -> check_doomed ag);
        Value.int_ 0
      | _ ->
        let idx = Segment.wrap seg (Value.to_int32 (arg 0 args)) in
        let addr = Segment.addr_of seg idx in
        (match op with
        | Heap.Sh_read | Heap.Sh_load ->
          Heap.note_load heap addr Segment.word_bytes;
          Value.int_ (with_lock reg (fun () -> read_idx ag idx))
        | Heap.Sh_write | Heap.Sh_store ->
          let v = Ops.wrap_int32 (Value.to_int32 (arg 1 args)) in
          Heap.note_store heap addr Segment.word_bytes;
          with_lock reg (fun () -> write_idx ag idx v);
          Value.int_ v
        | Heap.Sh_add | Heap.Sh_sub | Heap.Sh_exchange ->
          let operand = Value.to_int32 (arg 1 args) in
          let f old =
            match op with
            | Heap.Sh_add -> Ops.wrap_int32 (old + operand)
            | Heap.Sh_sub -> Ops.wrap_int32 (old - operand)
            | _ -> Ops.wrap_int32 operand
          in
          Heap.note_load heap addr Segment.word_bytes;
          Heap.note_store heap addr Segment.word_bytes;
          Value.int_ (with_lock reg (fun () -> rmw_idx ag idx f))
        | Heap.Sh_cas ->
          let expected = Value.to_int32 (arg 1 args) in
          let repl = Ops.wrap_int32 (Value.to_int32 (arg 2 args)) in
          let f old = if old = expected then repl else old in
          Heap.note_load heap addr Segment.word_bytes;
          Heap.note_store heap addr Segment.word_bytes;
          Value.int_ (with_lock reg (fun () -> rmw_idx ag idx f))
        | Heap.Sh_size | Heap.Sh_fence -> assert false)
    in
    ag.note (op_class op);
    result

(** Attach this agent to a VM's heap: [Shared]/[Atomics] intrinsics
    dispatch here from any tier. *)
let install ag heap = heap.Heap.shared <- Some (dispatch ag heap)
