(** Transactional memory model.

    Two hardware modes from the paper, a modeled software mode, and a ghost
    mode for accounting:

    - [Rot] — IBM POWER8 Rollback-Only Transaction mode (paper §V-A): only
      the write footprint is buffered (in L2: 256KB, 8-way); commit
      flash-clears SW bits (5 cycles); XBegin costs a fence.  There is no
      read-set tracking because single-threaded JavaScript needs no conflict
      detection.
    - [Rtm] — Intel Restricted Transactional Memory (paper §VI-B): writes
      must fit L1D (32KB, 8-way), reads must fit L2, commit stalls ~13
      cycles, transactional reads are ~20% slower, and there is no SOF.
    - [Stm] — a modeled redo-log software transaction (DESIGN.md §15):
      unbounded footprint, no capacity aborts; every transactional access
      pays a configurable ownership-record/logging overhead charged by the
      timing model, not here.  A transaction is never *born* in this mode by
      the hybrid architecture — it is upgraded into it when an RTM capacity
      check fails (see [begin_tx]'s [stm_fallback]).
    - [Ghost] — no transactional semantics at all; used by the Base
      configuration so instruction accounting can still classify code by
      transaction region (paper Figures 8-11 break Base down the same way).

    The bookkeeping of every mode is the heap's: a per-transaction log
    ([Heap.log]: read/write counts and footprints) plus the heap's one
    flat undo journal, reused by every transaction on that heap.  The heap
    appends to both directly.  This module only opens the log (choosing
    the footprints and the [hardware] flag), sets its policy for the rare
    events ([on_limit]: capacity overflow and I/O), and closes it through
    [Heap.close_log].  Rollback replays the journal newest first: the
    paper's hardware buffers speculative lines in the cache; we restore
    mutated locations instead, which is observationally identical for a
    single-threaded run.  The STM mode reuses the same journal (our
    host-side undo journal stands in for the STM's redo log — both make the
    region's writes revocable, and for a single-threaded run commit/abort
    outcomes are indistinguishable). *)

module Heap = Nomap_runtime.Heap
module Value = Nomap_runtime.Value
module Footprint = Nomap_cache.Footprint

type mode = Rot | Rtm | Stm | Ghost

type abort_reason =
  | Check_failed of Nomap_lir.Lir.check_kind
  | Deopt_in_tx  (** irrevocable event: a lower-tier deopt fired inside a tx *)
  | Capacity_write
  | Capacity_read
  | Sof_overflow
  | Irrevocable  (** I/O attempted inside a transaction (paper V-A) *)
  | Watchdog  (** runaway transaction cut off by the simulator *)
  | Conflict
      (** cross-agent conflict: another agent touched this transaction's
          read/write footprint on a shared segment (or, for a fallen-back
          software transaction, NOrec value validation failed at commit) *)

let abort_reason_name = function
  | Check_failed k -> "check:" ^ Nomap_lir.Lir.check_kind_name k
  | Deopt_in_tx -> "deopt-in-tx"
  | Capacity_write -> "capacity-write"
  | Capacity_read -> "capacity-read"
  | Sof_overflow -> "sof-overflow"
  | Irrevocable -> "irrevocable-io"
  | Watchdog -> "watchdog"
  | Conflict -> "conflict"

exception Abort of abort_reason

type tx = {
  mutable mode : mode;
      (** mutable for exactly one transition: a hybrid RTM transaction
          upgrading to [Stm] on capacity overflow *)
  heap : Heap.t;
  log : Heap.log;  (** installed as [heap.log] while open (not for Ghost) *)
  mutable sof : bool;  (** sticky overflow flag (ROT + SOF hardware) *)
  mutable nesting : int;  (** flattened nesting depth *)
  snapshot : (int * Value.t) list;  (** baseline register state at XBegin *)
  resume_pc : int;  (** where Baseline restarts the region *)
  owner_frame : int;  (** machine frame that executed Tx_begin *)
  mutable instr_count : int;
  mutable stm_prefix_reads : int;
      (** [log.reads] at the HTM→STM upgrade point: accesses executed (and
          wasted) under hardware before the capacity overflow.  0 unless the
          transaction fell back. *)
  mutable stm_prefix_writes : int;  (** [log.writes] at the upgrade point *)
}

(** Upgrade a hardware transaction to the modeled software transaction
    in place: mark how much work the doomed hardware attempt had done (the
    timing model charges its re-execution), flip the mode, and clear the
    log's [hardware] flag: capacity is no longer enforced and reads no
    longer tracked.  The undo journal persists across the transition, so a
    later rollback (failed in-tx check) still restores the pre-[begin_tx]
    heap exactly.  In-place upgrade is observationally identical to
    "abort, then re-execute the region under STM" for a deterministic
    single-threaded run — the re-executed prefix would perform the same
    reads and writes — which is why the machine can keep running the
    NoMap-optimized code without materializing a restart. *)
let fallback_to_stm tx =
  tx.stm_prefix_reads <- tx.log.Heap.reads;
  tx.stm_prefix_writes <- tx.log.Heap.writes;
  tx.mode <- Stm;
  tx.log.Heap.hardware <- false

(* The log's policy for the rare events: I/O is always irrevocable; a
   capacity overflow aborts, or upgrades the transaction to software in
   place when the hybrid fallback is on. *)
let on_limit ?stm_fallback tx limit =
  let capacity reason =
    match stm_fallback with
    | Some notify ->
      notify reason;
      fallback_to_stm tx
    | None -> raise (Abort reason)
  in
  match limit with
  | Heap.Io -> raise (Abort Irrevocable)
  | Heap.Write_set_full -> capacity Capacity_write
  | Heap.Read_set_full -> capacity Capacity_read

(** Begin a transaction: snapshot is the architectural-register state the
    hardware checkpoints at XBegin.  [stm_fallback], when given, makes a
    capacity overflow upgrade the transaction to [Stm] (calling the
    function with the averted abort reason — integer bookkeeping only; any
    cycle charge belongs to the transaction's single finish point) instead
    of raising [Abort]. *)
let begin_tx ?(capacity_scale = 1) ?stm_fallback heap ~mode ~snapshot ~resume_pc
    ~owner_frame =
  let rec tx =
    {
      mode;
      heap;
      log =
        {
          Heap.reads = 0;
          writes = 0;
          write_fp = (if mode = Rtm then Footprint.l1d else Footprint.l2) ~scale:capacity_scale ();
          read_fp = (if mode = Rtm then Some (Footprint.l2 ~scale:capacity_scale ()) else None);
          hardware = mode <> Stm;
          on_limit = (fun limit -> on_limit ?stm_fallback tx limit);
        };
      sof = false;
      nesting = 1;
      snapshot;
      resume_pc;
      owner_frame;
      instr_count = 0;
      stm_prefix_reads = 0;
      stm_prefix_writes = 0;
    }
  in
  if mode <> Ghost then Heap.open_log heap tx.log;
  tx

(** Commit: speculative writes become permanent.  (The 5-cycle SW-bit
    flash-clear / 13-cycle RTM drain — and the STM write-back/validation —
    is charged by the timing model, not here.)  Clears the journal so the
    old values it held can be collected. *)
let commit tx = Heap.close_log tx.heap ~rollback:false

(** Abort: undo every speculative write, newest first, and drop the tx. *)
let rollback tx = Heap.close_log tx.heap ~rollback:true
