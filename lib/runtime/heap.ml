(** The simulated heap: allocation with simulated addresses, plus every
    object/array/string access path.

    All memory traffic funnels through [note_load]/[note_store].  The heap
    owns the transaction bookkeeping.  While a transaction is open (the HTM
    layer opens [log] at XBegin and closes it at commit or rollback), every
    load and store appends to it directly: read/write counts and the
    cache-line footprints that decide capacity go to the per-transaction
    [log]; old values go to the heap's one flat undo [journal], which every
    transaction on this heap reuses.  ROT, RTM and the STM fallback differ
    only in the log's [hardware] flag and footprints.  Outside transactions
    [log] is [None]: the hot paths test that one field and call nothing.
    Inside, the first store to a slot or element pushes (storage array,
    index, old value) onto the journal and allocates nothing.

    Addresses are fictitious but behave like real ones: allocation bumps a
    pointer, property storage and array storage get their own regions, and
    growing an array moves its storage to a fresh region (butterfly
    reallocation in JavaScriptCore terms). *)

module Footprint = Nomap_cache.Footprint

(** The rare events the log cannot settle itself. *)
type limit =
  | Write_set_full  (** a store overflowed the hardware write footprint *)
  | Read_set_full  (** a load overflowed the hardware read footprint (RTM) *)
  | Io  (** observable I/O attempted inside the transaction (paper V-A) *)

(** The per-transaction part of the log. *)
type log = {
  mutable reads : int;
  mutable writes : int;
  write_fp : Footprint.t;  (** recorded in every mode (Table IV) *)
  read_fp : Footprint.t option;  (** RTM only *)
  mutable hardware : bool;  (** enforce capacity, track reads; cleared by the STM upgrade *)
  on_limit : limit -> unit;  (** the HTM policy: abort, or upgrade to STM and return *)
}

(** The undo journal, newest entry last: entry [k] restores
    [cells.(k).(idx.(k)) <- old.(k)].  Slot and element storage are both
    [Value.t array], so one entry kind covers every ordinary store.  The
    four rare mutations (shape transition, array growth, length change,
    PRNG step) push a marker ([idx = -1]) and keep their undo closure in
    [rare], newest first, so rollback still replays everything in one
    newest-first pass.  Allocated once per heap, grown by doubling, never
    shrunk; closing the log clears the used prefix so no journaled value
    outlives its transaction.

    Only the first store to a location in a transaction is journaled:
    rollback needs just the pre-transaction value, and the old values of
    later stores were written inside the transaction, so keeping them
    would only carry young values across minor collections.  [written]
    is the set of simulated addresses the open transaction has journaled,
    open-addressed with linear probing: slot [k] holds address
    [written.(2k)] if [written.(2k+1) = epoch], else it is free, so
    closing the log empties the set by bumping [epoch].  Simulated
    addresses are never reused, so within a transaction one address
    names one storage cell. *)
type journal = {
  mutable cells : Value.t array array;
  mutable idx : int array;
  mutable old : Value.t array;
  mutable n : int;
  mutable rare : (unit -> unit) list;
  mutable written : int array;
  mutable written_shift : int;  (** [Sys.int_size - log2 (slots of written)] *)
  mutable written_count : int;
  mutable epoch : int;
}

(** Operations on the VM's attached shared segment (SharedArrayBuffer-style;
    DESIGN.md §16).  The runtime layer only names them; the implementation
    lives in [lib/shared] and is installed as the [shared] closure below, so
    [Intrinsics.eval] can dispatch without a dependency cycle. *)
type shared_op =
  | Sh_read  (** Shared.read(i) — plain (non-atomic) element read *)
  | Sh_write  (** Shared.write(i, v) — plain element write; returns v *)
  | Sh_size  (** Shared.size() — element count *)
  | Sh_load  (** Atomics.load(i) *)
  | Sh_store  (** Atomics.store(i, v) — returns v *)
  | Sh_add  (** Atomics.add(i, v) — returns the old value *)
  | Sh_sub  (** Atomics.sub(i, v) — returns the old value *)
  | Sh_exchange  (** Atomics.exchange(i, v) — returns the old value *)
  | Sh_cas  (** Atomics.compareExchange(i, expected, v) — returns the old value *)
  | Sh_fence  (** Atomics.fence() — SC fence; returns 0 *)

type t = {
  mutable next_addr : int;
  mutable next_oid : int;
  mutable next_aid : int;
  mutable next_sid : int;
  shapes : Shape.universe;
  mutable log : log option;  (** the open transaction's log *)
  journal : journal;  (** the open transaction's undo entries *)
  prng : Nomap_util.Prng.t;  (** backs Math.random deterministically *)
  mutable bytes_allocated : int;
  mutable shared : (shared_op -> Value.t list -> Value.t) option;
      (** agent-runtime dispatch for [shared_op]; [None] until an agent
          attaches a segment (Agent.install) *)
}

let journal_capacity = 32
let written_bits = 5

let create ?(seed = 42) () =
  {
    next_addr = 0x10000;
    next_oid = 0;
    next_aid = 0;
    next_sid = 0;
    shapes = Shape.create_universe ();
    log = None;
    journal =
      {
        cells = Array.make journal_capacity [||];
        idx = Array.make journal_capacity 0;
        old = Array.make journal_capacity Value.Undef;
        n = 0;
        rare = [];
        written = Array.make (2 lsl written_bits) 0;
        written_shift = Sys.int_size - written_bits;
        written_count = 0;
        epoch = 1;
      };
    prng = Nomap_util.Prng.create ~seed;
    bytes_allocated = 0;
    shared = None;
  }

let word_bytes = 8

(* ------------------------------------------------------------------ *)
(* The transaction log *)

let grow_journal j =
  let cap = 2 * Array.length j.idx in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 j.n;
    b
  in
  j.cells <- extend j.cells [||];
  j.idx <- extend j.idx 0;
  j.old <- extend j.old Value.Undef

let[@inline] journal_push j (cells : Value.t array) i old =
  if j.n = Array.length j.idx then grow_journal j;
  let n = j.n in
  Array.unsafe_set j.cells n cells;
  Array.unsafe_set j.idx n i;
  Array.unsafe_set j.old n old;
  j.n <- n + 1

(* Fibonacci hashing: the top bits of [addr * golden] pick the slot. *)
let golden = 0x278D_DE6E_5FD2_9F05

(* [true] the first time [addr] is stored to in this transaction (and
   records it); [false] after that.  Probes from slot [k]. *)
let rec first_write_at j addr k =
  let w = j.written in
  if Array.unsafe_get w (2 * k + 1) <> j.epoch then begin
    Array.unsafe_set w (2 * k) addr;
    Array.unsafe_set w (2 * k + 1) j.epoch;
    j.written_count <- j.written_count + 1;
    if 4 * j.written_count >= Array.length w then grow_written j;
    true
  end
  else if Array.unsafe_get w (2 * k) = addr then false
  else first_write_at j addr ((k + 1) land ((Array.length w / 2) - 1))

(* Double [written], re-recording the open transaction's addresses. *)
and grow_written j =
  let old = j.written in
  j.written <- Array.make (2 * Array.length old) 0;
  j.written_shift <- j.written_shift - 1;
  j.written_count <- 0;
  for k = 0 to (Array.length old / 2) - 1 do
    if old.(2 * k + 1) = j.epoch then
      let addr = old.(2 * k) in
      ignore (first_write_at j addr ((addr * golden) lsr j.written_shift))
  done

(** Journal the current contents of [cells.(i)], at simulated address
    [addr], before a store — unless this transaction already has. *)
let[@inline] journal_old j (cells : Value.t array) i addr =
  if first_write_at j addr ((addr * golden) lsr j.written_shift) then
    journal_push j cells i cells.(i)

(** Journal a rare mutation: a marker entry, with its undo in [rare]. *)
let journal_rare j undo =
  j.rare <- undo :: j.rare;
  journal_push j [||] (-1) Value.Undef

(** Close the open transaction's log.  [~rollback:true] first undoes every
    journaled store, newest first.  Either way the journal's used prefix is
    cleared, so it keeps no value alive past its transaction. *)
let close_log t ~rollback =
  t.log <- None;
  let j = t.journal in
  if rollback then
    for k = j.n - 1 downto 0 do
      let i = j.idx.(k) in
      if i >= 0 then j.cells.(k).(i) <- j.old.(k)
      else
        match j.rare with
        | undo :: rest ->
          j.rare <- rest;
          undo ()
        | [] -> assert false
    done;
  Array.fill j.cells 0 j.n [||];
  Array.fill j.old 0 j.n Value.Undef;
  j.n <- 0;
  j.written_count <- 0;
  j.epoch <- j.epoch + 1;
  j.rare <- []

(** Install [log] as the open transaction's, discarding any journal left
    by a transaction that was never closed. *)
let open_log t log =
  if t.journal.n > 0 then close_log t ~rollback:false;
  t.log <- Some log

(** [Footprint.touch], with the repeated-line case settled inline: a
    single-line access to the footprint's last line changes nothing. *)
let[@inline] fp_touch (fp : Footprint.t) addr bytes =
  let line = addr lsr fp.Footprint.line_shift in
  (line = fp.Footprint.last
  && (addr + bytes - 1) lsr fp.Footprint.line_shift = line
  && not fp.Footprint.overflowed)
  || Footprint.touch fp ~addr ~bytes

(** Journal a load: counted in every mode, footprint-tracked by RTM
    hardware only. *)
let log_load l addr bytes =
  l.reads <- l.reads + 1;
  if l.hardware then
    match l.read_fp with
    | Some fp -> if not (fp_touch fp addr bytes) then l.on_limit Read_set_full
    | None -> ()

(** Count a store to [addr].  The write footprint is recorded in every
    mode; only hardware enforces it. *)
let log_store l addr bytes =
  l.writes <- l.writes + 1;
  if (not (fp_touch l.write_fp addr bytes)) && l.hardware then l.on_limit Write_set_full

let[@inline] note_load t addr bytes =
  match t.log with None -> () | Some l -> log_load l addr bytes

(** Count a store the heap does not own (the agents' redo-buffered
    segment traffic): no journal entry. *)
let note_store t addr bytes =
  match t.log with None -> () | Some l -> log_store l addr bytes

(** Called before any observable I/O: inside a transaction the I/O is
    irrevocable, so the log's policy aborts. *)
let note_io t = match t.log with None -> () | Some l -> l.on_limit Io

let alloc_region t bytes =
  let bytes = (bytes + 15) land lnot 15 in
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + bytes;
  t.bytes_allocated <- t.bytes_allocated + bytes;
  addr

(* ------------------------------------------------------------------ *)
(* Strings *)

let alloc_string t s : Value.jsstring =
  let sid = t.next_sid in
  t.next_sid <- t.next_sid + 1;
  let saddr = alloc_region t (16 + String.length s) in
  { Value.sid; sdata = s; saddr }

let str t s = Value.Str (alloc_string t s)

(* ------------------------------------------------------------------ *)
(* Objects *)

let initial_slot_capacity = 4

let alloc_object t : Value.obj =
  let oid = t.next_oid in
  t.next_oid <- t.next_oid + 1;
  let oaddr = alloc_region t 16 in
  let slots_addr = alloc_region t (initial_slot_capacity * word_bytes) in
  {
    Value.oid;
    shape = Shape.root t.shapes;
    slots = Array.make initial_slot_capacity Value.Undef;
    oaddr;
    slots_addr;
  }

let slot_addr (o : Value.obj) slot = o.slots_addr + (slot * word_bytes)

(** Read a property slot directly (the FTL fast path after a shape check). *)
let load_slot t (o : Value.obj) slot =
  note_load t (slot_addr o slot) word_bytes;
  o.Value.slots.(slot)

(** Write a property slot directly (fast path after a shape check). *)
let store_slot t (o : Value.obj) slot v =
  (match t.log with
  | Some l ->
    let addr = slot_addr o slot in
    journal_old t.journal o.Value.slots slot addr;
    log_store l addr word_bytes
  | None -> ());
  o.Value.slots.(slot) <- v

(** Generic property read by pre-resolved slot (the host-IC hit path): the
    same shape-word read the inline-cache probe performs, then the slot.
    [slot] is -1 when the property is absent. *)
let get_prop_slot t (o : Value.obj) slot =
  note_load t o.Value.oaddr word_bytes;
  if slot >= 0 then load_slot t o slot else Value.Undef

(** Generic property read by symbol ([sym] may be -1: never interned). *)
let get_prop_sym t (o : Value.obj) sym = get_prop_slot t o (Shape.slot_of o.Value.shape sym)

(** Generic property read (the Baseline/runtime path).  Reads the shape word
    too, as the inline-cache probe would. *)
let get_prop t (o : Value.obj) name =
  get_prop_sym t o (Shape.find_sym t.shapes name)

(** Transition fast path: the caller has verified the object's current
    shape; install [new_shape] and store the added property's value (the
    FTL-compiled constructor pattern).  Journals both mutations. *)
let transition_store t (o : Value.obj) new_shape slot v =
  let old_slots = o.Value.slots in
  let need_grow = slot >= Array.length old_slots in
  let new_slots =
    if need_grow then begin
      let grown = Array.make (max 4 (2 * Array.length old_slots)) Value.Undef in
      Array.blit old_slots 0 grown 0 (Array.length old_slots);
      grown
    end
    else old_slots
  in
  let new_slots_addr =
    if need_grow then alloc_region t (Array.length new_slots * word_bytes)
    else o.Value.slots_addr
  in
  (match t.log with
  | Some l ->
    let old_shape = o.Value.shape in
    let old_slots_addr = o.Value.slots_addr in
    journal_rare t.journal (fun () ->
        o.Value.shape <- old_shape;
        o.Value.slots <- old_slots;
        o.Value.slots_addr <- old_slots_addr);
    log_store l o.Value.oaddr word_bytes
  | None -> ());
  o.Value.shape <- new_shape;
  o.Value.slots <- new_slots;
  o.Value.slots_addr <- new_slots_addr;
  store_slot t o slot v

(** Generic property write by (interned) symbol; transitions the shape when
    the property is new. *)
let set_prop_sym t (o : Value.obj) sym v =
  note_load t o.Value.oaddr word_bytes;
  match Shape.slot_of o.Value.shape sym with
  | -1 ->
    let new_shape = Shape.transition_sym t.shapes o.Value.shape sym in
    transition_store t o new_shape (new_shape.Shape.prop_count - 1) v
  | slot -> store_slot t o slot v

(** Generic property write; transitions the shape when [name] is new. *)
let set_prop t (o : Value.obj) name v = set_prop_sym t o (Shape.intern t.shapes name) v

(* ------------------------------------------------------------------ *)
(* Arrays *)

let alloc_array t len : Value.arr =
  let aid = t.next_aid in
  t.next_aid <- t.next_aid + 1;
  let capacity = max len 4 in
  let aaddr = alloc_region t 16 in
  let elems_addr = alloc_region t (capacity * word_bytes) in
  { Value.aid; elems = Array.make capacity Value.Hole; alen = len; aaddr; elems_addr }

let elem_addr (a : Value.arr) i = a.Value.elems_addr + (i * word_bytes)

(** Unchecked element read — the FTL fast path after a bounds check.  If the
    index is actually out of range (possible inside a doomed transaction when
    NoMap deferred the bounds check), return a deterministic garbage value;
    the transaction will abort before the result can matter. *)
let load_elem t (a : Value.arr) i =
  if i >= 0 && i < Array.length a.Value.elems then begin
    note_load t (elem_addr a i) word_bytes;
    a.Value.elems.(i)
  end
  else Value.Int 0

(** Unchecked element write (fast path).  Out-of-range writes inside a doomed
    transaction are dropped: real hardware would buffer and then discard them
    at abort. *)
let store_elem t (a : Value.arr) i v =
  if i >= 0 && i < Array.length a.Value.elems then begin
    (match t.log with
    | Some l ->
      let addr = elem_addr a i in
      journal_old t.journal a.Value.elems i addr;
      log_store l addr word_bytes
    | None -> ());
    a.Value.elems.(i) <- v
  end

let grow_array t (a : Value.arr) needed =
  let old_elems = a.Value.elems in
  let capacity = max needed (max 4 (2 * Array.length old_elems)) in
  let grown = Array.make capacity Value.Hole in
  Array.blit old_elems 0 grown 0 (Array.length old_elems);
  let grown_addr = alloc_region t (capacity * word_bytes) in
  (match t.log with
  | Some l ->
    let old_elems_addr = a.Value.elems_addr in
    journal_rare t.journal (fun () ->
        a.Value.elems <- old_elems;
        a.Value.elems_addr <- old_elems_addr);
    log_store l a.Value.aaddr word_bytes
  | None -> ());
  a.Value.elems <- grown;
  a.Value.elems_addr <- grown_addr

let set_length t (a : Value.arr) len =
  let old_len = a.Value.alen in
  if len <> old_len then begin
    (match t.log with
    | Some l ->
      journal_rare t.journal (fun () -> a.Value.alen <- old_len);
      log_store l a.Value.aaddr word_bytes
    | None -> ());
    a.Value.alen <- len
  end

(** Generic element read (Baseline/runtime path): bounds and hole handling
    per JS — out of range or hole reads yield [undefined], never crash. *)
let get_elem t (a : Value.arr) i =
  note_load t a.Value.aaddr word_bytes;
  if i < 0 || i >= a.Value.alen then Value.Undef
  else
    match load_elem t a i with
    | Value.Hole -> Value.Undef
    | v -> v

(** Generic element write: elongates the array as JS does. *)
let set_elem t (a : Value.arr) i v =
  note_load t a.Value.aaddr word_bytes;
  if i < 0 then ()
  else begin
    if i >= Array.length a.Value.elems then grow_array t a (i + 1);
    if i >= a.Value.alen then set_length t a (i + 1);
    store_elem t a i v
  end

let array_push t (a : Value.arr) v =
  set_elem t a a.Value.alen v;
  Value.int_ a.Value.alen

let array_pop t (a : Value.arr) =
  if a.Value.alen = 0 then Value.Undef
  else begin
    let i = a.Value.alen - 1 in
    let v = get_elem t a i in
    store_elem t a i Value.Hole;
    set_length t a i;
    v
  end

(* ------------------------------------------------------------------ *)

(* Math.random mutates the PRNG: journal the state like any store so a
   transactional rollback replays the same sequence. *)
let math_random t =
  (match t.log with
  | Some l ->
    let saved = Nomap_util.Prng.state t.prng in
    journal_rare t.journal (fun () -> Nomap_util.Prng.set_state t.prng saved);
    log_store l 8 (* fixed pseudo-address for the PRNG cell *) 8
  | None -> ());
  Nomap_util.Prng.float t.prng 1.0
