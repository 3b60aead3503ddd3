(** Transactional footprint tracking against a set-associative cache
    geometry.

    Hardware transactional memory keeps a transaction's speculative lines in
    the cache; the transaction aborts when a set would need more ways than
    the cache has.  This structure records the distinct cache lines touched
    in one flat line set, with a per-set count of the ways in use, and
    answers the two questions the paper's Table IV and the RTM capacity
    model need: total footprint (KB) and the maximum associativity any set
    requires.

    The line set is an open-addressed [int array] (power-of-two capacity,
    [-1] marks an empty slot, multiplicative hash, linear probing, grown at
    half load), so recording a line allocates nothing until the table
    doubles.  [last] memoizes the most recently touched line: repeated
    accesses to one line (the common case) skip the probe, and callers can
    test the memo inline before calling [touch]. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 [line_bytes] *)
  mutable table : int array;  (** open-addressed set of distinct lines; -1 = empty *)
  mutable hash_shift : int;  (** [Sys.int_size - log2 (Array.length table)] *)
  ways_used : int array;  (** set -> distinct lines touched in it *)
  mutable lines : int;
  mutable last : int;  (** the most recently touched line; -1 before any *)
  mutable overflowed : bool;
}

(* Small initial table: most transactions touch only a few lines. *)
let initial_bits = 4

let create ~sets ~ways ~line_bytes =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Footprint.create: line_bytes must be a power of two";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  {
    sets;
    ways;
    line_bytes;
    line_shift = log2 line_bytes;
    table = Array.make (1 lsl initial_bits) (-1);
    hash_shift = Sys.int_size - initial_bits;
    ways_used = Array.make sets 0;
    lines = 0;
    last = -1;
    overflowed = false;
  }

(** Geometry helpers for the paper's machine (64B lines).  [scale] divides
    the set count: the workloads are scaled down from the originals, so the
    experiments scale the modeled HTM capacity equally to keep the paper's
    footprint/capacity ratios (see DESIGN.md). *)
let l1d ?(scale = 1) () = create ~sets:(max 1 (32 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64
let l2 ?(scale = 1) () = create ~sets:(max 1 (256 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64

let clear t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  Array.fill t.ways_used 0 t.sets 0;
  t.lines <- 0;
  t.last <- -1;
  t.overflowed <- false

(* Fibonacci hashing: the top bits of [line * golden] index the table. *)
let golden = 0x278D_DE6E_5FD2_9F05

(* Place [line], known absent, at the first empty slot from [i]. *)
let rec insert table line i =
  if table.(i) = -1 then table.(i) <- line
  else insert table line ((i + 1) land (Array.length table - 1))

let grow t =
  let old = t.table in
  let table = Array.make (2 * Array.length old) (-1) in
  let hash_shift = t.hash_shift - 1 in
  Array.iter (fun line -> if line <> -1 then insert table line ((line * golden) lsr hash_shift)) old;
  t.table <- table;
  t.hash_shift <- hash_shift

(* Record [line] if it is new: probe from slot [i] until the line or an
   empty slot.  Top-level, so the probe allocates no closure. *)
let rec add t line i =
  let table = t.table in
  let x = Array.unsafe_get table i in
  if x = line then ()
  else if x = -1 then begin
    Array.unsafe_set table i line;
    t.lines <- t.lines + 1;
    let set = line mod t.sets in
    let used = t.ways_used.(set) + 1 in
    t.ways_used.(set) <- used;
    if used > t.ways then t.overflowed <- true;
    if 2 * t.lines >= Array.length table then grow t
  end
  else add t line ((i + 1) land (Array.length table - 1))

(** Record an access of [bytes] bytes at [addr]; returns [true] if the
    footprint still fits (every touched set needs <= ways lines). *)
let touch t ~addr ~bytes =
  let first = addr lsr t.line_shift in
  let last = (addr + max 1 bytes - 1) lsr t.line_shift in
  for line = first to last do
    if line <> t.last then begin
      add t line ((line * golden) lsr t.hash_shift);
      t.last <- line
    end
  done;
  not t.overflowed

let bytes t = t.lines * t.line_bytes
let kb t = float_of_int (bytes t) /. 1024.0

(** Maximum number of ways any set needs for this footprint. *)
let max_ways t = Array.fold_left max 0 t.ways_used

let fits t = not t.overflowed
