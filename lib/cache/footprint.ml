(** Transactional footprint tracking against a set-associative cache
    geometry.

    Hardware transactional memory keeps a transaction's speculative lines in
    the cache; the transaction aborts when a set would need more ways than
    the cache has.  This structure records the distinct cache lines touched
    in one flat line set, with a per-set count of the ways in use, and
    answers the two questions the paper's Table IV and the RTM capacity
    model need: total footprint (KB) and the maximum associativity any set
    requires. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_set : (int, unit) Hashtbl.t;  (** distinct lines touched *)
  ways_used : int array;  (** set -> distinct lines touched in it *)
  mutable lines : int;
  mutable overflowed : bool;
}

let create ~sets ~ways ~line_bytes =
  (* Small initial table: most transactions touch only a few lines. *)
  let line_set = Hashtbl.create 16 and ways_used = Array.make sets 0 in
  { sets; ways; line_bytes; line_set; ways_used; lines = 0; overflowed = false }

(** Geometry helpers for the paper's machine (64B lines).  [scale] divides
    the set count: the workloads are scaled down from the originals, so the
    experiments scale the modeled HTM capacity equally to keep the paper's
    footprint/capacity ratios (see DESIGN.md). *)
let l1d ?(scale = 1) () = create ~sets:(max 1 (32 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64
let l2 ?(scale = 1) () = create ~sets:(max 1 (256 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64

let clear t =
  Hashtbl.reset t.line_set;
  Array.fill t.ways_used 0 t.sets 0;
  t.lines <- 0;
  t.overflowed <- false

(** Record an access of [bytes] bytes at [addr]; returns [true] if the
    footprint still fits (every touched set needs <= ways lines). *)
let touch t ~addr ~bytes =
  let first = addr / t.line_bytes in
  let last = (addr + max 1 bytes - 1) / t.line_bytes in
  for line = first to last do
    if not (Hashtbl.mem t.line_set line) then begin
      Hashtbl.replace t.line_set line ();
      t.lines <- t.lines + 1;
      let set = line mod t.sets in
      let used = t.ways_used.(set) + 1 in
      t.ways_used.(set) <- used;
      if used > t.ways then t.overflowed <- true
    end
  done;
  not t.overflowed

let bytes t = t.lines * t.line_bytes
let kb t = float_of_int (bytes t) /. 1024.0

(** Maximum number of ways any set needs for this footprint. *)
let max_ways t = Array.fold_left max 0 t.ways_used

let fits t = not t.overflowed
