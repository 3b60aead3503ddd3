(** Transactional footprint tracking against a set-associative cache
    geometry.

    HTM keeps a transaction's speculative lines in the cache; the
    transaction aborts when any set would need more ways than the cache
    has.  This records the distinct lines touched in one open-addressed
    int set, with a per-set count of ways in use, and answers the two
    questions Table IV and the RTM capacity model need: total footprint and
    the maximum associativity any set requires.  Recording a line allocates
    nothing until the table doubles. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 [line_bytes] *)
  mutable table : int array;  (** open-addressed set of distinct lines; -1 = empty *)
  mutable hash_shift : int;  (** [Sys.int_size - log2 (Array.length table)] *)
  ways_used : int array;  (** set -> distinct lines touched in it *)
  mutable lines : int;
  mutable last : int;
      (** the most recently touched line, -1 before any: a single-line
          access to it, while not [overflowed], is a no-op callers may skip *)
  mutable overflowed : bool;
}

(** Raises [Invalid_argument] unless [line_bytes] is a power of two. *)
val create : sets:int -> ways:int -> line_bytes:int -> t

(** Skylake L1D (32KB, 8-way, 64B lines); [scale] divides the set count to
    match scaled-down workloads (DESIGN.md §6). *)
val l1d : ?scale:int -> unit -> t

(** Skylake L2 (256KB, 8-way, 64B lines). *)
val l2 : ?scale:int -> unit -> t

val clear : t -> unit

(** Record an access; [false] once any set exceeds its ways (sticky). *)
val touch : t -> addr:int -> bytes:int -> bool

(** Distinct bytes touched (whole lines). *)
val bytes : t -> int

val kb : t -> float

(** Maximum ways any one set needs for this footprint. *)
val max_ways : t -> int

val fits : t -> bool
