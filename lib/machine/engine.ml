(** Execution-engine accounting mode.

    There is one engine ([Threaded.exec_func]): every instruction's
    semantics is compiled once into a chain of OCaml closures.  The mode
    selects how that chain charges fuel, the transaction watchdog and the
    instruction/cycle counters.  Both modes must produce bit-identical
    results, heap contents and [Counters.t] — the fuzzer's engine axis and
    the engine-equivalence test suite enforce it.

    - [Decoded]: per-instruction accounting, the reference — every
      instruction burns, ticks and charges on its own, before it runs.
    - [Threaded]: segment-batched accounting — straight-line runs burn,
      tick and charge once per segment, with exact reconciliation on an
      early exit; the default. *)

type kind = Decoded | Threaded

let all = [ Decoded; Threaded ]
let default = Threaded
let name = function Decoded -> "decoded" | Threaded -> "threaded"

let of_string = function
  | "decoded" -> Some Decoded
  | "threaded" -> Some Threaded
  | _ -> None
