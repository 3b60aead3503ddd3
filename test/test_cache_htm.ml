(** Cache-model and HTM unit tests. *)

module Footprint = Nomap_cache.Footprint
module Cache = Nomap_cache.Cache
module Htm = Nomap_htm.Htm
module Heap = Nomap_runtime.Heap
module Value = Nomap_runtime.Value
module Shape = Nomap_runtime.Shape

let test_footprint_counts_lines () =
  let fp = Footprint.create ~sets:64 ~ways:8 ~line_bytes:64 in
  Alcotest.(check bool) "fits" true (Footprint.touch fp ~addr:0 ~bytes:8);
  Alcotest.(check bool) "same line" true (Footprint.touch fp ~addr:32 ~bytes:8);
  Alcotest.(check int) "one line" 64 (Footprint.bytes fp);
  ignore (Footprint.touch fp ~addr:64 ~bytes:8);
  Alcotest.(check int) "two lines" 128 (Footprint.bytes fp);
  (* Bytes 60..189 straddle three 64B lines. *)
  let fp2 = Footprint.create ~sets:64 ~ways:8 ~line_bytes:64 in
  ignore (Footprint.touch fp2 ~addr:60 ~bytes:130);
  Alcotest.(check int) "straddle" 3 (Footprint.bytes fp2 / 64)

let test_footprint_associativity_overflow () =
  let fp = Footprint.create ~sets:4 ~ways:2 ~line_bytes:64 in
  (* Lines mapping to set 0: line numbers 0, 4, 8 -> third one overflows. *)
  Alcotest.(check bool) "1st fits" true (Footprint.touch fp ~addr:0 ~bytes:8);
  Alcotest.(check bool) "2nd fits" true (Footprint.touch fp ~addr:(4 * 64) ~bytes:8);
  Alcotest.(check bool) "3rd overflows" false (Footprint.touch fp ~addr:(8 * 64) ~bytes:8);
  Alcotest.(check bool) "sticky" false (Footprint.fits fp);
  Alcotest.(check int) "max ways" 3 (Footprint.max_ways fp)

let test_footprint_scaled_geometry () =
  let full = Footprint.l1d () in
  let scaled = Footprint.l1d ~scale:8 () in
  Alcotest.(check int) "full sets" 64 full.Footprint.sets;
  Alcotest.(check int) "scaled sets" 8 scaled.Footprint.sets

let test_cache_lru () =
  let c = Cache.create ~size_bytes:(2 * 64 * 2) ~ways:2 ~line_bytes:64 in
  (* 2 sets, 2 ways. Lines 0, 2, 4 all map to set 0. *)
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  ignore (Cache.access c (2 * 64));
  (* line 2 *)
  ignore (Cache.access c (4 * 64));
  (* line 4 evicts line 0 (LRU) *)
  Alcotest.(check bool) "line 0 evicted" false (Cache.access c 0);
  Alcotest.(check bool) "line 4 still present" true (Cache.access c (4 * 64))

let test_cache_miss_rate () =
  let c = Cache.l1d () in
  Cache.reset c;
  for i = 0 to 99 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "all cold misses" 1.0 (Cache.miss_rate c);
  for i = 0 to 99 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "half hits now" 0.5 (Cache.miss_rate c)

let test_htm_commit_keeps_writes () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 4 in
  Heap.set_elem heap arr 0 (Value.Int 1);
  let tx =
    Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  Heap.set_elem heap arr 0 (Value.Int 42);
  Htm.commit tx;
  Alcotest.(check string) "write survives commit" "42"
    (Value.to_js_string (Heap.get_elem heap arr 0))

let test_htm_rollback_restores () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 4 in
  let obj = Heap.alloc_object heap in
  Heap.set_elem heap arr 0 (Value.Int 1);
  Heap.set_prop heap obj "x" (Value.Int 5);
  let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  Heap.set_elem heap arr 0 (Value.Int 42);
  Heap.set_elem heap arr 9 (Value.Int 7);
  Heap.set_prop heap obj "x" (Value.Int 99);
  Heap.set_prop heap obj "y" (Value.Int 1);
  Htm.rollback tx;
  Alcotest.(check string) "element restored" "1" (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check int) "length restored" 4 arr.Value.alen;
  Alcotest.(check string) "prop restored" "5" (Value.to_js_string (Heap.get_prop heap obj "x"));
  Alcotest.(check string) "added prop gone" "undefined"
    (Value.to_js_string (Heap.get_prop heap obj "y"))

let test_htm_write_footprint_tracked () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 64 in
  let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 0 to 63 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  (* 64 elements * 8B = 512B = 8 lines. *)
  Alcotest.(check bool) "footprint ~8 lines" true
    (Footprint.bytes tx.Htm.log.Heap.write_fp >= 8 * 64
    && Footprint.bytes tx.Htm.log.Heap.write_fp <= 10 * 64);
  Htm.commit tx

let test_htm_rtm_read_tracking () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 64 in
  for i = 0 to 63 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  let tx = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 0 to 63 do
    ignore (Heap.get_elem heap arr i)
  done;
  (match tx.Htm.log.Heap.read_fp with
  | Some fp -> Alcotest.(check bool) "reads tracked" true (Footprint.bytes fp > 0)
  | None -> Alcotest.fail "RTM must track reads");
  Htm.commit tx;
  let rot = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  Alcotest.(check bool) "ROT does not track reads" true (rot.Htm.log.Heap.read_fp = None);
  Htm.commit rot

let test_htm_capacity_abort () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  (* A tiny scaled RTM write set overflows quickly. *)
  let tx =
    Htm.begin_tx ~capacity_scale:64 heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0
      ~owner_frame:0
  in
  let aborted = ref false in
  (try
     for i = 0 to 4999 do
       Heap.set_elem heap arr i (Value.Int i)
     done
   with Htm.Abort Htm.Capacity_write -> aborted := true);
  Htm.rollback tx;
  Alcotest.(check bool) "capacity abort raised" true !aborted

(* Hybrid fallback: the same overflowing write sequence that capacity-aborts
   above must, with [stm_fallback], upgrade the transaction to Stm in place,
   keep executing, and commit with every write intact.  The fallback
   callback fires exactly once with the averted reason, and the prefix
   marks record how much work the doomed hardware attempt had done. *)
let test_htm_stm_fallback_commits () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  let averted = ref [] in
  let tx =
    Htm.begin_tx ~capacity_scale:64 ~stm_fallback:(fun r -> averted := r :: !averted) heap
      ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  for i = 0 to 4999 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  Alcotest.(check bool) "upgraded to Stm" true (tx.Htm.mode = Htm.Stm);
  (match !averted with
  | [ Htm.Capacity_write ] -> ()
  | _ -> Alcotest.failf "expected exactly one averted Capacity_write, got %d" (List.length !averted));
  Alcotest.(check bool) "prefix marks set" true
    (tx.Htm.stm_prefix_writes > 0
    && tx.Htm.stm_prefix_writes < tx.Htm.log.Heap.writes);
  Alcotest.(check int) "all writes counted" 5000 tx.Htm.log.Heap.writes;
  (* The write footprint keeps accumulating past the overflow (Table IV). *)
  Alcotest.(check bool) "footprint covers the whole write set" true
    (Footprint.bytes tx.Htm.log.Heap.write_fp >= 5000 * 8);
  Htm.commit tx;
  Alcotest.(check string) "first write survives" "0"
    (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check string) "last write survives" "4999"
    (Value.to_js_string (Heap.get_elem heap arr 4999))

(* A fallen-back transaction can still abort (a failed in-tx check raises
   through the machine): the undo journal spans the hardware prefix AND the
   software suffix, so rollback must restore the pre-transaction heap
   exactly. *)
let test_htm_stm_rollback_restores () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  Heap.set_elem heap arr 0 (Value.Int 7);
  let tx =
    Htm.begin_tx ~capacity_scale:64 ~stm_fallback:(fun _ -> ()) heap ~mode:Htm.Rtm
      ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  for i = 0 to 4999 do
    Heap.set_elem heap arr i (Value.Int (i + 1))
  done;
  Alcotest.(check bool) "fell back" true (tx.Htm.mode = Htm.Stm);
  Htm.rollback tx;
  Alcotest.(check string) "pre-tx write restored" "7"
    (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check string) "speculative suffix write gone" "undefined"
    (Value.to_js_string (Heap.get_elem heap arr 4999))

(* Small geometries so sets overflow: line count, maximum associativity and
   the fit verdict must match a brute-force count of distinct lines per set.
   Batches are long enough to grow the line table several times, repeat
   accesses in runs (the [last]-line memo), and are separated by [clear].
   Each batch also replays reversed right after its forward run, so its
   first access hits the line the forward run touched last: [clear] must
   forget the memo. *)
let qcheck_footprint_line_count =
  QCheck2.Test.make ~name:"footprint counts distinct lines" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 4)
        (list_size (int_range 1 3)
           (list_size (int_range 1 400)
              (triple (int_range 0 100_000) (int_range 1 130) (int_range 1 4)))))
    (fun (sets, ways, batches) ->
      let fp = Footprint.create ~sets ~ways ~line_bytes:64 in
      (* A run of [repeat] accesses creeping forward from [addr]. *)
      let runs batch =
        List.concat_map
          (fun (addr, bytes, repeat) -> List.init repeat (fun k -> (addr + k, bytes)))
          batch
      in
      List.for_all
        (fun accesses ->
          Footprint.clear fp;
          List.iter (fun (addr, bytes) -> ignore (Footprint.touch fp ~addr ~bytes)) accesses;
          let lines_of (a, b) =
            List.init (((a + b - 1) / 64) - (a / 64) + 1) (fun k -> (a / 64) + k)
          in
          let distinct = List.sort_uniq compare (List.concat_map lines_of accesses) in
          let per_set = Array.make sets 0 in
          List.iter (fun line -> per_set.(line mod sets) <- per_set.(line mod sets) + 1) distinct;
          let max_ways = Array.fold_left max 0 per_set in
          Footprint.bytes fp = 64 * List.length distinct
          && Footprint.max_ways fp = max_ways
          && Footprint.fits fp = (max_ways <= ways))
        (List.concat_map (fun batch -> [ runs batch; List.rev (runs batch) ]) batches))

let test_footprint_rejects_odd_line_size () =
  Alcotest.check_raises "48-byte lines"
    (Invalid_argument "Footprint.create: line_bytes must be a power of two") (fun () ->
      ignore (Footprint.create ~sets:4 ~ways:2 ~line_bytes:48))

let qcheck_rollback_is_identity =
  QCheck2.Test.make ~name:"tx rollback restores arbitrary write sequences" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 19) (int_range (-100) 100)))
    (fun writes ->
      let heap = Heap.create () in
      let arr = Heap.alloc_array heap 10 in
      for i = 0 to 9 do
        Heap.set_elem heap arr i (Value.Int (i * 100))
      done;
      let before = List.init 10 (fun i -> Value.to_js_string (Heap.get_elem heap arr i)) in
      let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
      List.iter (fun (i, v) -> Heap.set_elem heap arr i (Value.Int v)) writes;
      Htm.rollback tx;
      let after = List.init 10 (fun i -> Value.to_js_string (Heap.get_elem heap arr i)) in
      before = after && arr.Value.alen = 10)

(* Regression: the slot table ("butterfly") reallocating while a
   transaction journals must roll back completely — shape, slot-table
   address and every speculative write — and leave pre-tx slot addresses
   untouched.  An object crosses [initial_slot_capacity] (4) inside the
   transaction, interleaved with transitions on a second object so the
   journal interleaves both objects' slot entries and transition markers. *)
let test_slot_growth_under_tx () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap in
  let b = Heap.alloc_object heap in
  Heap.set_prop heap a "p0" (Value.Int 0);
  Heap.set_prop heap a "p1" (Value.Int 1);
  let pre_shape = a.Value.shape.Shape.id in
  let pre_slots_addr = a.Value.slots_addr in
  let tx = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 2 to 7 do
    Heap.set_prop heap a (Printf.sprintf "p%d" i) (Value.Int i);
    Heap.set_prop heap b (Printf.sprintf "q%d" i) (Value.Int (i * 10))
  done;
  Alcotest.(check bool) "slot table reallocated in tx" true
    (a.Value.slots_addr <> pre_slots_addr);
  Alcotest.(check string) "p7 visible in tx" "7"
    (Value.to_js_string (Heap.get_prop heap a "p7"));
  Htm.rollback tx;
  Alcotest.(check int) "shape restored" pre_shape a.Value.shape.Shape.id;
  Alcotest.(check int) "slot-table address restored" pre_slots_addr a.Value.slots_addr;
  Alcotest.(check string) "pre-tx p0 kept" "0" (Value.to_js_string (Heap.get_prop heap a "p0"));
  Alcotest.(check string) "pre-tx p1 kept" "1" (Value.to_js_string (Heap.get_prop heap a "p1"));
  Alcotest.(check string) "speculative p5 gone" "undefined"
    (Value.to_js_string (Heap.get_prop heap a "p5"));
  Alcotest.(check int) "b rolled back to root" 0 b.Value.shape.Shape.prop_count;
  (* Same writes again, committed this time: growth must stick. *)
  let tx2 = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 2 to 7 do
    Heap.set_prop heap a (Printf.sprintf "p%d" i) (Value.Int i)
  done;
  let grown_addr = a.Value.slots_addr in
  Htm.commit tx2;
  Alcotest.(check int) "grown slot table survives commit" grown_addr a.Value.slots_addr;
  Alcotest.(check string) "committed p7 kept" "7"
    (Value.to_js_string (Heap.get_prop heap a "p7"));
  Alcotest.(check int) "eight props" 8 a.Value.shape.Shape.prop_count

(* The undo journal under every kind of mutation the heap journals: slot
   stores, element stores (in range, out of range, elongating), array
   growth, push/pop, shape transitions (with slot-table growth) and
   Math.random, interleaved at random.  Rollback must restore the full heap
   state: every value, shape, length, storage array and address, and the
   PRNG.  Run once under ROT and once under an RTM transaction that a
   store spray upgrades to STM part-way through. *)
type journal_op =
  | Prop of int * int * int  (** object, property, value: slot store or transition *)
  | Elem of int * int * int  (** array, index, value: [set_elem], may grow *)
  | Store_elem of int * int * int  (** the unchecked fast path, may be dropped *)
  | Push of int * int
  | Pop of int
  | Random

let journal_op_gen =
  QCheck2.Gen.(
    let v = int_range (-50) 50 in
    oneof
      [
        map3 (fun o p x -> Prop (o, p, x)) (int_range 0 2) (int_range 0 7) v;
        map3 (fun a i x -> Elem (a, i, x)) (int_range 0 1) (int_range 0 40) v;
        map3 (fun a i x -> Store_elem (a, i, x)) (int_range 0 1) (int_range (-2) 12) v;
        map2 (fun a x -> Push (a, x)) (int_range 0 1) v;
        map (fun a -> Pop a) (int_range 0 1);
        pure Random;
      ])

let qcheck_journal_rollback =
  QCheck2.Test.make ~name:"journal rollback restores every mutation kind" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 1 60) journal_op_gen) (int_range 0 60))
    (fun (ops, spray_at) ->
      let run ~rtm =
        let heap = Heap.create () in
        let objs = Array.init 3 (fun _ -> Heap.alloc_object heap) in
        let arrs = Array.init 2 (fun k -> Heap.alloc_array heap (3 + k)) in
        let big = Heap.alloc_array heap 200 in
        Array.iteri (fun k o -> Heap.set_prop heap o "p0" (Value.Int k)) objs;
        Heap.set_elem heap arrs.(0) 1 (Value.Int 11);
        ignore (Heap.math_random heap);
        let show v = match v with Value.Hole -> "<hole>" | v -> Value.to_js_string v in
        let state () =
          ( Array.map
              (fun (o : Value.obj) ->
                (o.Value.shape.Shape.id, o.Value.slots_addr, Array.map show o.Value.slots))
              objs,
            Array.map
              (fun (a : Value.arr) ->
                (a.Value.alen, a.Value.elems_addr, Array.map show a.Value.elems))
              arrs,
            Nomap_util.Prng.state heap.Heap.prng )
        in
        let storage () =
          Array.to_list (Array.map (fun (o : Value.obj) -> o.Value.slots) objs)
          @ Array.to_list (Array.map (fun (a : Value.arr) -> a.Value.elems) arrs)
        in
        let before = state () and before_storage = storage () in
        let tx =
          if rtm then
            Htm.begin_tx ~capacity_scale:64 ~stm_fallback:ignore heap ~mode:Htm.Rtm
              ~snapshot:[] ~resume_pc:0 ~owner_frame:0
          else Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0
        in
        List.iteri
          (fun k op ->
            if rtm && k = min spray_at (List.length ops - 1) then
              for i = 0 to 199 do
                Heap.set_elem heap big i (Value.Int i)
              done;
            match op with
            | Prop (o, p, x) -> Heap.set_prop heap objs.(o) (Printf.sprintf "p%d" p) (Value.Int x)
            | Elem (a, i, x) -> Heap.set_elem heap arrs.(a) i (Value.Int x)
            | Store_elem (a, i, x) -> Heap.store_elem heap arrs.(a) i (Value.Int x)
            | Push (a, x) -> ignore (Heap.array_push heap arrs.(a) (Value.Int x))
            | Pop a -> ignore (Heap.array_pop heap arrs.(a))
            | Random -> ignore (Heap.math_random heap))
          ops;
        let upgraded = tx.Htm.mode = Htm.Stm in
        Htm.rollback tx;
        (not rtm || upgraded)
        && state () = before
        && List.for_all2 ( == ) (storage ()) before_storage
        && Array.for_all (fun v -> v = Value.Hole) big.Value.elems
        && heap.Heap.journal.Heap.n = 0
      in
      run ~rtm:false && run ~rtm:true)

(* The heap reuses one journal across transactions: rolling back the
   second must not touch what the first committed, even after the second
   grew the journal past its initial capacity and stored again to
   locations the first had journaled. *)
let test_journal_reuse () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 4 in
  let obj = Heap.alloc_object heap in
  let begin_rot () = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  let tx1 = begin_rot () in
  Heap.set_elem heap arr 0 (Value.Int 1);
  Heap.set_prop heap obj "x" (Value.Int 1);
  ignore (Heap.array_push heap arr (Value.Int 5));
  Htm.commit tx1;
  let tx2 = begin_rot () in
  Heap.set_prop heap obj "x" (Value.Int 2);
  for i = 0 to 99 do
    Heap.set_elem heap arr i (Value.Int (-i))
  done;
  Heap.set_prop heap obj "y" (Value.Int 2);
  Alcotest.(check bool) "journal grew" true (heap.Heap.journal.Heap.n > 100);
  (* [x] was journaled before the written-address set grew, [arr.(99)]
     after: repeated stores to either add no entry. *)
  let n = heap.Heap.journal.Heap.n in
  for i = 0 to 9 do
    Heap.set_prop heap obj "x" (Value.Int i);
    Heap.store_elem heap arr 99 (Value.Int i)
  done;
  Alcotest.(check int) "a location is journaled once per transaction" n heap.Heap.journal.Heap.n;
  Htm.rollback tx2;
  Alcotest.(check string) "tx1 element kept" "1" (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check string) "tx1 push kept" "5" (Value.to_js_string (Heap.get_elem heap arr 4));
  Alcotest.(check int) "tx1 length kept" 5 arr.Value.alen;
  Alcotest.(check string) "tx1 prop kept" "1" (Value.to_js_string (Heap.get_prop heap obj "x"));
  Alcotest.(check string) "tx2 prop gone" "undefined"
    (Value.to_js_string (Heap.get_prop heap obj "y"));
  Alcotest.(check int) "journal empty" 0 heap.Heap.journal.Heap.n

(* Closing the log must clear the journal: a value it holds only as an old
   value is garbage once the transaction ends.  [v] sits in an array that
   only the journal still references after this non-inlined function
   returns (no stack slot of the caller keeps either alive); the store
   inside the transaction journals both the array and [v]. *)
let[@inline never] journal_only_old_value heap ~rollback =
  let tmp = Heap.alloc_array heap 1 in
  let v = Value.Str (Heap.alloc_string heap (String.make 64 'x')) in
  Heap.store_elem heap tmp 0 v;
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  Heap.store_elem heap tmp 0 (Value.Int 1);
  if rollback then Htm.rollback tx else Htm.commit tx;
  w

let test_journal_releases_old_values () =
  List.iter
    (fun rollback ->
      let heap = Heap.create () in
      let w = journal_only_old_value heap ~rollback in
      Gc.full_major ();
      Alcotest.(check bool)
        (if rollback then "collected after rollback" else "collected after commit")
        true
        (Option.is_none (Weak.get w 0));
      (* Keeps the heap, and so its journal, reachable across the GC. *)
      Alcotest.(check int) "journal empty" 0 heap.Heap.journal.Heap.n)
    [ false; true ]

let tests =
  [
    Alcotest.test_case "footprint counts lines" `Quick test_footprint_counts_lines;
    Alcotest.test_case "footprint associativity overflow" `Quick
      test_footprint_associativity_overflow;
    Alcotest.test_case "footprint scaled geometry" `Quick test_footprint_scaled_geometry;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache miss rate" `Quick test_cache_miss_rate;
    Alcotest.test_case "htm commit keeps writes" `Quick test_htm_commit_keeps_writes;
    Alcotest.test_case "htm rollback restores" `Quick test_htm_rollback_restores;
    Alcotest.test_case "htm write footprint" `Quick test_htm_write_footprint_tracked;
    Alcotest.test_case "htm rtm read tracking" `Quick test_htm_rtm_read_tracking;
    Alcotest.test_case "htm capacity abort" `Quick test_htm_capacity_abort;
    Alcotest.test_case "htm stm fallback commits" `Quick test_htm_stm_fallback_commits;
    Alcotest.test_case "htm stm rollback restores" `Quick test_htm_stm_rollback_restores;
    Alcotest.test_case "slot growth under tx" `Quick test_slot_growth_under_tx;
    Alcotest.test_case "footprint rejects odd line size" `Quick
      test_footprint_rejects_odd_line_size;
    Alcotest.test_case "journal reuse across transactions" `Quick test_journal_reuse;
    Alcotest.test_case "journal releases old values" `Quick test_journal_releases_old_values;
    QCheck_alcotest.to_alcotest qcheck_footprint_line_count;
    QCheck_alcotest.to_alcotest qcheck_journal_rollback;
    QCheck_alcotest.to_alcotest qcheck_rollback_is_identity;
  ]
