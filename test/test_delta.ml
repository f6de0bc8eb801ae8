(* Delta-table tests: window selection (σ_{a,b}), out-of-order appends,
   pruning, and the split/combine lemmas (Lemmas 4.1 and 4.2). *)

open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module H = Test_support.Helpers

let qtest = QCheck_alcotest.to_alcotest

let schema = Schema.make [ { Schema.name = "k"; ty = Value.T_int } ]

let delta_of rows =
  let d = Delta.create schema in
  List.iter (fun (k, count, ts) -> Delta.append d (Tuple.ints [ k ]) ~count ~ts) rows;
  d

let test_window_basic () =
  let d = delta_of [ (1, 1, 1); (2, 1, 2); (3, 1, 3); (4, 1, 4) ] in
  let w = Delta.window d ~lo:1 ~hi:3 in
  Alcotest.(check int) "half-open window" 2 (List.length w);
  Alcotest.(check int) "first is ts=2" 2 (List.hd w).Delta.ts;
  Alcotest.(check int) "empty window" 0 (Delta.window_count d ~lo:3 ~hi:3);
  Alcotest.(check int) "full window" 4 (Delta.window_count d ~lo:0 ~hi:99)

let test_window_out_of_order_appends () =
  (* View deltas receive compensation rows with old timestamps after newer
     rows have been appended; windows must still come out sorted. *)
  let d = delta_of [ (1, 1, 5); (2, 1, 2); (3, 1, 9); (4, 1, 2) ] in
  let ts_list = List.map (fun (r : Delta.row) -> r.ts) (Delta.window d ~lo:0 ~hi:10) in
  Alcotest.(check (list int)) "sorted with stable ties" [ 2; 2; 5; 9 ] ts_list;
  (* The two ts=2 rows must appear in arrival order. *)
  let ks =
    List.filter_map
      (fun (r : Delta.row) ->
        if r.ts = 2 then
          match Tuple.get r.tuple 0 with Value.Int k -> Some k | _ -> None
        else None)
      (Delta.window d ~lo:0 ~hi:10)
  in
  Alcotest.(check (list int)) "stable ties" [ 2; 4 ] ks

let test_zero_count_dropped () =
  let d = delta_of [ (1, 0, 1) ] in
  Alcotest.(check int) "zero-count rows dropped" 0 (Delta.length d)

let test_min_max_ts () =
  let d = delta_of [ (1, 1, 7); (2, 1, 3) ] in
  Alcotest.(check (option int)) "min" (Some 3) (Delta.min_ts d);
  Alcotest.(check (option int)) "max" (Some 7) (Delta.max_ts d);
  let e = Delta.create schema in
  Alcotest.(check (option int)) "empty min" None (Delta.min_ts e)

let test_net_effect () =
  let d = delta_of [ (1, 1, 1); (1, -1, 2); (2, 3, 2) ] in
  let net = Delta.net_effect d ~lo:0 ~hi:10 in
  Alcotest.(check int) "cancelled" 0 (Relation.count net (Tuple.ints [ 1 ]));
  Alcotest.(check int) "kept" 3 (Relation.count net (Tuple.ints [ 2 ]));
  let net1 = Delta.net_effect d ~lo:0 ~hi:1 in
  Alcotest.(check int) "window cut keeps insert" 1 (Relation.count net1 (Tuple.ints [ 1 ]))

let test_prune () =
  let d = delta_of [ (1, 1, 1); (2, 1, 5); (3, 1, 9) ] in
  Alcotest.(check int) "pruned" 2 (Delta.prune d ~upto:5);
  Alcotest.(check int) "remaining" 1 (Delta.length d);
  Alcotest.(check int) "window after prune" 1 (Delta.window_count d ~lo:0 ~hi:10);
  Alcotest.(check int) "prune nothing" 0 (Delta.prune d ~upto:5)

let test_append_conformance () =
  let d = Delta.create schema in
  Alcotest.(check bool) "bad tuple raises" true
    (try
       Delta.append d (Tuple.ints [ 1; 2 ]) ~count:1 ~ts:1;
       false
     with Invalid_argument _ -> true)

let test_copy_independent () =
  let d = delta_of [ (1, 1, 1) ] in
  let d' = Delta.copy d in
  Delta.append d' (Tuple.ints [ 2 ]) ~count:1 ~ts:2;
  Alcotest.(check int) "copy grew" 2 (Delta.length d');
  Alcotest.(check int) "original unchanged" 1 (Delta.length d)

let rows_gen =
  QCheck.Gen.(
    list_size (0 -- 30)
      (triple (int_range 0 4) (int_range (-2) 2) (int_range 1 20)))

let rows_arb =
  QCheck.make
    ~print:(fun rows ->
      String.concat ";"
        (List.map (fun (k, c, t) -> Printf.sprintf "(%d,%+d,@%d)" k c t) rows))
    rows_gen

(* Lemma 4.1: splitting a timed delta at t_x gives timed deltas of the
   sub-intervals; equivalently prefix windows compose. *)
let prop_window_split =
  QCheck.Test.make ~name:"lemma 4.1: sigma(0,x) + sigma(x,hi) = sigma(0,hi)"
    ~count:300
    QCheck.(pair rows_arb (int_range 0 20))
    (fun (rows, x) ->
      let d = delta_of rows in
      let a = Delta.net_effect d ~lo:0 ~hi:x in
      let b = Delta.net_effect d ~lo:x ~hi:20 in
      let whole = Delta.net_effect d ~lo:0 ~hi:20 in
      Relation.equal whole (Relation.union a b))

(* Lemma 4.2: concatenating deltas over adjacent intervals is a delta over
   the combined interval. *)
let prop_window_combine =
  QCheck.Test.make ~name:"lemma 4.2: adjacent deltas combine" ~count:300
    QCheck.(pair rows_arb rows_arb)
    (fun (rows_a, rows_b) ->
      (* rows_a stamped in (0,10], rows_b in (10,20] *)
      let clamp lo hi (k, c, t) = (k, c, lo + 1 + (t mod (hi - lo))) in
      let d = delta_of (List.map (clamp 0 10) rows_a @ List.map (clamp 10 20) rows_b) in
      let da = delta_of (List.map (clamp 0 10) rows_a) in
      let db = delta_of (List.map (clamp 10 20) rows_b) in
      Relation.equal
        (Delta.net_effect d ~lo:0 ~hi:20)
        (Relation.union
           (Delta.net_effect da ~lo:0 ~hi:10)
           (Delta.net_effect db ~lo:10 ~hi:20)))

let prop_apply_window_rolls =
  QCheck.Test.make ~name:"apply_window rolls a relation forward" ~count:300
    rows_arb
    (fun rows ->
      (* Build only non-negative running multiplicities to make a valid
         history: drop deletes that would go negative. *)
      let d = Delta.create schema in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (k, c, _) ->
          let cur = try Hashtbl.find counts k with Not_found -> 0 in
          let c = if cur + c < 0 then abs c else c in
          Hashtbl.replace counts k (cur + c))
        rows;
      (* re-stamp sequentially so the delta is a real history *)
      Hashtbl.reset counts;
      List.iteri
        (fun i (k, c, _) ->
          let cur = try Hashtbl.find counts k with Not_found -> 0 in
          let c = if cur + c < 0 then abs c else c in
          Hashtbl.replace counts k (cur + c);
          Delta.append d (Tuple.ints [ k ]) ~count:c ~ts:(i + 1))
        rows;
      let state = Relation.create schema in
      Delta.apply_window d ~lo:0 ~hi:(List.length rows) state;
      Relation.equal state (Delta.net_effect d ~lo:0 ~hi:(List.length rows)))

let suite =
  [
    Alcotest.test_case "window selection" `Quick test_window_basic;
    Alcotest.test_case "out-of-order appends" `Quick test_window_out_of_order_appends;
    Alcotest.test_case "zero-count appends dropped" `Quick test_zero_count_dropped;
    Alcotest.test_case "min/max timestamps" `Quick test_min_max_ts;
    Alcotest.test_case "net effect" `Quick test_net_effect;
    Alcotest.test_case "prune applied rows" `Quick test_prune;
    Alcotest.test_case "append conformance" `Quick test_append_conformance;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    qtest prop_window_split;
    qtest prop_window_combine;
    qtest prop_apply_window_rolls;
  ]

let test_compact () =
  let d =
    delta_of [ (1, 1, 5); (2, 1, 3); (1, -1, 5); (2, 2, 3); (3, 1, 5) ]
  in
  let before = Relation.to_list (Delta.net_effect d ~lo:0 ~hi:10) in
  let mid = Relation.to_list (Delta.net_effect d ~lo:0 ~hi:4) in
  let removed = Delta.compact d in
  (* (1,+1,@5) and (1,-1,@5) vanish; the two key-2 rows merge. *)
  Alcotest.(check int) "rows removed" 3 removed;
  Alcotest.(check int) "rows left" 2 (Delta.length d);
  Alcotest.(check (list (pair (Alcotest.testable Tuple.pp Tuple.equal) int)))
    "full window preserved" before
    (Relation.to_list (Delta.net_effect d ~lo:0 ~hi:10));
  Alcotest.(check (list (pair (Alcotest.testable Tuple.pp Tuple.equal) int)))
    "partial window preserved" mid
    (Relation.to_list (Delta.net_effect d ~lo:0 ~hi:4))

let prop_compact_preserves_windows =
  QCheck.Test.make ~name:"compact preserves every window" ~count:200 rows_arb
    (fun rows ->
      let d = delta_of rows in
      let d' = Delta.copy d in
      ignore (Delta.compact d');
      let ok = ref true in
      for a = 0 to 20 do
        for b = a to 20 do
          if
            not
              (Relation.equal
                 (Delta.net_effect d ~lo:a ~hi:b)
                 (Delta.net_effect d' ~lo:a ~hi:b))
          then ok := false
        done
      done;
      !ok)

(* A shared window cursor outlives the drain that built it: rewinding after
   concurrent appends must restart over the delta's caught-up index, seeing
   rows that landed (inside the window, out of timestamp order) after the
   first drain. *)
let test_window_cursor_rewind_after_append () =
  let d = delta_of [ (1, 1, 5); (2, 1, 2) ] in
  let c = Delta.window_cursor d ~lo:0 ~hi:10 in
  let ts_seen () = List.map (fun (r : Cursor.row) -> r.ts) (Cursor.to_list c) in
  Alcotest.(check (list int)) "first drain, timestamp order" [ 2; 5 ] (ts_seen ());
  Delta.append d (Tuple.ints [ 3 ]) ~count:1 ~ts:3;
  Delta.append d (Tuple.ints [ 4 ]) ~count:1 ~ts:12;
  Cursor.rewind c;
  Alcotest.(check (list int))
    "rewind picks up the in-window append, still excludes ts>hi" [ 2; 3; 5 ]
    (ts_seen ());
  Cursor.rewind c;
  Alcotest.(check (list int)) "rewind is repeatable" [ 2; 3; 5 ] (ts_seen ())

(* The timestamp index is caught up incrementally: a read sorts only the
   rows appended since the previous one and merges them in, [truncate]
   trims it, and [prune]/[compact] reset it. Under any interleaving of
   those with reads, every read must agree with a fresh stable sort
   of the arrival-order rows by timestamp. Appends are not followed by a
   check, so the tails that reads merge in are several rows long. *)
type index_op =
  | Append_next of int * int * int  (** key, count, ts gap after the last row *)
  | Append_at of int * int * int  (** key, count, ts *)
  | Truncate of int  (** rows to drop from the end *)
  | Prune of int
  | Compact
  | Read of int * int

let pp_index_op = function
  | Append_next (k, c, g) -> Printf.sprintf "next(%d,%+d,+%d)" k c g
  | Append_at (k, c, t) -> Printf.sprintf "at(%d,%+d,@%d)" k c t
  | Truncate n -> Printf.sprintf "truncate-%d" n
  | Prune t -> Printf.sprintf "prune<=%d" t
  | Compact -> "compact"
  | Read (lo, hi) -> Printf.sprintf "read(%d,%d]" lo hi

let index_ops_arb =
  let open QCheck.Gen in
  let key = int_range 0 3 and count = int_range (-2) 2 in
  let op =
    frequency
      [
        (6, map3 (fun k c g -> Append_next (k, c, g)) key count (int_range 0 2));
        (3, map3 (fun k c t -> Append_at (k, c, t)) key count (int_range 1 25));
        (1, map (fun n -> Truncate n) (int_range 0 4));
        (1, map (fun t -> Prune t) (int_range 0 25));
        (1, return Compact);
        (3, map2 (fun lo w -> Read (lo, lo + w)) (int_range 0 25) (int_range 0 10));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_index_op ops))
    (list_size (0 -- 80) op)

let prop_incremental_index =
  QCheck.Test.make ~name:"incremental index = fresh stable sort" ~count:300
    index_ops_arb (fun ops ->
      let d = Delta.create schema in
      let key (r : Delta.row) = (Tuple.hash r.tuple, r.count, r.ts) in
      let cursor_key (r : Cursor.row) = (Tuple.hash r.tuple, r.count, r.ts) in
      let cursor = Delta.window_cursor d ~lo:3 ~hi:18 in
      let last_ts () =
        match List.rev (Delta.to_list d) with [] -> 0 | r :: _ -> r.Delta.ts
      in
      let check () =
        let sorted =
          List.stable_sort
            (fun (a : Delta.row) (b : Delta.row) -> Int.compare a.ts b.ts)
            (Delta.to_list d)
        in
        let expect lo hi =
          List.filter (fun (r : Delta.row) -> lo < r.ts && r.ts <= hi) sorted
        in
        let window_ok (lo, hi) =
          let want = expect lo hi in
          List.map key (Delta.window d ~lo ~hi) = List.map key want
          && Delta.window_count d ~lo ~hi = List.length want
        in
        let bounds = [ -1; 0; 3; 7; 12; 18; 25; 40 ] in
        List.for_all
          (fun lo ->
            List.for_all (fun hi -> window_ok (lo, hi)) bounds)
          bounds
        && window_ok (min_int, max_int)
        && (Cursor.rewind cursor;
            List.map cursor_key (Cursor.to_list cursor)
            = List.map key (expect 3 18))
        && Delta.min_ts d
           = (match sorted with [] -> None | r :: _ -> Some r.ts)
        && Delta.max_ts d
           = (match List.rev sorted with [] -> None | r :: _ -> Some r.ts)
      in
      List.for_all
        (fun op ->
          (match op with
          | Append_next (k, count, gap) ->
              Delta.append d (Tuple.ints [ k ]) ~count ~ts:(last_ts () + gap)
          | Append_at (k, count, ts) -> Delta.append d (Tuple.ints [ k ]) ~count ~ts
          | Truncate n -> Delta.truncate d (max 0 (Delta.length d - n))
          | Prune upto -> ignore (Delta.prune d ~upto)
          | Compact -> ignore (Delta.compact d)
          | Read (lo, hi) -> ignore (Delta.window_count d ~lo ~hi));
          match op with Append_next _ | Append_at _ -> true | _ -> check ())
        ops
      && check ())

(* Appends in timestamp order never sort, and merging an out-of-order tail
   sorts only the tail: no read after the first one sorts the whole
   delta, however long it grows. *)
let test_index_sorts_only_tails () =
  let d = Delta.create schema in
  let before = Delta.full_sorts () in
  Delta.append d (Tuple.ints [ 0 ]) ~count:1 ~ts:1;
  ignore (Delta.window_count d ~lo:0 ~hi:1);
  Alcotest.(check int) "the first read builds the index" 1
    (Delta.full_sorts () - before);
  let before = Delta.full_sorts () in
  for ts = 2 to 1000 do
    Delta.append d (Tuple.ints [ ts mod 4 ]) ~count:1 ~ts;
    (* A late row, as a compensation query emits, every few appends. *)
    if ts mod 7 = 0 then Delta.append d (Tuple.ints [ 0 ]) ~count:1 ~ts:(ts - 5);
    if ts mod 3 = 0 then ignore (Delta.window_count d ~lo:0 ~hi:ts)
  done;
  Alcotest.(check int) "no full sorts while appending and reading" 0
    (Delta.full_sorts () - before);
  Delta.truncate d 500;
  ignore (Delta.window_count d ~lo:0 ~hi:2000);
  Alcotest.(check int) "truncate trims, it does not re-sort" 0
    (Delta.full_sorts () - before);
  ignore (Delta.compact d);
  ignore (Delta.window_count d ~lo:0 ~hi:2000);
  Alcotest.(check int) "compact re-sorts once" 1 (Delta.full_sorts () - before)

let suite =
  suite
  @ [
      Alcotest.test_case "compact" `Quick test_compact;
      qtest prop_compact_preserves_windows;
      Alcotest.test_case "window cursor rewind after appends" `Quick
        test_window_cursor_rewind_after_append;
      qtest prop_incremental_index;
      Alcotest.test_case "index sorts only appended tails" `Quick
        test_index_sorts_only_tails;
    ]
