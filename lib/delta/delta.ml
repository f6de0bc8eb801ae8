open Roll_relation
module Vec = Roll_util.Vec

type row = { tuple : Tuple.t; count : int; ts : Time.t }

type t = {
  schema : Schema.t;
  rows : row Vec.t;
  (* Positions into [rows] sorted by (ts, arrival), covering the first
     [indexed] rows; slots past [indexed] are spare capacity. Reads catch
     the index up with the rows appended since (see [catch_up]). *)
  mutable index : int array;
  mutable indexed : int;
}

(* Index builds that ordered every row of a delta anew: the first
   read of a delta, or the first read after [prune]/[compact]. *)
let full_sorts_count = Atomic.make 0

let full_sorts () = Atomic.get full_sorts_count

let create schema = { schema; rows = Vec.create (); index = [||]; indexed = 0 }

let schema t = t.schema

let append_row t row =
  if row.count <> 0 then begin
    if not (Tuple.conforms t.schema row.tuple) then
      invalid_arg "Delta.append: tuple does not conform to schema";
    Vec.push t.rows row
  end

let append t tuple ~count ~ts = append_row t { tuple; count; ts }

let length t = Vec.length t.rows

let truncate t n =
  if n < 0 then invalid_arg "Delta.truncate: negative length";
  while Vec.length t.rows > n do
    ignore (Vec.pop t.rows)
  done;
  (* Drop the index entries of the removed rows; the survivors keep their
     relative order, so the index stays sorted. *)
  if t.indexed > n then begin
    let j = ref 0 in
    for k = 0 to t.indexed - 1 do
      let i = t.index.(k) in
      if i < n then begin
        t.index.(!j) <- i;
        incr j
      end
    done;
    t.indexed <- n
  end

let iter f t = Vec.iter f t.rows

let to_list t = Vec.to_list t.rows

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Vec.length t.rows then
    invalid_arg "Delta.sub: slice out of range";
  Array.init len (fun i -> Vec.get t.rows (pos + i))

let ts_of t i = (Vec.get t.rows i).ts

let ts_at t k = ts_of t t.index.(k)

(* First index position whose timestamp is > [ts]. *)
let first_after t ts =
  let lo = ref 0 and hi = ref t.indexed in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ts_at t mid <= ts then lo := mid + 1 else hi := mid
  done;
  !lo

(* Extend the index over the rows appended since the last catch-up, in
   time proportional to that tail and to the index entries it overtakes:
   the tail is sorted on its own (usually it is already in order), and
   merged in behind the last entry with a timestamp no later than its
   earliest row. An in-order tail is a plain append. *)
let catch_up t =
  let n = Vec.length t.rows and m = t.indexed in
  if m < n then begin
    if Array.length t.index < n then begin
      let index = Array.make (max n (2 * Array.length t.index)) 0 in
      Array.blit t.index 0 index 0 m;
      t.index <- index
    end;
    if m = 0 then Atomic.incr full_sorts_count;
    let tail = Array.init (n - m) (fun j -> m + j) in
    let ordered = ref true in
    for j = 1 to Array.length tail - 1 do
      if ts_of t tail.(j - 1) > ts_of t tail.(j) then ordered := false
    done;
    if not !ordered then begin
      (* Positions are distinct, so (ts, position) is a total order. *)
      Array.sort
        (fun i j ->
          let c = Time.compare (ts_of t i) (ts_of t j) in
          if c <> 0 then c else Int.compare i j)
        tail
    end;
    (* Tail rows arrived after every indexed row, so they sort after the
       indexed rows with an equal timestamp. *)
    let p = first_after t (ts_of t tail.(0)) in
    let older = Array.sub t.index p (m - p) in
    let a = ref 0 and b = ref 0 in
    for k = p to n - 1 do
      if
        !b >= Array.length tail
        || (!a < Array.length older
           && ts_of t older.(!a) <= ts_of t tail.(!b))
      then begin
        t.index.(k) <- older.(!a);
        incr a
      end
      else begin
        t.index.(k) <- tail.(!b);
        incr b
      end
    done;
    t.indexed <- n
  end

(* [prune] and [compact] renumber the rows: the next read sorts afresh. *)
let reset_index t = t.indexed <- 0

let freshen = catch_up

(* The single traversal core: a lazy sequence over the timestamp-sorted
   index. The thunk catches the index up on every replay, so a cursor
   rewound after new appends sees them in order. *)
let window_seq t ~lo ~hi () =
  if hi <= lo || Vec.length t.rows = 0 then Seq.Nil
  else begin
    catch_up t;
    let stop = first_after t hi in
    let rec go k () =
      if k >= stop then Seq.Nil
      else Seq.Cons (Vec.get t.rows t.index.(k), go (k + 1))
    in
    go (first_after t lo) ()
  end

let window_cursor t ~lo ~hi =
  Cursor.of_seq (fun () ->
      Seq.map
        (fun (r : row) -> { Cursor.tuple = r.tuple; count = r.count; ts = r.ts })
        (fun () -> window_seq t ~lo ~hi ()))

let window_iter t ~lo ~hi f = Seq.iter f (fun () -> window_seq t ~lo ~hi ())

let window t ~lo ~hi =
  let acc = ref [] in
  window_iter t ~lo ~hi (fun row -> acc := row :: !acc);
  List.rev !acc

let window_count t ~lo ~hi =
  if hi <= lo || Vec.length t.rows = 0 then 0
  else begin
    catch_up t;
    first_after t hi - first_after t lo
  end

let min_ts t =
  if Vec.length t.rows = 0 then None
  else begin
    catch_up t;
    Some (ts_at t 0)
  end

let max_ts t =
  if Vec.length t.rows = 0 then None
  else begin
    catch_up t;
    Some (ts_at t (t.indexed - 1))
  end

let net_effect t ~lo ~hi =
  let r = Relation.create t.schema in
  window_iter t ~lo ~hi (fun row -> Relation.add r row.tuple row.count);
  r

let apply_window t ~lo ~hi r =
  window_iter t ~lo ~hi (fun row -> Relation.add r row.tuple row.count)

let prune t ~upto =
  let keep = Vec.create () in
  let dropped = ref 0 in
  Vec.iter
    (fun row -> if row.ts <= upto then incr dropped else Vec.push keep row)
    t.rows;
  if !dropped > 0 then begin
    Vec.clear t.rows;
    Vec.iter (fun row -> Vec.push t.rows row) keep;
    reset_index t
  end;
  !dropped

let compact t =
  let module Key = struct
    type t = Tuple.t * Time.t

    let equal (a, i) (b, j) = Time.equal i j && Tuple.equal a b
    let hash (a, i) = (Tuple.hash a * 31) + i
  end in
  let module H = Hashtbl.Make (Key) in
  let before = Vec.length t.rows in
  let totals = H.create (max 16 before) in
  let order = Vec.create () in
  Vec.iter
    (fun row ->
      let key = (row.tuple, row.ts) in
      match H.find_opt totals key with
      | None ->
          H.add totals key row.count;
          Vec.push order key
      | Some c -> H.replace totals key (c + row.count))
    t.rows;
  Vec.clear t.rows;
  Vec.iter
    (fun ((tuple, ts) as key) ->
      let count = H.find totals key in
      if count <> 0 then Vec.push t.rows { tuple; count; ts })
    order;
  reset_index t;
  before - Vec.length t.rows

let copy t =
  let t' = create t.schema in
  iter (fun row -> append_row t' row) t;
  t'

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter
    (fun row ->
      Format.fprintf ppf "@@%a %+d x %a@," Time.pp row.ts row.count Tuple.pp
        row.tuple)
    t;
  Format.fprintf ppf "@]"
