open Roll_relation
module Table = Roll_storage.Table
module Delta = Roll_delta.Delta

type source = {
  info : Planner.source_info;
  scan : unit -> Cursor.t;
  probe : (columns:int list -> Tuple.t -> Cursor.t) option;
  cache_key : string option;
}

let source_of_table table =
  {
    info =
      {
        Planner.name = Table.name table;
        card = Table.distinct_count table;
        is_delta = false;
        indexed = Table.indexed_columns table;
      };
    scan = (fun () -> Table.scan_cursor table);
    probe = Some (fun ~columns key -> Table.probe_cursor table ~columns key);
    (* Keyed by content version: any committed change to the table makes
       earlier cached builds unreachable. *)
    cache_key =
      Some (Printf.sprintf "%s@%d" (Table.name table) (Table.version table));
  }

(* An auxiliary mirror is physically a table — scannable, probe-able
   through its secondary indexes, build-cacheable by content version — but
   plans must show it under its provenance name (the "α" prefix mirrors the
   "Δ" convention for delta windows), and its cache key must stay the
   mirror's own (unique) table name so cached builds never collide with the
   base relation's. *)
let source_of_aux ~name table =
  let s = source_of_table table in
  { s with info = { s.info with Planner.name } }

let source_of_relation ~name r =
  {
    info =
      {
        Planner.name;
        card = Relation.distinct_count r;
        is_delta = false;
        indexed = [];
      };
    scan = (fun () -> Cursor.of_relation r);
    probe = None;
    cache_key = None;
  }

let source_of_delta_window ~name d ~lo ~hi =
  {
    info =
      {
        Planner.name;
        card = Delta.window_count d ~lo ~hi;
        is_delta = true;
        indexed = [];
      };
    scan = (fun () -> Delta.window_cursor d ~lo ~hi);
    probe = None;
    (* A window whose [hi] is at or below the capture high-water mark (the
       executor rejects any other) is an immutable row set: capture appends
       in timestamp order, so later advances only add rows beyond [hi]. *)
    cache_key = Some (Printf.sprintf "%s(%d,%d]" name lo hi);
  }

type step_stat = {
  source : int;
  resource : string;
  access : Planner.access;
  est_rows : float;
  mutable actual_rows : int;
  mutable rows_in : int;
  mutable hash_builds : int;
  mutable wall : float;
}

type report = {
  steps : step_stat array;
  mutable emitted : int;
  mutable total_wall : float;
}

type totals = {
  scanned : int;
  probed : int;
  emitted : int;
  hash_builds : int;
  wall : float;
}

let totals (report : report) =
  Array.fold_left
    (fun acc st ->
      match st.access with
      | Planner.Index_probe _ -> { acc with probed = acc.probed + st.rows_in }
      | Planner.Scan | Planner.Hash_join _ | Planner.Nested_loop ->
          {
            acc with
            scanned = acc.scanned + st.rows_in;
            hash_builds = acc.hash_builds + st.hash_builds;
          })
    {
      scanned = 0;
      probed = 0;
      emitted = report.emitted;
      hash_builds = 0;
      wall = report.total_wall;
    }
    report.steps

module Key = struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end

module KeyTbl = Hashtbl.Make (Key)

let key_of_values values =
  if Array.exists (fun v -> v = Value.Null) values then None else Some values

(* ------------------------------------------------------------------ *)
(* Per-drain build cache                                               *)

(* Shares the two expensive physical artifacts across pipeline runs in one
   drain: hash indexes built over a source at a fixed content version, and
   the materialized rows of a delta window. Both are content-addressed
   through [source.cache_key], so entries never go stale — a changed table
   gets a new version key, and a captured window's rows are immutable —
   but the cache is still cleared per drain to bound memory. *)
type cache = {
  builds : (string, Cursor.row list KeyTbl.t) Hashtbl.t;
  windows : (string, Cursor.row array) Hashtbl.t;
  mutable build_hits : int;
  mutable window_hits : int;
  (* One mutex over both tables: waves run pipelines on worker domains
     against the shared per-drain cache. Artifacts are immutable once
     stored, so only the lookup/insert (and the build that fills a miss,
     which also deduplicates concurrent builds of the same artifact) needs
     the lock — probing a returned hash table is lock-free. *)
  cache_mutex : Mutex.t;
}

let cache_create () =
  {
    builds = Hashtbl.create 16;
    windows = Hashtbl.create 16;
    build_hits = 0;
    window_hits = 0;
    cache_mutex = Mutex.create ();
  }

let cache_locked c f =
  Mutex.lock c.cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.cache_mutex) f

let cache_clear c =
  cache_locked c (fun () ->
      Hashtbl.reset c.builds;
      Hashtbl.reset c.windows)

let cache_build_hits c = c.build_hits

let cache_window_hits c = c.window_hits

let cache_hits c = c.build_hits + c.window_hits

(* Scan through the cache: the materialized rows of an already-visited
   delta window are replayed from the cache instead of re-walking the
   delta's timestamp index. Base tables always scan live (their cursors
   are already lazy and their hash builds are cached separately). *)
let cached_scan cache (src : source) () =
  match cache with
  | Some c when src.info.Planner.is_delta -> (
      match src.cache_key with
      | Some key ->
          cache_locked c (fun () ->
              match Hashtbl.find_opt c.windows key with
              | Some rows ->
                  c.window_hits <- c.window_hits + 1;
                  Cursor.of_array rows
              | None ->
                  let acc = ref [] in
                  Cursor.iter (fun r -> acc := r :: !acc) (src.scan ());
                  let rows = Array.of_list (List.rev !acc) in
                  Hashtbl.add c.windows key rows;
                  Cursor.of_array rows)
      | None -> src.scan ())
  | _ -> src.scan ()

(* A partially-joined row: one binding per input, filled in plan order. *)
type partial = { bindings : Tuple.t array; count : int; ts : int }

type op = unit -> partial option

let no_ts = Cursor.no_ts

(* Combine row timestamps under the configured rule; [no_ts] marks base
   rows, which carry no timestamp and are neutral. *)
let combine_ts rule a b =
  match rule with
  | `Min -> min a b
  | `Max -> if a = no_ts then b else if b = no_ts then a else max a b

let default_now () = Unix.gettimeofday ()

(* Inclusive per-step timing: every pull through this step (including time
   spent in children) is charged here; [run] converts to exclusive time by
   subtracting the child's inclusive total afterwards. *)
let instrumented ~now (stat : step_stat) (f : op) : op =
 fun () ->
  let t0 = now () in
  let r = f () in
  stat.wall <- stat.wall +. (now () -. t0);
  (match r with Some _ -> stat.actual_rows <- stat.actual_rows + 1 | None -> ());
  r

let scan_op ~cache ~n ~(stat : step_stat) ~(src : source) ~atoms ~source : op =
  let cur = cached_scan cache src () in
  let rec pull () =
    match Cursor.next cur with
    | None -> None
    | Some r ->
        stat.rows_in <- stat.rows_in + 1;
        let bindings = Array.make n [||] in
        bindings.(source) <- r.tuple;
        if List.for_all (Predicate.eval_atom bindings) atoms then
          Some { bindings; count = r.count; ts = r.ts }
        else pull ()
  in
  pull

(* Shared by the keyed operators: the probe key of a partial under the
   bound-side columns of [pairs], or None if any component is NULL. *)
let probe_key pairs (p : partial) =
  key_of_values
    (Array.of_list
       (List.map
          (fun ((bcol : Predicate.col), _) ->
            Tuple.get p.bindings.(bcol.source) bcol.column)
          pairs))

(* Extend a partial with one matching row, applying residual atoms. *)
let extend ~rule ~source ~atoms (p : partial) (r : Cursor.row) =
  let bindings = Array.copy p.bindings in
  bindings.(source) <- r.tuple;
  if List.for_all (Predicate.eval_atom bindings) atoms then
    Some
      { bindings; count = p.count * r.count; ts = combine_ts rule p.ts r.ts }
  else None

let hash_join_op ~cache ~rule ~(stat : step_stat) ~(src : source) ~pairs ~atoms ~source (child : op)
    : op =
  (* The hash index is built lazily from the scan cursor on first pull —
     a query whose driving input is empty never touches this table. *)
  let build () =
    stat.hash_builds <- stat.hash_builds + 1;
    let tbl = KeyTbl.create 64 in
    Cursor.iter
      (fun (r : Cursor.row) ->
        stat.rows_in <- stat.rows_in + 1;
        let key_values =
          Array.of_list (List.map (fun (_, c) -> Tuple.get r.tuple c) pairs)
        in
        match key_of_values key_values with
        | None -> ()
        | Some key ->
            KeyTbl.replace tbl key
              (r
              :: (match KeyTbl.find_opt tbl key with
                 | Some rows -> rows
                 | None -> [])))
      (cached_scan cache src ());
    tbl
  in
  (* With a cache, a table already built over the same content version and
     key columns is reused outright: no build, no input rows read. *)
  let index =
    lazy
      (match (cache, src.cache_key) with
      | Some c, Some key ->
          let key =
            key ^ "#"
            ^ String.concat ","
                (List.map (fun (_, col) -> string_of_int col) pairs)
          in
          (* The build itself runs outside the lock: it pulls rows through
             [cached_scan], which takes the same mutex (non-reentrant).
             Two domains racing on the same key may both build — the
             artifacts are content-identical, and the double-checked insert
             keeps a single winner so later probes share one table. *)
          let cached =
            cache_locked c (fun () ->
                match Hashtbl.find_opt c.builds key with
                | Some tbl ->
                    c.build_hits <- c.build_hits + 1;
                    Some tbl
                | None -> None)
          in
          (match cached with
          | Some tbl -> tbl
          | None ->
              let tbl = build () in
              cache_locked c (fun () ->
                  match Hashtbl.find_opt c.builds key with
                  | Some winner -> winner
                  | None ->
                      Hashtbl.add c.builds key tbl;
                      tbl))
      | _ -> build ())
  in
  let current = ref None in
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | r :: rest -> (
        pending := rest;
        match extend ~rule ~source ~atoms (Option.get !current) r with
        | Some _ as out -> out
        | None -> pull ())
    | [] -> (
        match child () with
        | None -> None
        | Some p ->
            current := Some p;
            (match probe_key pairs p with
            | None -> ()
            | Some key -> (
                match KeyTbl.find_opt (Lazy.force index) key with
                | Some rows -> pending := rows
                | None -> ()));
            pull ())
  in
  pull

let index_probe_op ~rule ~(stat : step_stat) ~(src : source) ~pairs ~columns ~atoms ~source
    (child : op) : op =
  let probe =
    match src.probe with
    | Some probe -> probe
    | None -> invalid_arg "Exec: index-probe step on a source with no index"
  in
  let current = ref None in
  let matches = ref (Cursor.empty ()) in
  let rec pull () =
    match Cursor.next !matches with
    | Some r -> (
        stat.rows_in <- stat.rows_in + 1;
        match extend ~rule ~source ~atoms (Option.get !current) r with
        | Some _ as out -> out
        | None -> pull ())
    | None -> (
        match child () with
        | None -> None
        | Some p ->
            current := Some p;
            (match probe_key pairs p with
            | None -> matches := Cursor.empty ()
            | Some key -> matches := probe ~columns key);
            pull ())
  in
  pull

let nested_loop_op ~cache ~rule ~(stat : step_stat) ~(src : source) ~atoms ~source (child : op) : op
    =
  (* The inner input is pinned once on first pull and replayed per partial;
     its rows count toward the footprint once, like any other scan. *)
  let rows =
    lazy
      (let acc = ref [] in
       Cursor.iter
         (fun r ->
           stat.rows_in <- stat.rows_in + 1;
           acc := r :: !acc)
         (cached_scan cache src ());
       Array.of_list (List.rev !acc))
  in
  let current = ref None in
  let at = ref 0 in
  let rec pull () =
    let inner = Lazy.force rows in
    if !at < Array.length inner && !current <> None then begin
      let r = inner.(!at) in
      incr at;
      match extend ~rule ~source ~atoms (Option.get !current) r with
      | Some _ as out -> out
      | None -> pull ()
    end
    else
      match child () with
      | None -> None
      | Some p ->
          current := Some p;
          at := 0;
          pull ()
  in
  pull

let run ?cache ?(now = default_now) ~rule ~sources ~(plan : Planner.t) ~emit () =
  let n = Array.length sources in
  let steps = Array.of_list plan.Planner.steps in
  if Array.length steps <> n then invalid_arg "Exec.run: plan arity mismatch";
  let stats =
    Array.map
      (fun (st : Planner.step) ->
        {
          source = st.source;
          resource = sources.(st.source).info.Planner.name;
          access = st.access;
          est_rows = st.est_out;
          actual_rows = 0;
          rows_in = 0;
          hash_builds = 0;
          wall = 0.;
        })
      steps
  in
  let rec build k : op =
    let (st : Planner.step) = steps.(k) in
    let stat = stats.(k) in
    let src = sources.(st.source) in
    let op =
      if k = 0 then
        scan_op ~cache ~n ~stat ~src ~atoms:st.atoms ~source:st.source
      else
        let child = build (k - 1) in
        match st.access with
        | Planner.Scan -> invalid_arg "Exec.run: scan step after the first"
        | Planner.Hash_join pairs ->
            hash_join_op ~cache ~rule ~stat ~src ~pairs ~atoms:st.atoms
              ~source:st.source child
        | Planner.Index_probe (pairs, columns) ->
            index_probe_op ~rule ~stat ~src ~pairs ~columns ~atoms:st.atoms
              ~source:st.source child
        | Planner.Nested_loop ->
            nested_loop_op ~cache ~rule ~stat ~src ~atoms:st.atoms ~source:st.source
              child
    in
    instrumented ~now stat op
  in
  let top = build (n - 1) in
  let report = { steps = stats; emitted = 0; total_wall = 0. } in
  let t0 = now () in
  let rec drain () =
    match top () with
    | None -> ()
    | Some p ->
        report.emitted <- report.emitted + 1;
        emit p.bindings p.count p.ts;
        drain ()
  in
  drain ();
  report.total_wall <- now () -. t0;
  (* Inclusive → exclusive wall time: each step's only consumer is the next
     one, so the child's inclusive total is exactly the nested portion. *)
  for k = n - 1 downto 1 do
    stats.(k).wall <- Float.max 0. (stats.(k).wall -. stats.(k - 1).wall)
  done;
  report
