(* Shared machinery of the benchmark: the clock every timing goes through,
   sample summaries, the metric record the report prints, the oracle gate,
   the provenance header, and snapshots of the counters the layers already
   expose. *)

module C = Roll_core
module Database = Roll_storage.Database
module Relation = Roll_relation.Relation
module Clock = Roll_obs.Clock

(* Every benchmark timing reads this clock (a real one; tests of the
   library inject manual clocks, the benchmark never does). *)
let clock = Clock.real ()

let now () = Clock.now clock

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Scratch directory inside the working directory (the checkout): sockets,
   span dumps, child results and paged-store data all live here. *)
let work_dir = ".rollbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* --- sizes ------------------------------------------------------------ *)

(* [Full] is the benchmark; [Tiny] is the self-test's smoke size. *)
type size = Full | Tiny

(* --- samples ---------------------------------------------------------- *)

module Samples = struct
  type t = { mutable xs : float list; mutable n : int }

  let create () = { xs = []; n = 0 }

  let add t x =
    t.xs <- x :: t.xs;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile; 0 when empty. *)
  let pct t p =
    let a = Array.of_list t.xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

  let total t = List.fold_left ( +. ) 0.0 t.xs

  (* Reads per second of a closed loop with one read in flight. *)
  let rate t = float_of_int t.n /. total t
end

(* Median of a few per-cycle figures (set-up times, drain throughputs). *)
let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.pct s 0.5

(* Set up [n] times, tearing down all but the last set-up; return the
   last and the median set-up time. Each set-up starts from a collected
   heap, so the GC debt an earlier one left does not land in the next
   one's time. The samples are spread out by [setup_gap] pauses: on a
   shared host a small set-up's time shifts between levels 1.6x apart
   for tens to hundreds of milliseconds at a time, and samples taken
   back to back all land in one level. *)
let setup_gap = 0.02

let setup_median ~n ~teardown setup =
  let rec go i times =
    Unix.sleepf setup_gap;
    Gc.full_major ();
    let r, dt = timed (fun () -> setup i) in
    if i + 1 < n then begin
      teardown r;
      go (i + 1) (dt :: times)
    end
    else (r, median_of (dt :: times))
  in
  go 0 []

(* The median over [windows] consecutive, equally sized slices of the
   samples (in the order taken) of each slice's [f] figure. The host is
   shared: a burst of outside load moves one slice's figure, not the
   run's. *)
let windows = 5

let windowed f (s : Samples.t) =
  let a = Array.of_list (List.rev s.Samples.xs) in
  let n = Array.length a in
  if n < windows then f s
  else
    median_of
      (List.init windows (fun i ->
           let slice = Samples.create () in
           for j = i * n / windows to ((i + 1) * n / windows) - 1 do
             Samples.add slice a.(j)
           done;
           f slice))

let windowed_ms p s = windowed (fun w -> Samples.pct w p) s *. 1000.0

(* --- metrics and the report ------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* A timing is printed as median, p90 and p99 with its sample count, so a
   reader can tell how many samples sit beyond each tail percentile. *)
let describe_timing label s scale unit =
  Printf.printf "  %-28s p50 %.3f  p90 %.3f  p99 %.3f %s  (n=%d)\n" label
    (Samples.pct s 0.5 *. scale)
    (Samples.pct s 0.9 *. scale)
    (Samples.pct s 0.99 *. scale)
    unit (Samples.count s)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "rollbench: non-finite metric value"

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_outcome o =
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit)
    o.metrics;
  Printf.printf "  %-34s %16.6f (failed %d / attempted %d)\n" "error_rate"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct (max 1 o.attempted) o.failed (String.concat ", " ms)

(* --- provenance -------------------------------------------------------- *)

let env name fallback =
  match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> fallback

(* The checkout the benchmark runs in need not be a git repository, so the
   commit falls back to ROLLBENCH_COMMIT (run.py sets it when git knows),
   else "unknown". *)
let meta_json ~workload ~seed ~seconds ~trace ~size =
  let nproc =
    try
      let ic = Unix.open_process_in "nproc 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
    with _ -> "unknown"
  in
  Printf.sprintf
    {|{"meta": {"commit": %S, "workload": %S, "seed": %d, "seconds": %d, "trace": %b, "size": %S, "nproc": %S, "ocaml": %S, "roll_store": %S, "roll_domains": %S}}|}
    (env "ROLLBENCH_COMMIT" "unknown")
    workload seed seconds trace
    (match size with Full -> "full" | Tiny -> "tiny (self-test)")
    nproc Sys.ocaml_version
    (env "ROLL_STORE" "mem")
    (env "ROLL_DOMAINS" "1")

(* --- the oracle gate -------------------------------------------------- *)

(* Compare maintained contents with the oracle's recomputation. A mismatch
   is reported with a short diff summary and fails the run. *)
let gate ~what ~expected ~actual =
  if Relation.equal expected actual then true
  else begin
    let diff = Relation.diff actual expected in
    Printf.printf "!! oracle gate FAILED (%s): %d differing tuples (%d vs %d)\n%!"
      what (Relation.distinct_count diff)
      (Relation.distinct_count actual)
      (Relation.distinct_count expected);
    false
  end

(* Digest of a sorted row list, as served by rolld and as recomputed. *)
let rows_digest (rows : (Roll_relation.Tuple.t * int) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (tuple, count) ->
      Buffer.add_string b (Format.asprintf "%a" Roll_relation.Tuple.pp tuple);
      Buffer.add_char b '*';
      Buffer.add_string b (string_of_int count);
      Buffer.add_char b ';')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- layer counters ---------------------------------------------------- *)

(* One reading of every counter the layers expose, taken around a measured
   phase; the per-layer metrics are differences of two readings. *)
type snap = {
  sched : (string * (int * float)) list;  (** kind -> (ran, wall s) *)
  exec_wall : float;
  queries : int;
  rows_scanned : int;
  rows_probed : int;
  hash_builds : int;
  cd_calls : int;
  rows_emitted : int;
  minor_words : float;
  major_gcs : int;
  page_reads : int;
  page_writes : int;
}

let kinds = [ "capture"; "propagate"; "apply"; "checkpoint"; "gc" ]

let snapshot service ctl db =
  let sstats = C.Scheduler.stats (C.Service.scheduler service) in
  let sched =
    List.map
      (fun k ->
        let c = C.Stats.sched_kind sstats k in
        (k, (c.C.Stats.ran, c.C.Stats.wall)))
      kinds
  in
  let st = C.Controller.stats ctl in
  let g = Gc.quick_stat () in
  let reads, writes =
    match Database.store db with
    | None -> (0, 0)
    | Some store ->
        let pager = Roll_storage.Store.pager store in
        (Roll_storage.Pager.page_reads pager, Roll_storage.Pager.page_writes pager)
  in
  {
    sched;
    exec_wall = C.Stats.exec_wall st;
    queries = C.Stats.queries st;
    rows_scanned = C.Stats.rows_scanned st;
    rows_probed = C.Stats.rows_probed st;
    hash_builds = C.Stats.hash_builds st;
    cd_calls = C.Stats.compute_delta_calls st;
    rows_emitted = C.Stats.rows_emitted st;
    minor_words = g.Gc.minor_words;
    major_gcs = g.Gc.major_collections;
    page_reads = reads;
    page_writes = writes;
  }

let ran s k = fst (List.assoc k s.sched)

let kind_wall s k = snd (List.assoc k s.sched)

let sched_wall s = List.fold_left (fun acc (_, (_, w)) -> acc +. w) 0.0 s.sched

(* Peak major heap of this process so far, in MB. *)
let peak_heap_mb () =
  let g = Gc.quick_stat () in
  float_of_int g.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* Rows held in a view's delta (for the rows gc pruned: held before, plus
   emitted, minus held after). *)
let delta_rows service name =
  match
    List.find_opt
      (fun (s : C.Service.status) -> s.C.Service.name = name)
      (C.Service.status service)
  with
  | Some s -> s.C.Service.delta_rows
  | None -> 0

(* On ROLL_STORE=disk, give the next database a fresh directory inside the
   work directory instead of the store's default temporary one. *)
let disk () = Roll_storage.Store.mode_of_env () = Roll_storage.Store.Disk

let store_seq = ref 0

let place_store () =
  if disk () then begin
    incr store_seq;
    Unix.putenv "ROLL_STORE_DIR"
      (Printf.sprintf "%s/store-%d-%d" work_dir (Unix.getpid ()) !store_seq)
  end
