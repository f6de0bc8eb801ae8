module Vec = Roll_util.Vec

type footprint = {
  exec : Roll_delta.Time.t;
  description : string;
  reads : (string * int) list;
  emitted : int;
}

type resource_counters = {
  mutable scanned : int;
  mutable probed : int;
  mutable wall : float;
}

type sched_counters = {
  mutable scheduled : int;
  mutable ran : int;
  mutable deferred : int;
  mutable backpressured : int;
  mutable batched : int;
  mutable wall : float;
}

(* Domain safety: propagation steps run on worker domains, so the scalar
   counters are [Atomic] and the aggregate structures (hashtables, the
   footprint vector, float accumulators — no atomic float add) share one
   mutex. The [sched_counters] records stay plain mutable: the scheduler
   mutates them from the single-writer drain loop only. *)
type t = {
  queries : int Atomic.t;
  rows_read : int Atomic.t;
  rows_emitted : int Atomic.t;
  compute_delta_calls : int Atomic.t;
  rows_scanned : int Atomic.t;
  rows_probed : int Atomic.t;
  hash_builds : int Atomic.t;
  mutable exec_wall : float;
  retries : int Atomic.t;
  aborts : int Atomic.t;
  recoveries : int Atomic.t;
  memo_hits : int Atomic.t;
  memo_misses : int Atomic.t;
  shared_builds : int Atomic.t;
  aux_hits : int Atomic.t;
  aux_misses : int Atomic.t;
  reads_served : int Atomic.t;
  reads_rejected : int Atomic.t;
  mutable read_wait : float;
  resources : (string, resource_counters) Hashtbl.t;
  sched : (string, sched_counters) Hashtbl.t;
  mutable keep_footprints : bool;
  footprints : footprint Vec.t;
  m : Mutex.t;
}

let create () =
  {
    queries = Atomic.make 0;
    rows_read = Atomic.make 0;
    rows_emitted = Atomic.make 0;
    compute_delta_calls = Atomic.make 0;
    rows_scanned = Atomic.make 0;
    rows_probed = Atomic.make 0;
    hash_builds = Atomic.make 0;
    exec_wall = 0.;
    retries = Atomic.make 0;
    aborts = Atomic.make 0;
    recoveries = Atomic.make 0;
    memo_hits = Atomic.make 0;
    memo_misses = Atomic.make 0;
    shared_builds = Atomic.make 0;
    aux_hits = Atomic.make 0;
    aux_misses = Atomic.make 0;
    reads_served = Atomic.make 0;
    reads_rejected = Atomic.make 0;
    read_wait = 0.;
    resources = Hashtbl.create 8;
    sched = Hashtbl.create 8;
    keep_footprints = true;
    footprints = Vec.create ();
    m = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let queries t = Atomic.get t.queries

let rows_read t = Atomic.get t.rows_read

let rows_emitted t = Atomic.get t.rows_emitted

let compute_delta_calls t = Atomic.get t.compute_delta_calls

let rows_scanned t = Atomic.get t.rows_scanned

let rows_probed t = Atomic.get t.rows_probed

let hash_builds t = Atomic.get t.hash_builds

let exec_wall t = t.exec_wall

let retries t = Atomic.get t.retries

let aborts t = Atomic.get t.aborts

let recoveries t = Atomic.get t.recoveries

let memo_hits t = Atomic.get t.memo_hits

let memo_misses t = Atomic.get t.memo_misses

let shared_builds t = Atomic.get t.shared_builds

let aux_hits t = Atomic.get t.aux_hits

let aux_misses t = Atomic.get t.aux_misses

let reads_served t = Atomic.get t.reads_served

let reads_rejected t = Atomic.get t.reads_rejected

let read_wait t = t.read_wait

let incr_reads_served t = Atomic.incr t.reads_served

let incr_reads_rejected t = Atomic.incr t.reads_rejected

let incr_memo_hits t = Atomic.incr t.memo_hits

let incr_memo_misses t = Atomic.incr t.memo_misses

let add_shared_builds t n = ignore (Atomic.fetch_and_add t.shared_builds n)

let incr_aux_hits t = Atomic.incr t.aux_hits

let incr_aux_misses t = Atomic.incr t.aux_misses

let incr_retries t = Atomic.incr t.retries

let incr_aborts t = Atomic.incr t.aborts

let incr_recoveries t = Atomic.incr t.recoveries

let incr_compute_delta_calls t = Atomic.incr t.compute_delta_calls

let record_query t fp =
  Atomic.incr t.queries;
  ignore
    (Atomic.fetch_and_add t.rows_read
       (List.fold_left (fun acc (_, n) -> acc + n) 0 fp.reads));
  ignore (Atomic.fetch_and_add t.rows_emitted fp.emitted);
  if t.keep_footprints then locked t (fun () -> Vec.push t.footprints fp)

let record_exec t ~scanned ~probed ~hash_builds ~wall =
  ignore (Atomic.fetch_and_add t.rows_scanned scanned);
  ignore (Atomic.fetch_and_add t.rows_probed probed);
  ignore (Atomic.fetch_and_add t.hash_builds hash_builds);
  locked t (fun () -> t.exec_wall <- t.exec_wall +. wall)

let add_read_wait t seconds =
  locked t (fun () -> t.read_wait <- t.read_wait +. seconds)

let record_resource t name ~scanned ~probed ~wall =
  locked t (fun () ->
      let rc =
        match Hashtbl.find_opt t.resources name with
        | Some rc -> rc
        | None ->
            let rc = { scanned = 0; probed = 0; wall = 0. } in
            Hashtbl.add t.resources name rc;
            rc
      in
      rc.scanned <- rc.scanned + scanned;
      rc.probed <- rc.probed + probed;
      rc.wall <- rc.wall +. wall)

let sched_kind t kind =
  locked t (fun () ->
      match Hashtbl.find_opt t.sched kind with
      | Some c -> c
      | None ->
          let c =
            {
              scheduled = 0;
              ran = 0;
              deferred = 0;
              backpressured = 0;
              batched = 0;
              wall = 0.;
            }
          in
          Hashtbl.add t.sched kind c;
          c)

let sched_kinds t =
  locked t (fun () ->
      Hashtbl.fold (fun kind c acc -> (kind, c) :: acc) t.sched [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let resource_profile t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name rc acc -> (name, (rc.scanned, rc.probed, rc.wall)) :: acc)
        t.resources [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let footprints t = locked t (fun () -> Vec.to_list t.footprints)

let set_keep_footprints t b = t.keep_footprints <- b

let reset t =
  Atomic.set t.queries 0;
  Atomic.set t.rows_read 0;
  Atomic.set t.rows_emitted 0;
  Atomic.set t.compute_delta_calls 0;
  Atomic.set t.rows_scanned 0;
  Atomic.set t.rows_probed 0;
  Atomic.set t.hash_builds 0;
  Atomic.set t.retries 0;
  Atomic.set t.aborts 0;
  Atomic.set t.recoveries 0;
  Atomic.set t.memo_hits 0;
  Atomic.set t.memo_misses 0;
  Atomic.set t.shared_builds 0;
  Atomic.set t.aux_hits 0;
  Atomic.set t.aux_misses 0;
  Atomic.set t.reads_served 0;
  Atomic.set t.reads_rejected 0;
  locked t (fun () ->
      t.exec_wall <- 0.;
      t.read_wait <- 0.;
      Hashtbl.reset t.resources;
      Hashtbl.reset t.sched;
      Vec.clear t.footprints)

(* Bridge into the Rollscope metric registry. The [t] record stays the
   single store — collectors read through it at snapshot time, so nothing
   is maintained twice and callers that mutate counter records directly
   (the scheduler) keep working unchanged. *)
let register ?(labels = []) t registry =
  let module M = Roll_obs.Metrics in
  let scalar ~kind ?help name read =
    M.register_collector registry ?help ~kind name (fun () ->
        [ (labels, read ()) ])
  in
  let counter = scalar ~kind:M.Counter in
  let gauge = scalar ~kind:M.Gauge in
  counter "roll_queries_total" ~help:"Propagation queries executed" (fun () ->
      float_of_int (queries t));
  counter "roll_rows_read_total" ~help:"Rows read by propagation queries"
    (fun () -> float_of_int (rows_read t));
  counter "roll_rows_emitted_total" ~help:"Rows emitted into view deltas"
    (fun () -> float_of_int (rows_emitted t));
  counter "roll_compute_delta_calls_total"
    ~help:"ComputeDelta invocations (including memoized replays)" (fun () ->
      float_of_int (compute_delta_calls t));
  counter "roll_rows_scanned_total"
    ~help:"Rows fetched by scans, hash builds and nested loops" (fun () ->
      float_of_int (rows_scanned t));
  counter "roll_rows_probed_total"
    ~help:"Rows fetched through secondary-index probes" (fun () ->
      float_of_int (rows_probed t));
  counter "roll_hash_builds_total" ~help:"Per-query hash indexes built"
    (fun () -> float_of_int (hash_builds t));
  counter "roll_exec_wall_seconds_total"
    ~help:"Wall-clock seconds draining execution pipelines" (fun () ->
      exec_wall t);
  counter "roll_retries_total"
    ~help:"Propagation-step attempts re-run after a transient failure"
    (fun () -> float_of_int (retries t));
  counter "roll_aborts_total"
    ~help:"Propagation steps abandoned after exhausting their retry budget"
    (fun () -> float_of_int (aborts t));
  counter "roll_recoveries_total"
    ~help:"Transient-failed steps recovered plus controller restarts"
    (fun () -> float_of_int (recoveries t));
  counter "roll_memo_hits_total"
    ~help:"ComputeDelta invocations answered from the shared memo" (fun () ->
      float_of_int (memo_hits t));
  counter "roll_memo_misses_total"
    ~help:"Memo consultations that fell through to execution" (fun () ->
      float_of_int (memo_misses t));
  counter "roll_shared_builds_total"
    ~help:"Physical artifacts reused from the per-drain build cache"
    (fun () -> float_of_int (shared_builds t));
  counter "roll_aux_hits_total"
    ~help:"Base-relation reads served by a fresh auxiliary-view probe"
    (fun () -> float_of_int (aux_hits t));
  counter "roll_aux_misses_total"
    ~help:"Auxiliary consultations that fell back to the base relation"
    (fun () -> float_of_int (aux_misses t));
  counter "roll_reads_served_total"
    ~help:"Point-in-time and freshest-available reads served" (fun () ->
      float_of_int (reads_served t));
  counter "roll_reads_rejected_total"
    ~help:"Reads rejected by admission control" (fun () ->
      float_of_int (reads_rejected t));
  counter "roll_read_wait_seconds_total"
    ~help:"Seconds admitted reads spent queued for their target time"
    (fun () -> read_wait t);
  gauge "roll_memo_hit_ratio"
    ~help:"Memo hits over memo consultations (0 when unused)" (fun () ->
      let total = memo_hits t + memo_misses t in
      if total = 0 then 0. else float_of_int (memo_hits t) /. float_of_int total);
  gauge "roll_aux_hit_ratio"
    ~help:"Auxiliary hits over auxiliary consultations (0 when unused)"
    (fun () ->
      let total = aux_hits t + aux_misses t in
      if total = 0 then 0. else float_of_int (aux_hits t) /. float_of_int total);
  let per_resource ?help name read =
    M.register_collector registry ?help ~kind:M.Counter name (fun () ->
        resource_profile t
        |> List.map (fun (resource, triple) ->
               (("resource", resource) :: labels, read triple)))
  in
  per_resource "roll_resource_rows_scanned_total"
    ~help:"Rows scanned, by resource" (fun (scanned, _, _) ->
      float_of_int scanned);
  per_resource "roll_resource_rows_probed_total"
    ~help:"Rows probed, by resource" (fun (_, probed, _) ->
      float_of_int probed);
  per_resource "roll_resource_wall_seconds_total"
    ~help:"Wall-clock seconds, by resource" (fun (_, _, wall) -> wall);
  let per_sched ?help name read =
    M.register_collector registry ?help ~kind:M.Counter name (fun () ->
        sched_kinds t
        |> List.map (fun (kind, c) -> (("kind", kind) :: labels, read c)))
  in
  per_sched "roll_sched_scheduled_total"
    ~help:"Work items offered to the maintenance queue, by kind" (fun c ->
      float_of_int c.scheduled);
  per_sched "roll_sched_ran_total" ~help:"Work items executed, by kind"
    (fun c -> float_of_int c.ran);
  per_sched "roll_sched_deferred_total"
    ~help:"Propagate items pushed behind capture, by kind" (fun c ->
      float_of_int c.deferred);
  per_sched "roll_sched_backpressured_total"
    ~help:"Capture items boosted by a deferred propagate step, by kind"
    (fun c -> float_of_int c.backpressured);
  per_sched "roll_sched_batched_total"
    ~help:"Propagate items executed as wave followers, by kind" (fun c ->
      float_of_int c.batched);
  per_sched "roll_sched_wall_seconds_total"
    ~help:"Wall-clock seconds executing work items, by kind" (fun c -> c.wall)

let pp ppf t =
  Format.fprintf ppf
    "queries=%d rows_read=%d (scanned=%d probed=%d) rows_emitted=%d \
     hash_builds=%d compute_delta=%d"
    (queries t) (rows_read t) (rows_scanned t) (rows_probed t)
    (rows_emitted t) (hash_builds t) (compute_delta_calls t);
  if retries t > 0 || aborts t > 0 || recoveries t > 0 then
    Format.fprintf ppf " retries=%d aborts=%d recoveries=%d" (retries t)
      (aborts t) (recoveries t);
  if memo_hits t > 0 || memo_misses t > 0 || shared_builds t > 0 then
    Format.fprintf ppf " memo=%d/%d shared_builds=%d" (memo_hits t)
      (memo_hits t + memo_misses t)
      (shared_builds t);
  if reads_served t > 0 || reads_rejected t > 0 then
    Format.fprintf ppf " reads=%d/%d wait=%.3fs" (reads_served t)
      (reads_served t + reads_rejected t)
      (read_wait t)
