(* Per-layer figures of one traced pass. Counter deltas come from
   [Common.snapshot] readings around the measured phase; wall times the
   layers do not count themselves (the drain call, refresh_to, gc_all) are
   the benchmark's own timings. Every workload emits the full list — a
   layer a workload does not exercise reads 0 — so one name set covers
   all workloads. *)

open Common

type t = {
  mutable drain_wall : float;  (** inside step_all / maintain calls *)
  mutable apply_extra : float;  (** explicit refresh_to calls *)
  mutable gc_extra : float;  (** explicit gc_all calls *)
  mutable gc_rows : int;
  mutable tail_slowdown : float;
  commit : Samples.t;  (** seconds per generator txn *)
  late : Samples.t;  (** seconds the open loop ran behind schedule *)
  wait : Samples.t;  (** serve: seconds queued for freshness *)
  nonwait : Samples.t;  (** serve: client latency minus wait *)
  tick : Samples.t;  (** serve: seconds per server tick *)
  mutable rows_per_read : float;
  mutable snapshot_hits : int;
  mutable rejected : int;
  mutable sustained : float;
  mutable cache_hit_ratio : float;
  mutable segments_live : int;
  mutable error_rate : float;
  mutable unattributed_share : float;
  mutable overhead_pct : float;
}

let create () =
  {
    drain_wall = 0.0;
    apply_extra = 0.0;
    gc_extra = 0.0;
    gc_rows = 0;
    tail_slowdown = 0.0;
    commit = Samples.create ();
    late = Samples.create ();
    wait = Samples.create ();
    nonwait = Samples.create ();
    tick = Samples.create ();
    rows_per_read = 0.0;
    snapshot_hits = 0;
    rejected = 0;
    sustained = 0.0;
    cache_hit_ratio = 0.0;
    segments_live = 0;
    error_rate = 0.0;
    unattributed_share = 0.0;
    overhead_pct = 0.0;
  }

(* Storage state at the end of the pass (neutral values on the mem store). *)
let note_storage t db =
  t.segments_live <- Database.live_segments db;
  match Database.store db with
  | None -> ()
  | Some store ->
      t.cache_hit_ratio <-
        Roll_storage.Block_cache.hit_ratio (Roll_storage.Store.cache store)

let metrics t ~(before : snap) ~(after : snap) =
  let d f = f after - f before in
  let dw k = kind_wall after k -. kind_wall before k in
  let sched = sched_wall after -. sched_wall before in
  let overhead = t.drain_wall -. sched in
  let exec_wall = after.exec_wall -. before.exec_wall in
  let c name v = metric name "count" (float_of_int v) in
  let s name v = metric name "s" v in
  let ms name v = metric name "ms" (v *. 1000.0) in
  let us name v = metric name "us" (v *. 1e6) in
  [
    s "scheduler.overhead_s" overhead;
    metric "scheduler.overhead_share" "ratio"
      (if t.drain_wall > 0.0 then overhead /. t.drain_wall else 0.0);
  ]
  @ List.map
      (fun k -> c ("scheduler.items_ran." ^ k) (ran after k - ran before k))
      kinds
  @ [
      s "propagate.wall_s" (dw "propagate");
      c "propagate.steps" (ran after "propagate" - ran before "propagate");
      s "propagate.non_exec_s" (dw "propagate" -. exec_wall);
      c "compute_delta.calls" (d (fun x -> x.cd_calls));
      metric "propagate.tail_slowdown" "ratio" t.tail_slowdown;
      s "exec.wall_s" exec_wall;
      c "exec.queries" (d (fun x -> x.queries));
      c "exec.rows_scanned" (d (fun x -> x.rows_scanned));
      c "exec.rows_probed" (d (fun x -> x.rows_probed));
      c "exec.hash_builds" (d (fun x -> x.hash_builds));
      s "apply.wall_s" (dw "apply" +. t.apply_extra);
      s "gc.wall_s" (dw "gc" +. t.gc_extra);
      c "gc.rows_pruned" t.gc_rows;
      s "capture.wall_s" (dw "capture");
      c "capture.ran" (ran after "capture" - ran before "capture");
      us "storage.commit_us_p50" (Samples.pct t.commit 0.5);
      us "storage.commit_us_p99" (Samples.pct t.commit 0.99);
      metric "storage.cache_hit_ratio" "ratio" t.cache_hit_ratio;
      c "storage.page_reads" (d (fun x -> x.page_reads));
      c "storage.page_writes" (d (fun x -> x.page_writes));
      c "storage.wal_segments_live" t.segments_live;
      s "checkpoint.wall_s" (dw "checkpoint");
      ms "serve.wait_ms_p50" (Samples.pct t.wait 0.5);
      ms "serve.wait_ms_p99" (Samples.pct t.wait 0.99);
      ms "serve.nonwait_ms_p50" (Samples.pct t.nonwait 0.5);
      metric "serve.rows_per_read" "rows" t.rows_per_read;
      c "serve.snapshot_hits" t.snapshot_hits;
      c "serve.rejected" t.rejected;
      ms "serve.tick_ms_p99" (Samples.pct t.tick 0.99);
      c "ocaml.major_gcs" (d (fun x -> x.major_gcs));
      metric "ocaml.minor_mwords" "Mwords"
        ((after.minor_words -. before.minor_words) /. 1e6);
      ms "loadgen.late_ms_p99" (Samples.pct t.late 0.99);
      metric "loadgen.sustained_txn_per_s" "1/s" t.sustained;
      metric "error_rate" "ratio" t.error_rate;
      metric "trace.unattributed_share" "ratio" t.unattributed_share;
      metric "trace.overhead_pct" "%" t.overhead_pct;
    ]
