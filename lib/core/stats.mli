(** Execution statistics and per-transaction footprints.

    Counters drive the benches; footprints (which resources a propagation
    transaction read and how many rows) feed the contention simulator, so
    the lock-queueing model runs on measured rather than assumed transaction
    sizes.

    The execution pipeline additionally reports how rows were reached —
    scanned (full scans, hash builds, nested loops) versus probed through a
    secondary index — plus hash builds and wall time, both in aggregate and
    per resource.

    A [t] is domain-safe: scalar counters are atomic and the aggregate
    structures (per-resource profile, footprints, wall-clock accumulators)
    are mutex-protected, so propagation steps running on worker domains
    can record into one record concurrently with exact totals. The
    {!sched_counters} records returned by {!sched_kind} are the one
    exception — they are mutated in place by the single-writer drain loop
    only. *)

type footprint = {
  exec : Roll_delta.Time.t;  (** serialization time of the query *)
  description : string;
  reads : (string * int) list;
      (** resource name ("R" for a base table, "ΔR" for its delta) and rows
          read from it *)
  emitted : int;  (** rows added to the view delta *)
}

type sched_counters = {
  mutable scheduled : int;
      (** times an item of this kind was offered to the work queue *)
  mutable ran : int;  (** times an item of this kind was executed *)
  mutable deferred : int;
      (** propagate items pushed behind capture because their window was not
          yet fully captured *)
  mutable backpressured : int;
      (** capture items boosted to the front of the queue by a deferred
          propagate step *)
  mutable batched : int;
      (** propagate items executed as followers in a wave (the head item
          of each wave counts under [ran] only) *)
  mutable wall : float;  (** total wall-clock seconds executing this kind *)
}

type t

val create : unit -> t

val queries : t -> int

val rows_read : t -> int

val rows_emitted : t -> int

val compute_delta_calls : t -> int

val rows_scanned : t -> int
(** Rows fetched by scan, hash-build and nested-loop steps. *)

val rows_probed : t -> int
(** Rows fetched through secondary-index probes. *)

val hash_builds : t -> int
(** Per-query hash indexes built (each one is a full scan of its input —
    the cost a secondary index avoids). *)

val exec_wall : t -> float
(** Total wall-clock seconds spent draining execution pipelines. *)

val retries : t -> int
(** Propagation-step attempts re-run after a transient failure. *)

val aborts : t -> int
(** Propagation steps abandoned after exhausting their retry budget. *)

val recoveries : t -> int
(** Successful recoveries: transient-failed steps that eventually
    succeeded, plus controller restarts recovered from durable state. *)

val memo_hits : t -> int
(** [ComputeDelta] invocations answered by replaying memoized delta rows
    instead of executing queries. *)

val memo_misses : t -> int
(** Memo consultations that fell through to real execution (only counted
    while an enabled memo is installed). *)

val shared_builds : t -> int
(** Physical artifacts (hash builds, window materializations) this view
    reused from the per-drain build cache instead of rebuilding. *)

val aux_hits : t -> int
(** Base-relation reads of this view's propagation queries that were served
    by probing a fresh auxiliary view instead of the base table. *)

val aux_misses : t -> int
(** Auxiliary consultations that found the auxiliary lagging behind the
    base table and transparently fell back to the base-relation scan. *)

val reads_served : t -> int
(** Point-in-time and freshest-available reads served for this view. *)

val reads_rejected : t -> int
(** Reads rejected by admission control (too new, below the gc horizon,
    or shed under overload). *)

val read_wait : t -> float
(** Total seconds admitted readers spent blocked waiting for the view's
    high-water mark to reach their requested time. *)

val incr_reads_served : t -> unit

val incr_reads_rejected : t -> unit

val add_read_wait : t -> float -> unit

val incr_memo_hits : t -> unit

val incr_memo_misses : t -> unit

val add_shared_builds : t -> int -> unit

val incr_aux_hits : t -> unit

val incr_aux_misses : t -> unit

val incr_retries : t -> unit

val incr_aborts : t -> unit

val incr_recoveries : t -> unit

val incr_compute_delta_calls : t -> unit

val record_query : t -> footprint -> unit

val record_exec :
  t -> scanned:int -> probed:int -> hash_builds:int -> wall:float -> unit
(** Fold one pipeline run's totals (see [Exec.totals]) into the counters. *)

val record_resource :
  t -> string -> scanned:int -> probed:int -> wall:float -> unit
(** Fold one plan step's reads into the per-resource profile. *)

val resource_profile : t -> (string * (int * int * float)) list
(** Per-resource (scanned, probed, wall seconds), sorted by resource name. *)

val sched_kind : t -> string -> sched_counters
(** The maintenance-scheduler counter group for one work-item kind
    ("capture", "propagate", "apply", "checkpoint", "gc"), created on first
    use. The returned record is live: callers mutate it in place. *)

val sched_kinds : t -> (string * sched_counters) list
(** Every scheduler counter group, sorted by kind name. *)

val footprints : t -> footprint list

val set_keep_footprints : t -> bool -> unit
(** Footprint retention is on by default; long benches can switch it off to
    bound memory. Counters are always maintained. *)

val reset : t -> unit

val register :
  ?labels:(string * string) list -> t -> Roll_obs.Metrics.t -> unit
(** Surface every counter of [t] in a Rollscope metric registry as
    read-through collectors ([roll_queries_total],
    [roll_rows_emitted_total], …, [roll_memo_hit_ratio], plus per-resource
    and per-scheduler-kind series). The [t] record remains the single
    store: nothing is maintained twice, and the registry samples live
    values at snapshot time. [labels] (e.g. [[("view", name)]]) are added
    to every series, letting several registrations share one registry.
    Register a given [t] with a given registry at most once. *)

val pp : Format.formatter -> t -> unit
