(** The streaming execution engine: cursor-based join operators.

    [run] turns a {!Planner.t} into a pull-based operator tree — scan,
    index-probe, hash-join and nested-loop steps composed as cursor
    combinators — and drains it. Inputs are {!source}s: anything that can
    open a {!Roll_relation.Cursor.t} (base tables, delta-log windows, plain
    relations), so the propagation executor, the oracle and the baselines
    all execute through this one pipeline instead of private join loops.

    Nothing is materialized on the forward-query path: the driving input
    streams through the operator chain row by row, hash indexes are built
    directly from a scan cursor (no intermediate row array), and secondary
    index probes fetch only matching copies. The only remaining buffering is
    the nested-loop fallback, which pins its inner input once.

    Every step is instrumented: rows fetched from its input, partial rows
    emitted, hash builds, and wall time exclusive of child steps — the
    numbers [Executor.explain_analyze] reports against the planner's
    estimates. *)

open Roll_relation

type source = {
  info : Planner.source_info;
  scan : unit -> Cursor.t;  (** open a fresh full-scan cursor *)
  probe : (columns:int list -> Tuple.t -> Cursor.t) option;
      (** open an index-probe cursor, when a secondary index exists *)
  cache_key : string option;
      (** content-addressed identity for the per-drain build cache: a base
          table at a content version, or a delta window with fixed bounds.
          [None] (plain relations) opts the source out of sharing. *)
}

val source_of_table : Roll_storage.Table.t -> source
(** Lazy scan/probe over a base table's current committed state. *)

val source_of_aux : name:string -> Roll_storage.Table.t -> source
(** Like {!source_of_table} over an auxiliary mirror, displayed as [name]
    (conventionally "α" + the substituted base table) so plans and explain
    output show the substitution; the cache key stays the mirror's own
    table name, keeping cached builds distinct from the base relation's. *)

val source_of_relation : name:string -> Relation.t -> source
(** Scan over an in-memory relation (the oracle's historical states). *)

val source_of_delta_window :
  name:string ->
  Roll_delta.Delta.t ->
  lo:Roll_delta.Time.t ->
  hi:Roll_delta.Time.t ->
  source
(** Scan over σ_{lo,hi} of a delta log, in timestamp order. *)

(** {1 Instrumentation} *)

type step_stat = {
  source : int;  (** input index (parallel to the plan's step) *)
  resource : string;
  access : Planner.access;
  est_rows : float;  (** planner's estimated rows out of this step *)
  mutable actual_rows : int;  (** partial rows this step emitted *)
  mutable rows_in : int;  (** rows fetched from this step's input *)
  mutable hash_builds : int;
  mutable wall : float;  (** seconds spent in this step, excluding children *)
}

type report = {
  steps : step_stat array;  (** in plan order *)
  mutable emitted : int;  (** rows out of the final step *)
  mutable total_wall : float;  (** seconds for the whole drain *)
}

type totals = {
  scanned : int;  (** rows fetched by scan, hash-build and nested-loop steps *)
  probed : int;  (** rows fetched through secondary-index probes *)
  emitted : int;
  hash_builds : int;
  wall : float;
}

val totals : report -> totals

(** {1 Build cache}

    A per-drain cache of shared physical work: hash indexes built over a
    source at a fixed content version and key-column list, and the
    materialized rows of a delta window. Entries are content-addressed
    through {!source.cache_key} and thus never stale; clearing per drain
    only bounds memory. A cache hit skips the build entirely — the input
    rows are not re-read and no hash build is counted, which is the
    executor-rows saving [bench share] measures. *)

type cache

val cache_create : unit -> cache

val cache_clear : cache -> unit

val cache_build_hits : cache -> int
(** Cumulative hash-index builds skipped (not reset by {!cache_clear}). *)

val cache_window_hits : cache -> int
(** Cumulative delta-window materializations replayed from the cache. *)

val cache_hits : cache -> int
(** [cache_build_hits + cache_window_hits]. *)

(** {1 Running} *)

val run :
  ?cache:cache ->
  ?now:(unit -> float) ->
  rule:[ `Min | `Max ] ->
  sources:source array ->
  plan:Planner.t ->
  emit:(Tuple.t array -> int -> Cursor.ts -> unit) ->
  unit ->
  report
(** Build the operator tree for [plan] and drain it, calling [emit] with
    one binding vector per result row: count = product of input counts,
    timestamp combined under [rule] ({!Roll_relation.Cursor.no_ts} marks
    base rows and is neutral; callers must map a surviving [no_ts] to the
    origin time before the row escapes into a view delta).

    [now] (default [Unix.gettimeofday]) is the clock the per-step and
    whole-drain wall timings read — the executor passes the context's
    Rollscope clock so traces and reports are deterministic under a manual
    clock. *)
