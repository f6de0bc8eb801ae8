(** Multi-view maintenance service: the control tables of Figure 11.

    The prototype's control tables "identify the tables associated with
    each materialized view … and record the current view materialization
    time and the view delta high-water mark". This module is that registry:
    several views maintained over one database and one capture process,
    each with its own propagation algorithm and apply state, plus the
    operational controls a DBA would expect — status, per-view
    pause/resume (either process "can be suspended during periods of high
    system load"), budgeted propagation, and garbage collection.

    Since the scheduler refactor, every budgeted drain ({!step_all},
    {!try_step_all}, {!maintain}) pulls its work items from one
    {!Scheduler} queue scored by staleness against a per-view SLA,
    estimated step cost and capture backpressure. The legacy
    registration-order sweep is preserved as {!Scheduler.Round_robin};
    the default policy is {!Scheduler.Slack}. *)

type t

type status = {
  name : string;
  as_of : Roll_delta.Time.t;  (** materialization time of the stored view *)
  hwm : Roll_delta.Time.t;  (** view-delta high-water mark *)
  staleness : int;  (** current time minus hwm, in commits *)
  sla : int;  (** staleness target, in commits *)
  slack : int;  (** [sla - staleness]; negative means the SLA is violated *)
  delta_rows : int;  (** rows currently held in the view delta *)
  paused : bool;
  retries : int;  (** step attempts re-run after transient failures *)
  aborts : int;  (** steps abandoned after exhausting the retry budget *)
  recoveries : int;
      (** transient-failed steps that eventually succeeded, plus controller
          restarts recovered from durable state *)
  memo_hits : int;
      (** propagation deltas this view served from the shared memo instead
          of executing (always 0 without sharing) *)
  memo_misses : int;  (** deltas this view computed and memoized *)
  shared_builds : int;
      (** hash builds and window materializations this view reused from the
          shared build cache *)
  aux : bool;  (** this entry is an auxiliary view, not a user view *)
  aux_hits : int;
      (** substitution probes this view served from a fresh auxiliary
          mirror instead of scanning the base table (always 0 without
          auxiliaries) *)
  aux_misses : int;
      (** substitution probes that found the auxiliary lagging and fell
          back to the base table *)
  aux_lag : int;
      (** for an auxiliary: how many commits its probe mirror trails the
          database clock; for a user view: the worst lag among the
          auxiliaries its probes depend on (0 when it has none) *)
  reads_served : int;  (** reads served by a [rolld] front end *)
  reads_rejected : int;  (** reads rejected by admission control *)
  read_wait : float;
      (** total seconds admitted readers spent blocked on freshness *)
}

type step_error = {
  view : string;
      (** which registered view's step failed permanently; ["(capture)"]
          when a retried capture advance exhausted its budget *)
  point : string;  (** fault point of the last failing attempt *)
  hit : int;
  attempts : int;
}

val create :
  ?policy:Scheduler.policy ->
  ?cost_weight:float ->
  ?capture_batch:int ->
  ?sharing:bool ->
  ?auxiliary:bool ->
  ?default_sla:int ->
  ?gc_threshold:int ->
  ?obs:Roll_obs.Obs.t ->
  ?domains:int ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  t
(** [policy] (default {!Scheduler.Slack}), [cost_weight] and
    [capture_batch] configure the underlying {!Scheduler}. [default_sla]
    (default 100 commits) is the staleness target newly registered views
    start with; override per view with {!set_sla}. [gc_threshold]
    (default: disabled) makes {!maintain} offer a gc item once a view
    holds at least that many applied delta rows.

    [sharing] (default: the [ROLL_SHARING] environment flag, off when
    unset) turns on cross-view shared maintenance:
    every registered view's context is plugged into one drain-scoped
    {!Memo} (identical propagation deltas computed once, replayed for
    siblings; hash builds and delta-window materializations shared through
    the build cache), step windows snap to the propagation-interval grid
    (see {!Controller.set_window_alignment}) so sibling windows coincide,
    and waves keep same-window sibling steps apart so that they run one
    after another and replay each other's memoized deltas. Sharing changes
    which physical queries run — never the maintained contents.

    [auxiliary] (default: the [ROLL_AUX] environment flag, off when unset)
    turns on higher-order delta processing: registering a view also
    derives, materializes and registers its per-relation semi-join/
    projection partials as {!Auxiliary} views — ordinary service entries
    maintained through the same capture → propagate → apply → WAL path,
    scheduled one band below user-view SLAs — and installs the
    substitution closure so the view's propagation queries probe a fresh
    auxiliary mirror instead of scanning the base table, falling back
    transparently whenever the mirror lags. Like sharing, auxiliaries
    change which physical reads happen — never the maintained contents.

    [obs] (default disabled) is the Rollscope observability handle for the
    whole service: it is installed on the database, the capture process,
    the scheduler and every context the service registers, so one handle
    sees capture → propagate → apply → checkpoint end to end. When
    enabled, drains record ["service.drain"] / ["sched.item"] spans (with
    queue-wait attributes), per-kind item-latency, window-width and
    rows-emitted histograms, and every registered view's {!Stats} surface
    as [view]-labeled registry series alongside per-view freshness gauges.
    [domains] (default 1: one lane, no worker domain) sizes the drain's
    worker-domain pool. Every drain plans {e waves} of up to [domains]
    pairwise-disjoint-window propagation steps of rolling-family views
    ({!Scheduler.take_wave}) and executes them in frozen-clock mode
    ({!Controller.step_window}) at the capture high-water mark, after
    catching capture up to the end of the log; with [domains = n > 1] the
    members run concurrently. Capture, apply, checkpoint, gc, WAL markers,
    the retry wall clock and the steps of [Uniform]/[Deferred] views stay
    on the calling (single-writer) domain. Drains on any number of
    domains maintain bit-identical view contents and frontiers — only
    throughput changes.
    @raise Invalid_argument on non-positive [default_sla], [gc_threshold],
    [capture_batch], or [domains < 1]. *)

val env_domains : unit -> int option
(** Parse the [ROLL_DOMAINS] environment variable ([n >= 1]) — the
    conventional way tests and CI select the pool size; [None] when unset
    or unparsable. Callers pass it to [create]'s [?domains]. *)

val domains : t -> int
(** Domain slots drains execute on: the pool size ([workers + caller]),
    1 unless [create] was given [~domains]. *)

val shutdown : t -> unit
(** Join the worker-domain pool (no-op for a one-lane service). Idempotent;
    the pool also shuts down on process exit, but callers creating many
    short-lived parallel services must release each one to stay under the
    runtime's domain limit. Draining a shut-down multi-domain service is
    an error. *)

val register :
  ?durable:bool -> t -> algorithm:Controller.algorithm -> View.t -> Controller.t
(** Materializes and registers a view under its own name. [durable]
    (default false) is passed through to {!Controller.create}.
    @raise Invalid_argument if the name is already registered. *)

val register_recovered :
  ?checkpoint:string ->
  t -> algorithm:Controller.algorithm -> View.t -> Controller.t
(** Registers a view by recovering its durable maintenance state instead of
    re-materializing (see {!Controller.recover}).
    @raise Invalid_argument if the name is already registered or there is
    no durable state for the view. *)

val unregister : t -> string -> unit
(** Remove a user view from the service and release its claim on its
    auxiliaries; auxiliaries left with no owning view are retired with it
    (their entries leave the service, so no further maintenance is planned
    for them). Durable state is left in place — re-registering recovers it.
    @raise Not_found when no such view is registered
    @raise Invalid_argument when [name] is an auxiliary view (those are
    retired automatically when their last owner goes). *)

val auxiliary : t -> Auxiliary.t option
(** The higher-order delta registry, when the service was created with
    auxiliaries enabled. *)

val controller : t -> string -> Controller.t
(** @raise Not_found *)

val names : t -> string list

val scheduler : t -> Scheduler.t
(** The service's work queue — inspect its policy and {!Scheduler.stats}
    counters. *)

val set_read_demand : t -> (string -> int) -> unit
(** Install the waiting-reader census on the service's scheduler (see
    {!Scheduler.set_read_demand}); the [rolld] serving engine plugs its
    blocked-reader queue in here so drains prioritize views clients are
    waiting on. *)

val obs : t -> Roll_obs.Obs.t
(** The service's observability handle (a disabled one unless [create]
    received [?obs]). *)

val sharing : t -> bool

val memo : t -> Memo.t
(** The service-wide delta memo (disabled, empty and never consulted
    unless the service was created with [~sharing:true]). *)

val set_sla : t -> string -> int -> unit
(** Set one view's staleness target, in commits.
    @raise Not_found
    @raise Invalid_argument on a non-positive target. *)

val sla : t -> string -> int
(** @raise Not_found *)

val set_checkpoint : t -> string -> path:string -> every:int -> unit
(** Make {!maintain} checkpoint the view to [path] whenever at least
    [every] commits have elapsed since its last checkpoint.
    @raise Not_found
    @raise Invalid_argument on non-positive [every]. *)

val set_gc_threshold : t -> int -> unit
(** Applied delta rows per view above which {!maintain} offers a gc item.
    @raise Invalid_argument on a non-positive threshold. *)

val applied_rows : t -> string -> int
(** Rows of the view's delta at or before its apply position: what a gc
    item would reclaim, and the figure {!set_gc_threshold} is compared
    with. Costs a catch-up of the delta's timestamp index plus two binary
    searches, never a pass over the delta.
    @raise Not_found *)

val status : t -> status list
(** One row per registered view, in registration order. *)

val status_json : t -> string
(** {!status} as a JSON array (one object per view, registration order) —
    what [rollctl status --json] prints. *)

val schedule_json : ?full:bool -> t -> string
(** {!schedule} as a JSON array, best item first — what
    [rollctl schedule --json] prints. *)

val shard_of : t -> string -> int
(** The domain slot a view name hashes to — the observational shard used
    by {!shard_depths}; actual wave execution assigns items to slots by
    wave position. Always 0 for a one-lane service. *)

val shard_depths : ?full:bool -> t -> int array
(** Planned queue depth per domain slot: propagate items counted under
    their view's {!shard_of} slot, every other kind under the
    single-writer slot 0. Length {!domains}. *)

val ran_by_domain : t -> ((string * int) * int) list
(** Execution provenance, [((kind, domain slot), items run)] — see
    {!Scheduler.ran_by_domain}. *)

val shards_json : ?full:bool -> t -> string
(** {!shard_depths} and {!ran_by_domain} as one JSON object
    [{"domains":n,"shards":[{"shard","depth"}...],"ran":[{"kind","domain","count"}...]}]
    — what [rollctl status --domains n --json] adds. *)

val schedule : ?full:bool -> t -> Scheduler.scored list
(** Snapshot of the current work queue, best first (see
    {!Scheduler.plan}). [full] defaults to [false]: the queue a
    {!step_all} drain would consume; pass [true] for the {!maintain}
    queue including apply/checkpoint/gc items. *)

val pause : t -> string -> unit
(** Suspend propagation for one view ([step_all] skips it; explicit
    refreshes through its controller still work). *)

val resume : t -> string -> unit

val step_all : t -> budget:int -> int
(** Drain the scheduler, running up to [budget] propagation steps over
    non-paused views and stopping early when every one is idle. Capture
    advances triggered by backpressure are free — they do not count
    against the budget. Returns steps executed. Under
    {!Scheduler.Round_robin} this reproduces the legacy
    registration-order sweep. *)

val try_step_all :
  ?sleep:(float -> unit) ->
  t ->
  budget:int ->
  retry:Roll_util.Retry.policy ->
  (int, step_error) result
(** {!step_all} with each step run under {!Controller.reliable}:
    transient step failures are retried with backoff (sleeping through
    [sleep], which defaults to advancing the database's simulated wall
    clock), and the first step to exhaust its retry budget stops the
    drain and surfaces as a typed [step_error]. [Ok steps] otherwise,
    like {!step_all}. *)

val maintain :
  ?retry:Roll_util.Retry.policy ->
  ?sleep:(float -> unit) ->
  t ->
  budget:int ->
  (int, step_error) result
(** Full maintenance drain: like {!step_all} but the queue also offers
    apply refreshes (roll each stored view forward to its high-water
    mark), due checkpoints (see {!set_checkpoint}) and due gc (see
    {!set_gc_threshold}); each such item counts one unit of [budget].
    With [retry], propagation steps run under the retry policy as in
    {!try_step_all}. Returns items executed. *)

val refresh_all : t -> unit
(** Refresh every non-paused view to the current time. *)

val gc_all : t -> int
(** Prune applied delta rows of every view; returns total rows removed.
    Also reclaims the WAL prefix below every consumer's horizon (see
    {!reclaim_wal}). *)

val reclaim_wal : t -> int
(** Reclaim the WAL prefix at or below the minimum of every view's gc
    horizon and the capture high-water mark. On a paged store this deletes
    whole on-disk WAL segments; in memory it is a no-op. Returns the
    number of segments deleted. Runs automatically after each scheduled
    gc work item and after {!gc_all}. *)
