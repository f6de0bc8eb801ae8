(** The [RollingPropagate] process (Figure 10, with corrected
    compensation).

    Rolling propagation refines [Propagate]: each base relation Rⁱ advances
    its own forward-query frontier [tfwd i] with its own propagation
    interval — n independent tuning knobs instead of one. A step performs
    one forward query

    {v R¹ … Rⁱ⁻¹ Rⁱ_(tfwd i, tfwd i + δ] Rⁱ⁺¹ … Rⁿ v}

    executed at some later time t_e, then compensates it with a single
    [ComputeDelta] call from the {e current frontier vector} back to t_e:
    the net effect of the step is exactly the brick

    {v (tfwd i, tfwd i + δ] × ∏_{j≠i} [t₀, tfwd j] v}

    in the propagation plane of Figures 6–9. Bricks laid by successive
    steps partition the plane — each cell of change-combinations is covered
    exactly once, for any number of relations and any step order — so after
    every step, σ_{t_initial, hwm} of the accumulated delta is a timed view
    delta with [hwm = min_i (tfwd i)] (Theorem 4.3).

    This compensation rule is a correction of the paper's printed Figure 10,
    whose [CompTime]-based deferred compensation is exact for two-way joins
    but over-compensates third axes for n ≥ 3 (a past lower-axis query
    bounds third axes by {e its own} execution time, while the printed rule
    compensates them up to the current one). The literal deferred algorithm
    is available for two-way views as {!Rolling_deferred}, where it
    reproduces Figure 9 and its fewer-compensations claim. See DESIGN.md
    §"Fidelity notes". *)

type t

type policy = int -> int
(** [policy i] is the propagation interval to use for relation [i]'s next
    forward query. Must be positive. *)

val uniform : int -> policy

val per_relation : int array -> policy

val create : Ctx.t -> t_initial:Roll_delta.Time.t -> t

val align : t -> bool

val set_align : t -> bool -> unit
(** Window alignment (default off): snap every forward window's upper
    bound to the next multiple of its interval, so sibling views whose
    materialization times differ by a few commits converge onto identical
    window bounds — the precondition for cross-view memo sharing. Off, the
    step windows are exactly the legacy [min (start + interval) now].
    Alignment must stay off while a recovery replay is in progress
    (replay steps target recorded frontiers exactly); {!Service} turns it
    on only after registration/recovery completes. *)

val window_hi :
  align:bool ->
  start:Roll_delta.Time.t ->
  interval:int ->
  now:Roll_delta.Time.t ->
  Roll_delta.Time.t
(** The upper bound [step_relation] would use for a window starting at
    [start] — exported so the controller's step candidates advertise the
    same windows the steps will actually run (the scheduler forms waves
    from window disjointness). *)

val hwm : t -> Roll_delta.Time.t
(** [min_i (tfwd i)]: the view delta is complete from [t_initial] through
    this time. *)

val tfwd : t -> int -> Roll_delta.Time.t

val frontiers : t -> Roll_delta.Time.t array
(** A copy of the full forward-frontier vector [tfwd], in source order —
    what the durable controller persists through WAL frontier markers. *)

val step : t -> policy:policy -> [ `Advanced of int * Roll_delta.Time.t | `Idle ]
(** One iteration: pick the relation with the smallest frontier, run its
    forward query, compensate. [`Advanced (i, h)] reports the chosen
    relation and the new high-water mark. [`Idle] when every frontier has
    reached the database's current time. *)

val step_relation : t -> int -> interval:int -> [ `Advanced of Roll_delta.Time.t | `Idle ]
(** Advance a specific relation's frontier by up to [interval]. Any
    schedule of [step_relation] calls maintains correctness; which relation
    to favor is pure policy (e.g. step a star schema's fact table often and
    its dimensions rarely). [`Idle] when that frontier is already at the
    database's current time. *)

val step_window :
  t -> int -> hi:Roll_delta.Time.t -> [ `Advanced of Roll_delta.Time.t | `Idle ]
(** Advance relation [i]'s frontier to an {e explicit} upper bound: the
    forward window is [(tfwd i, hi]]. This is the wave-dispatch entry —
    the scheduler picks the window bounds on the drain domain (so a wave's
    items have pairwise-disjoint windows by construction) and worker
    domains run the step without consulting the database clock. [`Idle]
    when [hi <= tfwd i]. Correctness does not depend on how [hi] was
    chosen, as long as [hi] is at most the capture high-water mark. *)

val set_tfwd : t -> int -> Roll_delta.Time.t -> unit
(** Overwrite one frontier — the rollback path: a failed wave item's
    frontier is restored to its pre-step value. Not for general use; any
    other mutation breaks the brick-partition invariant. *)

val run_until : t -> target:Roll_delta.Time.t -> policy:policy -> unit
(** Step until [hwm >= target].
    @raise Invalid_argument if [target] exceeds the database's current
    time. *)
