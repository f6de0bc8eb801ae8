(** Pull-based row cursors.

    A cursor is a resettable stream of counted, timestamped tuples — the
    unit of data flow of the execution pipeline. Base-table scans, secondary
    index probes and delta-log windows all present themselves as cursors, so
    the join operators (see [Roll_core.Exec]) compose over one interface and
    inputs are pulled lazily instead of being materialized into arrays.

    Timestamps are plain [int] commit sequence numbers; rows that carry no
    delta timestamp (base rows) use the {!no_ts} sentinel, which the
    executor's timestamp-combination rule treats as neutral and which must
    never escape into a view delta (it is mapped to the origin time at the
    pipeline boundary). *)

type ts = int

val no_ts : ts
(** Sentinel timestamp of base rows ([max_int]): neutral under the
    min-of-contributors rule. *)

type row = { tuple : Tuple.t; count : int; ts : ts }

type t

val make : ?close:(unit -> unit) -> rewind:(unit -> unit) -> (unit -> row option) -> t
(** [make ~rewind next] wraps a producer. [next] yields rows until it
    returns [None]; [rewind] restarts the stream from the beginning;
    [close] (default no-op) releases resources. *)

val next : t -> row option

val rewind : t -> unit

val close : t -> unit
(** After [close], [next] returns [None] until a [rewind]. *)

val empty : unit -> t

val of_seq : (unit -> row Seq.t) -> t
(** [of_seq producer] pulls from [producer ()]; rewinding re-invokes
    [producer], so the thunk must be replayable. *)

val of_list : row list -> t

val of_array : row array -> t

val of_relation : ?ts:ts -> Relation.t -> t
(** One row per distinct tuple with its multiset count; [ts] defaults to
    {!no_ts}. Lazy: tuples are pulled from the relation on demand. The
    relation must not be mutated while the cursor is live. *)

(** {1 Combinators} *)

val select : (row -> bool) -> t -> t
(** Rows satisfying the filter, preserving order. *)

val project : (Tuple.t -> Tuple.t) -> t -> t
(** Rewrite each row's tuple, keeping count and timestamp. *)

val project_columns : int list -> t -> t
(** Positional projection via {!Tuple.project}. *)

val map : (row -> row) -> t -> t

val counted : (int -> unit) -> t -> t
(** [counted hook c] invokes [hook 1] for every row pulled through — the
    instrumentation tap the executor uses for per-resource read counts. *)

(** {1 Draining} *)

val iter : (row -> unit) -> t -> unit
(** Drains from the current position; does not rewind first. *)

val fold : ('a -> row -> 'a) -> 'a -> t -> 'a

val to_list : t -> row list

val length : t -> int
(** Number of rows from the current position to exhaustion (drains the
    cursor). *)
