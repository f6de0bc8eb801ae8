(** Timestamped delta tables.

    A delta table records insertions (positive counts) and deletions
    (negative counts) of tuples, each stamped with the commit time of the
    transaction that made (or, for view deltas, caused) the change. The
    window operation σ_{a,b} of the paper selects rows with timestamps in
    the half-open interval (a, b].

    Base-table deltas are appended in commit order, but view deltas are not:
    a compensation query executed late adds rows with old timestamps. The
    table therefore keeps rows in arrival order beside a timestamp-sorted
    index for window queries. The index is incremental: a read first sorts
    only the rows appended since the previous read and merges them in
    behind the last indexed row with an earlier or equal timestamp (an
    in-order tail is a plain append), and {!truncate} trims the index with
    the rows. Only {!prune} and {!compact}, which renumber the rows, make
    the next read sort the whole table again. A window count is then two
    binary searches. *)

type row = { tuple : Roll_relation.Tuple.t; count : int; ts : Time.t }

type t

val create : Roll_relation.Schema.t -> t

val schema : t -> Roll_relation.Schema.t

val append : t -> Roll_relation.Tuple.t -> count:int -> ts:Time.t -> unit
(** Zero-count appends are dropped. *)

val append_row : t -> row -> unit

val length : t -> int
(** Number of stored rows (not net tuples). *)

val truncate : t -> int -> unit
(** [truncate d n] drops every row after the first [n] (arrival order),
    undoing the appends made since [length d] was [n]. This is the abort
    path of a propagation transaction: a step that fails mid-way may have
    emitted part of its brick, and the retry logic rolls the view delta
    back to the pre-step mark before re-running the step. No-op when
    [length d <= n]. *)

val iter : (row -> unit) -> t -> unit
(** Arrival order. *)

val to_list : t -> row list

val sub : t -> pos:int -> len:int -> row array
(** [sub d ~pos ~len] is rows [pos .. pos+len-1] in arrival order — the
    slice a memo captures after filling the tail of a delta.
    @raise Invalid_argument if the slice exceeds the current length. *)

val min_ts : t -> Time.t option

val max_ts : t -> Time.t option

val window : t -> lo:Time.t -> hi:Time.t -> row list
(** [window d ~lo ~hi] is σ_{lo,hi}(d): rows with [lo < ts <= hi], in
    timestamp order (ties in arrival order). *)

val window_iter : t -> lo:Time.t -> hi:Time.t -> (row -> unit) -> unit

val window_cursor : t -> lo:Time.t -> hi:Time.t -> Roll_relation.Cursor.t
(** σ_{lo,hi}(d) as a lazy pull cursor, in timestamp order — the delta-side
    source of the execution pipeline. Rows are produced on demand; rewinding
    restarts the window (and picks up rows appended in between). *)

val window_count : t -> lo:Time.t -> hi:Time.t -> int

val freshen : t -> unit
(** Catch the timestamp index up with the rows appended since the last
    read. Window reads do this on demand — a read-side mutation that is
    unsafe under concurrent readers. A parallel drain calls [freshen] on
    every delta a wave will read {e before} dispatching, after which
    concurrent window reads are pure (no appends happen mid-wave). *)

val full_sorts : unit -> int
(** Process-wide count of index builds that ordered every row of a delta
    anew: the first read of a delta, and the first read after a
    {!prune} or {!compact}. Catching up after appends or a {!truncate}
    never counts. *)

val net_effect : t -> lo:Time.t -> hi:Time.t -> Roll_relation.Relation.t
(** φ(σ_{lo,hi}(d)): the window collapsed to net counts. *)

val apply_window :
  t -> lo:Time.t -> hi:Time.t -> Roll_relation.Relation.t -> unit
(** [apply_window d ~lo ~hi r] adds the window's rows into [r] ("rolls" [r]
    forward when [d] is a delta for [r]'s relation). *)

val prune : t -> upto:Time.t -> int
(** [prune d ~upto] removes rows with [ts <= upto] (already applied and no
    longer needed) and returns how many were removed. *)

val compact : t -> int
(** Merge rows with identical tuple and timestamp by summing their counts
    (a forward query and a compensation often contribute exactly cancelling
    rows). Every window σ_{a,b} is unchanged; returns the number of rows
    eliminated. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
