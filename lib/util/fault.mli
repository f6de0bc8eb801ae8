(** Fault injection: named crash/error points on the maintenance hot paths.

    Every process of the reproduction (capture, propagation, apply,
    checkpointing, WAL persistence) calls {!hit} at its named fault points.
    A disabled instance ({!none}, the default everywhere) makes those calls
    free; an enabled one counts every visit and, depending on its rules,
    raises at a chosen visit — either {!Crash}, modelling the process dying
    mid-step (not handled anywhere; the test harness catches it at the top
    and "restarts" from durable state), or {!Transient}, modelling a failed
    maintenance transaction that the retry machinery ({!Retry},
    [Controller.reliable]) may re-attempt.

    Determinism: [Crash_at]/[Transient_at] rules fire on exact visit
    indices; the random rules draw from a {!Prng} seeded at {!create}. A
    profiling pass with {!observer} enumerates every reachable
    (point, visit-count) pair via {!sites}, so a harness can then
    systematically crash at each one. *)

exception Crash of string * int
(** [(point, hit)]: the process died at the [hit]-th visit of [point]. *)

exception Transient of string * int
(** [(point, hit)]: a retryable step failure at the [hit]-th visit. *)

type rule =
  | Crash_at of { point : string; hit : int }
      (** Crash on exactly the [hit]-th visit (1-based) of [point]. *)
  | Transient_at of { point : string; first : int; failures : int }
      (** Visits [first .. first+failures-1] of [point] raise {!Transient};
          later visits succeed — the shape retry tests need. *)
  | Crash_random of { p : float }  (** Each visit of any point crashes with
          probability [p]. *)
  | Transient_random of { p : float }

type t

val none : t
(** The shared disabled instance: {!hit} is a no-op, nothing is counted. *)

val create : ?seed:int -> rules:rule list -> unit -> t
(** @raise Invalid_argument if random rules are given without [?seed]. *)

val observer : unit -> t
(** Counts visits without ever raising — the profiling pass. *)

val crash_at : string -> hit:int -> t
(** [crash_at point ~hit] = [create ~rules:[Crash_at {point; hit}] ()]. *)

val transient_at : string -> hit:int -> failures:int -> t

val hit : t -> string -> unit
(** Visit a fault point. @raise Crash or @raise Transient per the rules. *)

val count : t -> string -> int
(** Visits of one point so far. *)

val sites : t -> (string * int) list
(** Every point visited with its visit count, sorted by name. *)

val total : t -> int

val injected : t -> int
(** How many faults this instance has raised. *)

val last_injected : t -> (string * int) option

val reset : t -> unit

val pp : Format.formatter -> t -> unit
