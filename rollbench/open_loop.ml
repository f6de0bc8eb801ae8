(* The open-loop generator the streaming workloads share (chain_stream in
   process, serve_reads in its server's tick). Transactions fall due on a
   fixed wall-clock schedule; each is committed when due, with how late
   the generator ran and how long the commit took recorded. A
   transaction's freshness runs from its due time until the view's
   applied as_of covers its commit, so a generator that falls behind
   shows in freshness too. *)

module C = Roll_core
open Common

type t = {
  rate : float;
  start : float;
  mutable txns : int;
  pending : (float * int) Queue.t;  (** (due time, commit time), oldest first *)
  fresh : Samples.t;
  late : Samples.t;
  commit : Samples.t;
  mutable maintain_wall : float;  (** seconds inside maintain calls *)
  mutable failed : int;  (** maintain calls that surfaced a step error *)
}

(* A schedule starting now; lateness and commit times go to [layers]. *)
let create ~rate ~(layers : Layers.t) =
  {
    rate;
    start = now ();
    txns = 0;
    pending = Queue.create ();
    fresh = Samples.create ();
    late = layers.Layers.late;
    commit = layers.Layers.commit;
    maintain_wall = 0.0;
    failed = 0;
  }

let due t k = t.start +. (float_of_int k /. t.rate)

let next_due t = due t t.txns

let unapplied t = Queue.length t.pending

(* Commit, oldest first, every transaction due by now. *)
let arrive t ~spans ~db commit =
  let now_ = now () in
  while due t t.txns <= now_ do
    let d = due t t.txns in
    let c0 = now () in
    Samples.add t.late (c0 -. d);
    Spans.with_ spans "commit" commit;
    Samples.add t.commit (now () -. c0);
    Queue.push (d, Database.now db) t.pending;
    t.txns <- t.txns + 1
  done

let retry = Roll_util.Retry.policy ~max_attempts:5 ()

(* One Service.maintain call with retry; afterwards every pending
   transaction the view's applied as_of covers has become visible. *)
let maintain t ~spans ~service ~ctl ~db ~budget =
  let r, dt =
    timed (fun () ->
        Drive.call spans "service.maintain" ~service ~ctl ~db (fun () ->
            C.Service.maintain service ~budget ~retry))
  in
  t.maintain_wall <- t.maintain_wall +. dt;
  (match r with Ok _ -> () | Error _ -> t.failed <- t.failed + 1);
  let as_of = C.Controller.as_of ctl and visible = now () in
  while (not (Queue.is_empty t.pending)) && snd (Queue.peek t.pending) <= as_of
  do
    Samples.add t.fresh (visible -. fst (Queue.pop t.pending))
  done

(* Maintain until every generated transaction is visible (their
   freshness includes this), giving up after a bound on calls; what stays
   unapplied counts as failed. *)
let catch_up t ~spans ~service ~ctl ~db ~budget =
  let calls = ref 0 in
  while (not (Queue.is_empty t.pending)) && !calls < 100_000 do
    incr calls;
    maintain t ~spans ~service ~ctl ~db ~budget
  done
