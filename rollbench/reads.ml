(* Point-in-time reads through the rolld engine, in process (no socket):
   star_backlog's read phase after each drain, and chain_stream's reads
   in the open loop's idle time. The mix is the serving workload's: 20%
   READ FRESH, 80% READ AT t with t drawn from the last [recency] commits
   below the view's high-water mark. Every [check_every]-th served
   snapshot (every 10th by default) is kept and re-checked against the
   oracle by [check]. *)

module S = Roll_serve
module C = Roll_core
module Prng = Roll_util.Prng
open Common

let fresh_fraction = 0.2

let recency = 50

type t = {
  rng : Prng.t;
  engine : S.Engine.t;
  ctl : C.Controller.t;
  view : string;
  check_every : int;
  latency : Samples.t;  (** seconds per read, submit to response *)
  wait : Samples.t;  (** seconds each served read spent queued *)
  nonwait : Samples.t;  (** latency minus wait, per served read *)
  mutable rows : int;  (** rows served, summed *)
  mutable reads : int;
  mutable rejected : int;  (** reads that were not served *)
  mutable mismatched : int;  (** kept snapshots the oracle disagrees with *)
  mutable kept : (int * string) list;  (** (time, rows digest) to check *)
}

let create ?(check_every = 10) ~rng ~engine ~ctl ~view () =
  {
    rng;
    engine;
    ctl;
    view;
    check_every;
    latency = Samples.create ();
    wait = Samples.create ();
    nonwait = Samples.create ();
    rows = 0;
    reads = 0;
    rejected = 0;
    mismatched = 0;
    kept = [];
  }

let failed r = r.rejected + r.mismatched

(* The target of the next read: FRESH, or AT a time in [lo, hwm). *)
let draw rng ~view ~hwm ~lo =
  let lo = max lo (hwm - recency) in
  if Prng.chance rng fresh_fraction || hwm <= lo then S.Protocol.Read_fresh view
  else S.Protocol.Read_at { view; time = lo + Prng.int rng (hwm - lo) }

(* One read: submit, pump the engine, take the response. *)
let once r ~spans =
  let request =
    draw r.rng ~view:r.view ~hwm:(C.Controller.hwm r.ctl)
      ~lo:(C.Controller.horizon r.ctl)
  in
  let response, dt =
    timed (fun () ->
        Spans.with_ spans "read" (fun () ->
            let ticket = S.Engine.submit r.engine request in
            ignore (S.Engine.pump r.engine);
            S.Engine.poll ticket))
  in
  r.reads <- r.reads + 1;
  Samples.add r.latency dt;
  match response with
  | Some (S.Protocol.Rows { at; rows; wait; _ }) ->
      Samples.add r.wait wait;
      Samples.add r.nonwait (dt -. wait);
      r.rows <- r.rows + List.length rows;
      if r.reads mod r.check_every = 0 then r.kept <- (at, rows_digest rows) :: r.kept
  | Some _ | None -> r.rejected <- r.rejected + 1

(* Re-check the kept snapshots against [oracle t]. *)
let check r ~spans ~oracle =
  Spans.with_ spans "oracle" (fun () ->
      List.iter
        (fun (at, digest) ->
          if rows_digest (Relation.to_list (oracle at)) <> digest then begin
            Printf.printf "!! oracle gate FAILED: read at t=%d differs\n%!" at;
            r.mismatched <- r.mismatched + 1
          end)
        r.kept)

(* A closed loop of [count] reads, then the oracle check. *)
let run ~spans ~rng ~engine ~ctl ~view ~count ~oracle =
  let r = create ~rng ~engine ~ctl ~view () in
  for _ = 1 to count do
    once r ~spans
  done;
  check r ~spans ~oracle;
  r

(* Fill the serve-layer figures of a traced pass from its reads. *)
let note_layers (layers : Layers.t) r =
  List.iter (Samples.add layers.Layers.wait) r.wait.Samples.xs;
  List.iter (Samples.add layers.Layers.nonwait) r.nonwait.Samples.xs;
  layers.Layers.rows_per_read <-
    float_of_int r.rows /. float_of_int (max 1 r.reads);
  layers.Layers.snapshot_hits <- S.Engine.snapshot_memo_hits r.engine;
  layers.Layers.rejected <- r.rejected
