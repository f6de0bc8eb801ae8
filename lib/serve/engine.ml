(** The serving engine: admission control and the blocked-reader queue.

    rolld keeps the single-writer discipline of the maintenance loop: the
    engine never runs maintenance itself and connection threads never
    touch the database. A connection thread {!submit}s a read and blocks
    in {!await}; the drain loop (the server's engine thread, or a test
    driving the engine inline) calls {!pump} between maintenance drains
    to resolve whatever has become servable. All database access — clock
    reads, snapshot construction, status — happens inside {!pump} on the
    pumping thread, so reads are always served against a quiescent
    engine.

    {2 Admission}

    For [READ view AT t] with current database time [now], view
    high-water mark [hwm] and gc horizon [h]:

    - [t > now]: rejected [too_new] — the time has not been committed, no
      amount of waiting on this server can serve it;
    - [t < h]: rejected [gc_horizon] — the applied delta prefix below [h]
      was pruned, the snapshot is gone forever;
    - [t <= hwm]: served immediately from the view delta
      ({!Roll_core.Controller.view_at}, or the last snapshot served for
      the view rolled to [t]), no maintenance needed;
    - [hwm < t <= now]: {e queued}. The reader blocks until propagation
      rolls the high-water mark past [t]; queued readers are what the
      scheduler's reader boost counts ({!demand} is installed as the
      {!Roll_core.Service.set_read_demand} census).

    [READ view FRESH] serves at the current high-water mark and never
    queues. A full queue sheds new reads with [overloaded] instead of
    growing without bound. *)

module Service = Roll_core.Service
module Controller = Roll_core.Controller
module Stats = Roll_core.Stats
module Database = Roll_storage.Database
module Relation = Roll_relation.Relation
module Tuple = Roll_relation.Tuple
module Delta = Roll_delta.Delta
module Obs = Roll_obs.Obs
module Metrics = Roll_obs.Metrics

type ticket = {
  request : Protocol.request;
  submitted : float;  (** the service's obs clock at submit *)
  t_mutex : Mutex.t;
  t_cond : Condition.t;
  mutable result : Protocol.response option;
}

type t = {
  service : Service.t;
  db : Database.t;
  queue_limit : int;
  mutex : Mutex.t;  (** guards [pending], [accepting] and the counters *)
  mutable pending : ticket list;  (** newest first; {!pump} serves oldest first *)
  mutable accepting : bool;
  mutable served : int;
  mutable rejected : int;
  (* Last materialized snapshot per view, keyed by serve time. Reads at a
     fixed (view, t) with [t <= hwm] are deterministic — the applied
     delta below the high-water mark is append-only — so bursts of
     clients asking for the same past time re-serve the rows without
     another {!Controller.view_at} replay, and a read at another time
     rolls the cached rows by the view delta in between. Pump-thread
     only (like every db touch); entries die when the gc horizon passes
     their time. *)
  snapshots : (string, Roll_delta.Time.t * (Roll_relation.Tuple.t * int) list) Hashtbl.t;
  mutable snapshot_hits : int;
}

let demand t view =
  Mutex.protect t.mutex (fun () ->
      List.length
        (List.filter
           (fun ticket ->
             match ticket.request with
             | Protocol.Read_at { view = v; _ } -> v = view
             | _ -> false)
           t.pending))

(* Read waits are measured on the service's obs clock (DESIGN.md §14):
   real time by default, the injected manual clock under test. *)
let now t = Obs.now (Service.obs t.service)

let create ?(queue_limit = 1024) db service =
  if queue_limit < 1 then invalid_arg "Engine.create: queue_limit < 1";
  let t =
    {
      service;
      db;
      queue_limit;
      mutex = Mutex.create ();
      pending = [];
      accepting = true;
      served = 0;
      rejected = 0;
      snapshots = Hashtbl.create 8;
      snapshot_hits = 0;
    }
  in
  (* Plug the blocked-reader census into the scheduler so drains
     prioritize views clients are waiting on. *)
  Service.set_read_demand service (demand t);
  t

let service t = t.service

let db t = t.db

let pending t = Mutex.protect t.mutex (fun () -> List.length t.pending)

let reads_served t = Mutex.protect t.mutex (fun () -> t.served)

let reads_rejected t = Mutex.protect t.mutex (fun () -> t.rejected)

let resolve ticket response =
  Mutex.protect ticket.t_mutex (fun () ->
      ticket.result <- Some response;
      Condition.broadcast ticket.t_cond)

let await ticket =
  Mutex.protect ticket.t_mutex (fun () ->
      let rec wait () =
        match ticket.result with
        | Some r -> r
        | None ->
            Condition.wait ticket.t_cond ticket.t_mutex;
            wait ()
      in
      wait ())

let poll ticket = Mutex.protect ticket.t_mutex (fun () -> ticket.result)

let submit t request =
  (match request with
  | Protocol.Read_at _ | Protocol.Read_fresh _ | Protocol.Status -> ()
  | _ -> invalid_arg "Engine.submit: only READ and STATUS requests are queued");
  let ticket =
    {
      request;
      submitted = now t;
      t_mutex = Mutex.create ();
      t_cond = Condition.create ();
      result = None;
    }
  in
  let reject =
    Mutex.protect t.mutex (fun () ->
        if not t.accepting then (
          t.rejected <- t.rejected + 1;
          Some Protocol.Shutting_down)
        else if List.length t.pending >= t.queue_limit then (
          t.rejected <- t.rejected + 1;
          Some
            (Protocol.Overloaded
               { pending = List.length t.pending; limit = t.queue_limit }))
        else begin
          t.pending <- ticket :: t.pending;
          None
        end)
  in
  (match reject with
  | Some r -> resolve ticket (Protocol.Rejected r)
  | None -> ());
  ticket

(* Serving (pump thread only — the single place that touches the db). *)

let observe_read t ~view ~wait ~staleness =
  let obs = Service.obs t.service in
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    Metrics.observe
      (Metrics.histogram m ~labels:[ ("view", view) ]
         ~help:"seconds admitted readers spent blocked on freshness"
         "rolld_read_wait_seconds")
      wait;
    Metrics.observe
      (Metrics.histogram m ~labels:[ ("view", view) ]
         ~help:"commits behind current time at serve"
         "rolld_read_staleness_commits")
      (float_of_int staleness)
  end

(* [rows] plus [changes], both sorted by tuple: counts of equal tuples
   add up, and tuples whose count reaches zero drop out. Every row gets a
   fresh pair, so a snapshot's rows become garbage together. Pairs shared
   from one snapshot to the next would stay scattered over many partly
   live heap pools: on chain_stream that raised the peak heap by a
   third. *)
let merge_rows rows changes =
  let rec go acc rows changes =
    match (rows, changes) with
    | [], [] -> List.rev acc
    | (a, m) :: rows', [] -> go ((a, m) :: acc) rows' []
    | [], c :: changes' -> go (c :: acc) [] changes'
    | (a, m) :: rows', ((b, n) as c) :: changes' ->
        let k = Tuple.compare a b in
        if k < 0 then go ((a, m) :: acc) rows' changes
        else if k > 0 then go (c :: acc) rows changes'
        else go (if m + n = 0 then acc else (a, m + n) :: acc) rows' changes'
  in
  go [] rows changes

(* The rows at [time], rolled from the snapshot served at [at]: the view
   delta between the two times, netted and sorted, merges into the cached
   rows. That is one pass over the view instead of a copy of it and a
   full sort, and it serves the same rows as {!Controller.view_at}. *)
let roll_rows out ~at rows ~time =
  let changes =
    Relation.to_list (Delta.net_effect out ~lo:(min at time) ~hi:(max at time))
  in
  merge_rows rows
    (if time > at then changes else List.map (fun (x, n) -> (x, -n)) changes)

let snapshot_rows t ~view ~ctl ~time =
  let horizon = Controller.horizon ctl in
  match Hashtbl.find_opt t.snapshots view with
  | Some (at, rows) when at = time && at >= horizon ->
      t.snapshot_hits <- t.snapshot_hits + 1;
      rows
  | cached ->
      let out = (Controller.ctx ctl).Roll_core.Ctx.out in
      let rows =
        match cached with
        | Some (at, rows)
          when at >= horizon
               && Delta.window_count out ~lo:(min at time) ~hi:(max at time)
                  <= List.length rows ->
            roll_rows out ~at rows ~time
        | _ -> Relation.to_list (Controller.view_at ctl time)
      in
      Hashtbl.replace t.snapshots view (time, rows);
      rows

let snapshot_memo_hits t = t.snapshot_hits

let serve t ticket ~view ~ctl ~time =
  let hwm = Controller.hwm ctl in
  let wait = now t -. ticket.submitted in
  let rows = snapshot_rows t ~view ~ctl ~time in
  let stats = Controller.stats ctl in
  Stats.incr_reads_served stats;
  Stats.add_read_wait stats wait;
  observe_read t ~view ~wait ~staleness:(Database.now t.db - time);
  Mutex.protect t.mutex (fun () -> t.served <- t.served + 1);
  resolve ticket (Protocol.Rows { view; at = time; hwm; wait; rows })

let reject t ticket ?stats r =
  (match stats with Some s -> Stats.incr_reads_rejected s | None -> ());
  Mutex.protect t.mutex (fun () -> t.rejected <- t.rejected + 1);
  resolve ticket (Protocol.Rejected r)

let status t =
  let pending, served, rejected =
    Mutex.protect t.mutex (fun () ->
        (List.length t.pending, t.served, t.rejected))
  in
  let views =
    match Json.of_string_opt (Service.status_json t.service) with
    | Some v -> v
    | None -> Json.Null
  in
  Json.Obj
    [
      ("now", Json.Int (Database.now t.db));
      ("domains", Json.Int (Service.domains t.service));
      ("pending", Json.Int pending);
      ("served", Json.Int served);
      ("rejected", Json.Int rejected);
      ("views", views);
    ]

(* Try to resolve one ticket against current state; [false] = keep it
   queued (admitted, waiting for the high-water mark). *)
let step t ticket =
  match ticket.request with
  | Protocol.Status ->
      resolve ticket (Protocol.Status_report (status t));
      true
  | (Protocol.Read_at { view; _ } | Protocol.Read_fresh view) as request -> (
      match Service.controller t.service view with
      | exception Not_found ->
          reject t ticket (Protocol.Unknown_view view);
          true
      | ctl -> (
          match request with
          | Protocol.Read_fresh _ ->
              serve t ticket ~view ~ctl ~time:(Controller.hwm ctl);
              true
          | Protocol.Read_at { time; _ } ->
              let now = Database.now t.db in
              let horizon = Controller.horizon ctl in
              if time > now then begin
                reject t ticket ~stats:(Controller.stats ctl)
                  (Protocol.Too_new { requested = time; now });
                true
              end
              else if time < horizon then begin
                reject t ticket ~stats:(Controller.stats ctl)
                  (Protocol.Gc_horizon { requested = time; horizon });
                true
              end
              else if time <= Controller.hwm ctl then begin
                serve t ticket ~view ~ctl ~time;
                true
              end
              else false
          | _ -> assert false))
  | _ -> assert false

let pump t =
  let batch =
    Mutex.protect t.mutex (fun () ->
        let oldest_first = List.rev t.pending in
        t.pending <- [];
        oldest_first)
  in
  let still_pending, resolved =
    List.fold_left
      (fun (pending, resolved) ticket ->
        if step t ticket then (pending, resolved + 1)
        else (ticket :: pending, resolved))
      ([], 0) batch
  in
  (* Re-queue survivors (they are newest-first again, as [pending] expects). *)
  Mutex.protect t.mutex (fun () -> t.pending <- still_pending @ t.pending);
  resolved

let close t =
  let orphans =
    Mutex.protect t.mutex (fun () ->
        t.accepting <- false;
        let orphans = t.pending in
        t.pending <- [];
        t.rejected <- t.rejected + List.length orphans;
        orphans)
  in
  List.iter
    (fun ticket -> resolve ticket (Protocol.Rejected Protocol.Shutting_down))
    orphans
