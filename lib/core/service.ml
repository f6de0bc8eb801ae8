module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture

let log_src = Logs.Src.create "roll.service" ~doc:"multi-view maintenance service"

module Log = (val Logs.src_log log_src)

type entry = {
  name : string;
  controller : Controller.t;
  mutable paused : bool;
  mutable sla : int;
  mutable checkpoint : (string * int) option;  (** path, commits between *)
  mutable last_checkpoint : Time.t;
  aux_of : Auxiliary.entry option;
      (** [Some] when this entry maintains an auxiliary view: the registry
          entry whose mirror must be synced after the controller's
          high-water mark advances *)
}

type status = {
  name : string;
  as_of : Time.t;
  hwm : Time.t;
  staleness : int;
  sla : int;
  slack : int;
  delta_rows : int;
  paused : bool;
  retries : int;
  aborts : int;
  recoveries : int;
  memo_hits : int;
  memo_misses : int;
  shared_builds : int;
  aux : bool;  (** this entry is an auxiliary view *)
  aux_hits : int;  (** substitution probes served from fresh auxiliaries *)
  aux_misses : int;  (** probes that fell back to the base table *)
  aux_lag : int;
      (** an auxiliary's mirror lag behind the clock; for a user view, the
          worst lag among its auxiliaries (0 when it has none) *)
  reads_served : int;
  reads_rejected : int;
  read_wait : float;
}

type step_error = { view : string; point : string; hit : int; attempts : int }

type t = {
  db : Database.t;
  capture : Capture.t;
  scheduler : Scheduler.t;
  sharing : bool;
  memo : Memo.t;  (** the shared drain-scoped delta memo (enabled iff sharing) *)
  default_sla : int;
  obs : Roll_obs.Obs.t;
  pool : Roll_util.Dpool.t;
      (** the drain's lanes: one slot (no worker domain) unless
          [~domains] asks for more *)
  mutable gc_threshold : int;
  mutable entries : entry list;  (** registration order *)
  auxiliary : Auxiliary.t option;
      (** higher-order delta registry; [Some] iff auxiliary views are
          enabled for this service *)
}

let env_domains () =
  match Sys.getenv_opt "ROLL_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

(* ROLL_SHARING / ROLL_AUX: environment defaults for the [sharing] and
   [auxiliary] flags, so the whole test/bench matrix can flip either feature
   on without threading parameters (explicit arguments win). *)
let env_flag name =
  match Sys.getenv_opt name with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "false" | "off" | "no" -> false
      | _ -> true)

let create ?policy ?cost_weight ?capture_batch ?sharing ?auxiliary
    ?(default_sla = 100) ?(gc_threshold = max_int) ?obs ?domains db capture =
  let sharing =
    match sharing with Some s -> s | None -> env_flag "ROLL_SHARING"
  in
  let auxiliary =
    match auxiliary with Some a -> a | None -> env_flag "ROLL_AUX"
  in
  if default_sla <= 0 then invalid_arg "Service.create: default_sla";
  let domains = Option.value domains ~default:1 in
  if domains < 1 then invalid_arg "Service.create: domains must be >= 1";
  let obs = match obs with Some o -> o | None -> Roll_obs.Obs.disabled () in
  let scheduler = Scheduler.create ?policy ?cost_weight ?capture_batch db capture in
  if Roll_obs.Obs.enabled obs then begin
    Scheduler.set_obs scheduler obs;
    Database.set_obs db obs;
    Capture.set_obs capture obs;
    (* Capture retries/aborts land on the scheduler's stats record. *)
    Stats.register
      ~labels:[ ("scope", "scheduler") ]
      (Scheduler.stats scheduler)
      (Roll_obs.Obs.metrics obs)
  end;
  {
    db;
    capture;
    scheduler;
    sharing;
    memo = Memo.create ~enabled:sharing ();
    default_sla;
    obs;
    pool = Roll_util.Dpool.create ~domains ();
    gc_threshold;
    entries = [];
    auxiliary = (if auxiliary then Some (Auxiliary.create db capture) else None);
  }

let scheduler t = t.scheduler

(* Read demand feeds the scheduler's reader boost; the serving layer
   (Roll_serve.Engine) installs its waiting-reader census here. *)
let set_read_demand t f = Scheduler.set_read_demand t.scheduler f

let domains t = Roll_util.Dpool.size t.pool

(* Join the worker domains (no-op for a one-lane service). The pool also
   shuts down on process exit, but callers creating many short-lived
   parallel services (tests, benches) must release each one to stay under
   the runtime's domain limit. *)
let shutdown t = Roll_util.Dpool.shutdown t.pool

(* View-name shard: which domain slot a view's propagate items are homed
   to for queue-depth reporting. Purely observational — waves assign work
   by wave position, not by shard — but stable, so operators can watch a
   view's backlog stay on one shard across drains. *)
let shard_of t name = Hashtbl.hash name mod domains t

let obs t = t.obs

let sharing t = t.sharing

let memo t = t.memo

(* Plug the registered view's context into the service-wide memo and align
   its step windows to the interval grid, so sibling views converge on
   identical delta windows (the memo key). Alignment must only be switched
   on after any recovery replay — replay targets recorded frontiers
   exactly and must not snap. *)
let enable_sharing t controller =
  if t.sharing then begin
    (Controller.ctx controller).Ctx.memo <- t.memo;
    Controller.set_window_alignment controller true
  end

let add_entry ?aux_of t name controller =
  let e =
    {
      name;
      controller;
      paused = false;
      sla = t.default_sla;
      checkpoint = None;
      last_checkpoint = Database.now t.db;
      aux_of;
    }
  in
  t.entries <- t.entries @ [ e ];
  if Roll_obs.Obs.enabled t.obs then begin
    let m = Roll_obs.Obs.metrics t.obs in
    let labels = [ ("view", name) ] in
    Stats.register ~labels (Controller.stats controller) m;
    (* Operational freshness gauges: one collector per view per name,
       merged into one labeled family at snapshot time. *)
    let gauge ?help gname read =
      Roll_obs.Metrics.register_collector m ?help
        ~kind:Roll_obs.Metrics.Gauge gname (fun () -> [ (labels, read ()) ])
    in
    gauge "roll_view_hwm" ~help:"View-delta high-water mark (CSN)" (fun () ->
        float_of_int (Controller.hwm controller));
    gauge "roll_view_as_of"
      ~help:"Materialization time of the stored view (CSN)" (fun () ->
        float_of_int (Controller.as_of controller));
    gauge "roll_view_staleness" ~help:"Commits behind current time" (fun () ->
        float_of_int (Database.now t.db - Controller.hwm controller));
    gauge "roll_view_slack" ~help:"SLA minus staleness, in commits" (fun () ->
        float_of_int (e.sla - (Database.now t.db - Controller.hwm controller)));
    gauge "roll_view_delta_rows" ~help:"Rows held in the view delta"
      (fun () ->
        float_of_int (Delta.length (Controller.ctx controller).Ctx.out));
    gauge "roll_view_paused" ~help:"1 when propagation is paused" (fun () ->
        if e.paused then 1. else 0.)
  end

let obs_arg t = if Roll_obs.Obs.enabled t.obs then Some t.obs else None

(* Derive and wire the higher-order auxiliaries for a freshly registered
   view. Each auxiliary the registry hands back that is not already a
   service entry (sibling views share entries via signature dedupe)
   becomes an ordinary entry of its own — scheduler items, waves, durable
   frontiers and recovery all come from the same machinery as a user
   view's. Auxiliaries are durable exactly when their owner is: the
   substitution is an optimization, so it must never out-persist the view
   it serves. *)
let attach_auxiliaries t ~recover owner_controller =
  match t.auxiliary with
  | None -> ()
  | Some reg ->
      let durable = Controller.durable owner_controller in
      List.iter
        (fun ae ->
          let aname = Auxiliary.name ae in
          if
            not
              (List.exists
                 (fun (e : entry) -> String.equal e.name aname)
                 t.entries)
          then add_entry ~aux_of:ae t aname (Auxiliary.controller ae))
        (Auxiliary.attach ~durable ~recover ?obs:(obs_arg t) reg
           owner_controller)

let register ?(durable = false) t ~algorithm view =
  let name = View.name view in
  if List.exists (fun (e : entry) -> String.equal e.name name) t.entries then
    invalid_arg ("Service.register: view already registered: " ^ name);
  let controller =
    Controller.create ~durable ?obs:(obs_arg t) t.db t.capture view ~algorithm
  in
  enable_sharing t controller;
  add_entry t name controller;
  attach_auxiliaries t ~recover:false controller;
  controller

let register_recovered ?checkpoint t ~algorithm view =
  let name = View.name view in
  if List.exists (fun (e : entry) -> String.equal e.name name) t.entries then
    invalid_arg ("Service.register_recovered: view already registered: " ^ name);
  let controller =
    Controller.recover ?checkpoint ?obs:(obs_arg t) t.db t.capture view
      ~algorithm
  in
  (* After recover: the trajectory replay inside [Controller.recover] must
     land frontiers exactly where the markers recorded them, un-snapped. *)
  enable_sharing t controller;
  add_entry t name controller;
  attach_auxiliaries t ~recover:true controller;
  controller

let auxiliary t = t.auxiliary

let find t name =
  match List.find_opt (fun (e : entry) -> String.equal e.name name) t.entries with
  | Some e -> e
  | None -> raise Not_found

let controller t name = (find t name).controller

let names t = List.map (fun (e : entry) -> e.name) t.entries

let set_sla t name sla =
  if sla <= 0 then invalid_arg "Service.set_sla";
  (find t name).sla <- sla

let sla t name = (find t name).sla

let set_checkpoint t name ~path ~every =
  if every <= 0 then invalid_arg "Service.set_checkpoint: every";
  let e = find t name in
  e.checkpoint <- Some (path, every);
  e.last_checkpoint <- Database.now t.db

let set_gc_threshold t rows =
  if rows <= 0 then invalid_arg "Service.set_gc_threshold";
  t.gc_threshold <- rows

let aux_lag_of t (e : entry) =
  match t.auxiliary with
  | None -> 0
  | Some reg -> (
      match e.aux_of with
      | Some ae -> Auxiliary.lag reg ae
      | None ->
          (* A user view's freshness exposure: the worst mirror lag among
             the auxiliaries its probes depend on. *)
          List.fold_left
            (fun acc ae -> max acc (Auxiliary.lag reg ae))
            0
            (Auxiliary.for_owner reg ~owner:e.name))

let status t =
  let now = Database.now t.db in
  List.map
    (fun (e : entry) ->
      let hwm = Controller.hwm e.controller in
      let stats = Controller.stats e.controller in
      let staleness = now - hwm in
      {
        name = e.name;
        as_of = Controller.as_of e.controller;
        hwm;
        staleness;
        sla = e.sla;
        slack = e.sla - staleness;
        delta_rows = Delta.length (Controller.ctx e.controller).Ctx.out;
        paused = e.paused;
        retries = Stats.retries stats;
        aborts = Stats.aborts stats;
        recoveries = Stats.recoveries stats;
        memo_hits = Stats.memo_hits stats;
        memo_misses = Stats.memo_misses stats;
        shared_builds = Stats.shared_builds stats;
        aux = Option.is_some e.aux_of;
        aux_hits = Stats.aux_hits stats;
        aux_misses = Stats.aux_misses stats;
        aux_lag = aux_lag_of t e;
        reads_served = Stats.reads_served stats;
        reads_rejected = Stats.reads_rejected stats;
        read_wait = Stats.read_wait stats;
      })
    t.entries

let pause t name = (find t name).paused <- true

let resume t name = (find t name).paused <- false

(* Removing a user view releases its claim on its auxiliaries; auxiliaries
   left with no owner at all are orphans — their entries leave the service
   with the registry entry, so no more maintenance items are planned for
   them and their mirrors become unreachable. *)
let unregister t name =
  let e = find t name in
  if Option.is_some e.aux_of then
    invalid_arg
      ("Service.unregister: " ^ name
     ^ " is an auxiliary view; it is retired when its last owner goes");
  t.entries <-
    List.filter (fun (x : entry) -> not (String.equal x.name name)) t.entries;
  match t.auxiliary with
  | None -> ()
  | Some reg ->
      let orphans = Auxiliary.release reg ~owner:name in
      t.entries <-
        List.filter
          (fun (x : entry) ->
            not
              (List.exists
                 (fun ae -> String.equal (Auxiliary.name ae) x.name)
                 orphans))
          t.entries

(* ------------------------------------------------------------------ *)
(* Scheduler drain                                                     *)

(* Applied view-delta rows: rows at or before the apply position are the
   only ones gc can reclaim. One count on the incrementally caught-up
   index, so every take can afford it. *)
let entry_applied_rows (e : entry) =
  Delta.window_count (Controller.ctx e.controller).Ctx.out ~lo:min_int
    ~hi:(Controller.as_of e.controller)

let applied_rows t name = entry_applied_rows (find t name)

(* A delta shorter than the threshold cannot hold enough applied rows: the
   default threshold (max_int) never touches the out-delta at all. *)
let gc_due t (e : entry) =
  Delta.length (Controller.ctx e.controller).Ctx.out >= t.gc_threshold
  && entry_applied_rows e >= t.gc_threshold

let sources ?(skip = fun _ -> false) ?(bg_done = fun _ _ -> false) t =
  let now = Database.now t.db in
  List.map
    (fun (e : entry) ->
      {
        Scheduler.name = e.name;
        controller = e.controller;
        paused = e.paused || skip e.name;
        sla = e.sla;
        apply_due = not (bg_done "apply" e.name);
        checkpoint_due =
          (match e.checkpoint with
          | Some (_, every) -> now - e.last_checkpoint >= every
          | None -> false)
          && not (bg_done "checkpoint" e.name);
        gc_due = gc_due t e && not (bg_done "gc" e.name);
        aux = Option.is_some e.aux_of;
      })
    t.entries

let schedule ?full t = Scheduler.plan ?full t.scheduler (sources t)

(* WAL prefix reclaim, piggybacked on view gc: records at or below every
   consumer's horizon are dead — each view replays history from its gc
   horizon at the earliest, and capture has folded everything up to its
   high-water mark into the delta tables. On a paged store this deletes
   whole WAL segments (and Database clamps to the data snapshot); in
   memory it is a no-op. Returns the number of segments deleted. *)
let reclaim_wal t =
  match t.entries with
  | [] -> 0
  | entries ->
      let horizon =
        List.fold_left
          (fun acc (e : entry) -> min acc (Controller.horizon e.controller))
          max_int entries
      in
      let upto = min horizon (Capture.hwm t.capture) in
      if upto <= 0 then 0 else Database.reclaim_wal t.db ~upto

(* Work-item execution shared by the plain and reliable drains. [step]
   runs one propagation step for a view and [capture_run] one capture
   advance (wrapped in the retry policy on the reliable path); everything
   else is common. Views whose propagate step reports idle are skipped for
   the rest of the drain as a defensive guard — by construction a view with
   candidates always advances. Background items mark themselves done in
   [bg_done] so each runs at most once per view per drain: a durable apply
   or checkpoint commits a frontier marker, which re-stales the view by one
   commit and would otherwise re-offer the item forever. *)
(* Mirror maintenance piggybacks on the items that move an auxiliary's
   high-water mark: every new permanently-committed view-delta row folds
   into the probe mirror right after the step that produced it. *)
let sync_aux (e : entry) =
  match e.aux_of with Some ae -> Auxiliary.sync ae | None -> ()

let exec_item t ~skipped ~bg_done ~step ~capture_run (scored : Scheduler.scored)
    =
  let mark_bg kind view = Hashtbl.replace bg_done (kind, view) () in
  match scored.Scheduler.item with
  | Scheduler.Capture_advance -> (
      match capture_run ~max_records:(Scheduler.capture_batch t.scheduler) with
      | Ok () -> Ok false
      | Error e -> Error e)
  | Scheduler.Propagate_step { view; _ } -> (
      let e = find t view in
      match step e.controller with
      | Ok true ->
          sync_aux e;
          Ok true
      | Ok false ->
          Log.warn (fun m ->
              m "view %s: scheduled step was idle; skipping for this drain"
                view);
          Hashtbl.replace skipped view ();
          Ok false
      | Error e -> Error e)
  | Scheduler.Apply_refresh view ->
      mark_bg "apply" view;
      let e = find t view in
      Controller.refresh_to e.controller (Controller.hwm e.controller);
      sync_aux e;
      Ok true
  | Scheduler.Checkpoint view -> (
      mark_bg "checkpoint" view;
      let e = find t view in
      match e.checkpoint with
      | Some (path, _) ->
          Controller.checkpoint e.controller path;
          e.last_checkpoint <- Database.now t.db;
          Ok true
      | None -> Ok false)
  | Scheduler.Gc view ->
      mark_bg "gc" view;
      (* Memoized deltas hold copies, not positions, so pruning cannot
         corrupt them — but a replay could re-emit rows the prune just
         reclaimed. Drop the memo rather than reason about overlap. *)
      if t.sharing then Memo.clear t.memo;
      let e = find t view in
      (* An auxiliary syncs its mirror before pruning: the mirror reads the
         very delta window the prune reclaims. *)
      (match e.aux_of with
      | Some ae -> ignore (Auxiliary.gc ae)
      | None -> ignore (Controller.gc e.controller));
      ignore (reclaim_wal t);
      Ok true

let step_error view (f : Roll_util.Retry.failure) =
  {
    view;
    point = f.Roll_util.Retry.point;
    hit = f.Roll_util.Retry.hit;
    attempts = f.Roll_util.Retry.attempts;
  }

(* Capture advances under the retry policy: the capture fault point fires
   before any delta mutation, so a failed advance left nothing behind and
   can simply be re-run. Capture retries are counted on the scheduler's
   stats (capture has no per-view controller to count them on). *)
let reliable_capture t ~retry ~sleep ~max_records =
  let sched_stats = Scheduler.stats t.scheduler in
  match
    Roll_util.Retry.run retry ~sleep
      ~on_retry:(fun ~attempt:_ ~delay:_ -> Stats.incr_retries sched_stats)
      (fun () -> Capture.advance ?max_records t.capture)
  with
  | Ok () -> Ok ()
  | Error f ->
      Stats.incr_aborts sched_stats;
      Error (step_error "(capture)" f)

(* Rows a propagate item appended to its view delta, measured around the
   execution (memo replays count too — they append real rows). *)
let out_length t (item : Scheduler.item) =
  match item with
  | Scheduler.Propagate_step { view; _ } -> (
      match
        List.find_opt (fun (e : entry) -> String.equal e.name view) t.entries
      with
      | Some e -> Delta.length (Controller.ctx e.controller).Ctx.out
      | None -> 0)
  | _ -> 0

(* Per-item observations shared by single items and wave members: the
   item-latency and window-width histograms, plus rows emitted for
   propagate items. *)
let observe_item t (s : Scheduler.scored) ~wall ~emitted =
  let module M = Roll_obs.Metrics in
  let m = Roll_obs.Obs.metrics t.obs in
  M.observe
    (M.histogram m ~help:"Wall-clock seconds per executed work item"
       ~labels:[ ("kind", Scheduler.kind_name s.Scheduler.item) ]
       "roll_item_latency_seconds")
    wall;
  (match s.Scheduler.window with
  | Some (_, lo, hi) ->
      M.observe
        (M.histogram m
           ~help:"Delta-window width of executed propagate steps, in commits"
           "roll_step_window_width")
        (float_of_int (hi - lo))
  | None -> ());
  match s.Scheduler.item with
  | Scheduler.Propagate_step _ ->
      M.observe
        (M.histogram m ~help:"View-delta rows emitted per propagate step"
           "roll_step_rows_emitted")
        (float_of_int (max 0 emitted))
  | _ -> ()

(* Attributes of an item's ["sched.item"] span. Read on the drain domain:
   the queue wait comes from scheduler state the workers must not touch. *)
let item_attrs t (s : Scheduler.scored) =
  let module T = Roll_obs.Trace in
  [
    ("kind", T.Str (Scheduler.kind_name s.Scheduler.item));
    ("item", T.Str (Format.asprintf "%a" Scheduler.pp_item s.Scheduler.item));
    ("score", T.Float s.Scheduler.score);
    ("slack", T.Int s.Scheduler.slack);
    ("est_rows", T.Int s.Scheduler.est_rows);
  ]
  @
  match Scheduler.queue_wait t.scheduler s.Scheduler.item with
  | Some w -> [ ("queue_wait", T.Float w) ]
  | None -> []

let drain_items ?(full = false) t ~budget ~step ~capture_run ~wave_step
    ~apply_sleep =
  let skipped = Hashtbl.create 4 in
  let bg_done = Hashtbl.create 4 in
  (* The tables are re-read through [sources] on every take. *)
  Scheduler.begin_drain t.scheduler;
  (* The delta memo is drain-scoped: entries from a previous drain would
     still be sound (their windows are immutable), clearing just bounds
     memory to one drain's worth of shared work. *)
  if t.sharing then Memo.clear t.memo;
  let skip name = Hashtbl.mem skipped name in
  let done_bg kind name = Hashtbl.mem bg_done (kind, name) in
  let executed = ref 0 in
  let failure = ref None in
  let continue = ref true in
  let enabled = Roll_obs.Obs.enabled t.obs in
  let tracing = Roll_obs.Obs.tracing t.obs in
  (* The obs clock: real time by default, the injected manual clock under
     test — which also makes the scheduler's wall counters deterministic. *)
  let now () = Roll_obs.Obs.now t.obs in
  let exec_one (scored : Scheduler.scored) =
    let emitted_before =
      if enabled then out_length t scored.Scheduler.item else 0
    in
    let run () =
      let t0 = now () in
      let result = exec_item t ~skipped ~bg_done ~step ~capture_run scored in
      let wall = now () -. t0 in
      Scheduler.note_ran t.scheduler scored.Scheduler.item ~wall;
      if enabled then
        observe_item t scored ~wall
          ~emitted:(out_length t scored.Scheduler.item - emitted_before);
      (match result with
      | Error (f : step_error) ->
          if tracing then
            Roll_obs.Trace.set_error
              (Roll_obs.Obs.trace t.obs)
              (Printf.sprintf "%s failed at %s" f.view f.point)
      | Ok _ -> ());
      result
    in
    if tracing then
      Roll_obs.Trace.with_span (Roll_obs.Obs.trace t.obs)
        ~attrs:(item_attrs t scored) "sched.item" run
    else run ()
  in
  (* ---------------- wave execution (worker-domain pool) ------------- *)
  (* One wave: pairwise-disjoint-window propagate steps of distinct views,
     executed concurrently in frozen-clock mode, then committed by this
     (single-writer) domain in wave order. Failure semantics match running
     the members one by one: the earliest wave-order failure wins and
     every later item — even a successful one — is undone as if it never
     ran. *)
  let exec_wave (wave : Scheduler.scored list) =
    let module Dpool = Roll_util.Dpool in
    let frozen = Capture.hwm t.capture in
    let clock = Database.now t.db in
    (* Catch every capture delta's timestamp index up before the workers
       share the deltas read-only: a window read catches a stale index up
       in place, which is only safe single-threaded. A member reads every
       source of its view, not only the delta its window rolls. *)
    List.iter
      (fun table -> Delta.freshen (Capture.delta t.capture ~table))
      (Capture.attached t.capture);
    let items = Array.of_list wave in
    let n = Array.length items in
    let size = Dpool.size t.pool in
    let prep =
      Array.mapi
        (fun k (s : Scheduler.scored) ->
          let view, relation =
            match s.Scheduler.item with
            | Scheduler.Propagate_step { view; relation } -> (view, relation)
            | _ -> assert false
          in
          let lo, hi =
            match s.Scheduler.window with
            | Some (_, lo, hi) -> (lo, hi)
            | None -> assert false
          in
          let ctl = (find t view).controller in
          let ctx = Controller.ctx ctl in
          let out_mark = Delta.length ctx.Ctx.out in
          let memo_mark = Memo.mark ctx.Ctx.memo in
          (* The owner tag is the wave position — unique within the wave
             (members are distinct views), so an undo evicts exactly this
             item's memo fills. *)
          ctx.Ctx.memo_owner <- k;
          let saved_obs = ctx.Ctx.obs in
          if tracing then ctx.Ctx.obs <- Roll_obs.Obs.fork saved_obs;
          let attrs = if tracing then item_attrs t s else [] in
          (s, view, relation, ctl, ctx, lo, hi, out_mark, memo_mark, saved_obs,
           attrs))
        items
    in
    let sleeps = Array.make n 0. in
    let walls = Array.make n 0. in
    let jobs =
      Array.map
        (fun (_, _, relation, ctl, ctx, _, hi, _, _, _, attrs) (_slot : int) ->
          let obs = ctx.Ctx.obs in
          let run () =
            let t0 = Roll_obs.Obs.now obs in
            let result =
              wave_step ctl ~relation ~hi ~frozen ~sleep:(fun d ->
                  (* Workers must not touch the (single-writer) simulated
                     wall clock; backoff accumulates here and the drain
                     domain applies it deterministically after the join. *)
                  let k = ctx.Ctx.memo_owner in
                  sleeps.(k) <- sleeps.(k) +. d)
            in
            walls.(ctx.Ctx.memo_owner) <- Roll_obs.Obs.now obs -. t0;
            (match result with
            | Error (f : step_error) ->
                if Roll_obs.Obs.tracing obs then
                  Roll_obs.Trace.set_error
                    (Roll_obs.Obs.trace obs)
                    (Printf.sprintf "%s failed at %s" f.view f.point)
            | Ok _ -> ());
            result
          in
          if Roll_obs.Obs.tracing obs then
            Roll_obs.Trace.with_span (Roll_obs.Obs.trace obs) ~attrs
              "sched.item" run
          else run ())
        prep
    in
    let results = Dpool.map t.pool jobs in
    (* Single-writer commit phase, wave order throughout. Restore the
       contexts' observability handles and splice the forked traces back
       first, so commit-phase spans and errors land on the parent. *)
    Array.iter
      (fun (_, _, _, _, ctx, _, _, _, _, saved_obs, _) ->
        if tracing then begin
          let child = ctx.Ctx.obs in
          ctx.Ctx.obs <- saved_obs;
          Roll_obs.Obs.absorb saved_obs child
        end)
      prep;
    (* Members read base tables at physical time and compensate only up to
       [frozen]: a commit during the wave would fall between the two. *)
    if Database.now t.db <> clock then
      failwith "Service: the database clock moved during a wave";
    let first_err = ref n in
    Array.iteri
      (fun k r ->
        if !first_err = n then
          match r with Ok (Ok _) -> () | Ok (Error _) | Error _ -> first_err := k)
      results;
    let fe = !first_err in
    (* Everything ordered after the first failure is undone — a completed
       item's rows, memo fills and frontier; a failed later item's partial
       emissions (its internal rollback, if any, makes this a no-op). *)
    for k = n - 1 downto fe + 1 do
      let _, _, relation, ctl, _, lo, _, out_mark, memo_mark, _, _ = prep.(k) in
      Controller.undo_window ctl ~relation ~lo ~out_mark ~memo_mark ~owner:k
    done;
    let commit_metrics s ~wall ~emitted =
      if enabled then observe_item t s ~wall ~emitted
    in
    for k = 0 to min fe (n - 1) do
      let s, view, _, ctl, ctx, _, _, out_mark, _, _, _ = prep.(k) in
      (* Retry backoff accumulated on the worker, applied in wave order so
         the simulated wall clock advances deterministically. *)
      if sleeps.(k) > 0. then apply_sleep sleeps.(k);
      match results.(k) with
      | Ok (Ok (advanced, ran_query)) ->
          Controller.note_step_durable ctl ~advanced ~executed:ran_query;
          (* Committed wave items are final (everything after the first
             failure was already undone above), so an auxiliary member's
             mirror can fold the step's rows in now. *)
          sync_aux (find t view);
          Scheduler.note_ran ~domain:(k mod size) t.scheduler
            s.Scheduler.item ~wall:walls.(k);
          commit_metrics s ~wall:walls.(k)
            ~emitted:(Delta.length ctx.Ctx.out - out_mark);
          if advanced then incr executed
          else begin
            Log.warn (fun m ->
                m "view %s: scheduled step was idle; skipping for this drain"
                  view);
            Hashtbl.replace skipped view ()
          end
      | Ok (Error f) ->
          Scheduler.note_ran ~domain:(k mod size) t.scheduler
            s.Scheduler.item ~wall:walls.(k);
          commit_metrics s ~wall:walls.(k)
            ~emitted:(Delta.length ctx.Ctx.out - out_mark);
          if tracing then
            Roll_obs.Trace.set_error
              (Roll_obs.Obs.trace t.obs)
              (Printf.sprintf "%s failed at %s" f.view f.point);
          failure := Some f
      | Error exn ->
          (* A plain (retry-less) drain propagates step exceptions; the
             partial state it leaves matches a single item's. *)
          raise exn
    done
  in
  let wave_ctl (s : Scheduler.scored) =
    match s.Scheduler.item with
    | Scheduler.Propagate_step { view; _ } -> Some (find t view).controller
    | _ -> None
  in
  let is_wave_head (s : Scheduler.scored) =
    match (wave_ctl s, s.Scheduler.window) with
    | Some ctl, Some _ -> Controller.supports_window_step ctl
    | _ -> false
  in
  (* Freeze only a caught-up clock. A member's forward query reads base
     tables as they are now, so its compensation must reach now too: the
     rule of a marker-committing query, which with [auto_capture] set
     first brings capture to the end of the log. *)
  let catch_up wave =
    if
      Capture.lag t.capture > 0
      && List.exists
           (fun s ->
             match wave_ctl s with
             | Some ctl -> (Controller.ctx ctl).Ctx.auto_capture
             | None -> false)
           wave
    then capture_run ~max_records:None
    else Ok ()
  in
  let body () =
    while !continue && !failure = None && !executed < budget do
      let srcs = sources ~skip ~bg_done:done_bg t in
      let cap = min (domains t) (budget - !executed) in
      match Scheduler.take_wave ~full t.scheduler srcs ~max:(max 1 cap) with
      | [] -> continue := false
      | wave when List.for_all is_wave_head wave -> (
          match catch_up wave with
          | Ok () -> exec_wave wave
          | Error f -> failure := Some f)
      | [ single ] -> (
          (* Non-propagate head (capture, apply, checkpoint, gc) or a
             process without window steps: one item, run in place. *)
          match exec_one single with
          | Ok counts -> if counts then incr executed
          | Error f -> failure := Some f)
      | _ -> assert false (* take_wave only builds waves of wave heads *)
    done;
    match !failure with Some f -> Error f | None -> Ok !executed
  in
  if tracing then begin
    let trace = Roll_obs.Obs.trace t.obs in
    Roll_obs.Trace.with_span trace
      ~attrs:
        [
          ("budget", Roll_obs.Trace.Int budget);
          ("full", Roll_obs.Trace.Bool full);
          ("sharing", Roll_obs.Trace.Bool t.sharing);
        ]
      "service.drain"
      (fun () ->
        let result = body () in
        Roll_obs.Trace.add_attr trace "executed" (Roll_obs.Trace.Int !executed);
        (match result with
        | Error (f : step_error) ->
            Roll_obs.Trace.set_error trace
              (Printf.sprintf "%s failed at %s after %d attempts" f.view
                 f.point f.attempts)
        | Ok _ -> ());
        result)
  end
  else body ()

let plain_capture t ~max_records =
  Capture.advance ?max_records t.capture;
  Ok ()

let plain_drain ~full t ~budget =
  drain_items ~full t ~budget
    ~step:(fun ctl -> Ok (Controller.propagate_step ctl))
    ~capture_run:(plain_capture t)
    ~wave_step:(fun ctl ~relation ~hi ~frozen ~sleep:_ ->
      Ok (Controller.step_window ctl ~relation ~hi ~frozen))
    ~apply_sleep:(fun d -> Database.advance_wall t.db d)

(* The retrying drain behind {!try_step_all} and [maintain ~retry]: steps,
   capture advances and wave steps all run under [retry], and a permanent
   failure surfaces as the failing view's [step_error]. *)
let reliable_drain ~full ?sleep t ~budget ~retry =
  let sleep =
    match sleep with
    | Some f -> f
    | None -> fun d -> Database.advance_wall t.db d
  in
  let fail ctl =
    Result.map_error (step_error (View.name (Controller.view ctl)))
  in
  drain_items ~full t ~budget
    ~step:(fun ctl ->
      fail ctl
        (Controller.reliable ctl ~retry ~sleep (fun () ->
             Controller.propagate_step ctl)))
    ~capture_run:(reliable_capture t ~retry ~sleep)
    ~wave_step:(fun ctl ~relation ~hi ~frozen ~sleep ->
      fail ctl
        (Controller.reliable ctl ~retry ~sleep (fun () ->
             Controller.step_window ctl ~relation ~hi ~frozen)))
    ~apply_sleep:sleep

let step_all t ~budget =
  match plain_drain ~full:false t ~budget with
  | Ok steps -> steps
  | Error (_ : step_error) -> assert false

let try_step_all ?sleep t ~budget ~retry =
  reliable_drain ~full:false ?sleep t ~budget ~retry

let maintain ?retry ?sleep t ~budget =
  match retry with
  | None -> plain_drain ~full:true t ~budget
  | Some retry -> reliable_drain ~full:true ?sleep t ~budget ~retry

let refresh_all t =
  List.iter
    (fun (e : entry) ->
      if not e.paused then begin
        ignore (Controller.refresh_latest e.controller);
        sync_aux e
      end)
    t.entries

let gc_all t =
  let pruned =
    List.fold_left
      (fun acc (e : entry) ->
        acc
        +
        match e.aux_of with
        | Some ae -> Auxiliary.gc ae
        | None -> Controller.gc e.controller)
      0 t.entries
  in
  ignore (reclaim_wal t);
  pruned

(* ------------------------------------------------------------------ *)
(* JSON renderings (rollctl --json, CI assertions)                     *)

let status_json t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (s : status) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"view\":%s,\"as_of\":%d,\"hwm\":%d,\"staleness\":%d,\"sla\":%d,\"slack\":%d,\"delta_rows\":%d,\"paused\":%b,\"retries\":%d,\"aborts\":%d,\"recoveries\":%d,\"memo_hits\":%d,\"memo_misses\":%d,\"shared_builds\":%d,\"aux\":%b,\"aux_hits\":%d,\"aux_misses\":%d,\"aux_lag\":%d,\"reads_served\":%d,\"reads_rejected\":%d,\"read_wait\":%s}"
           (E.json_string s.name) s.as_of s.hwm s.staleness s.sla s.slack
           s.delta_rows s.paused s.retries s.aborts s.recoveries s.memo_hits
           s.memo_misses s.shared_builds s.aux s.aux_hits s.aux_misses
           s.aux_lag s.reads_served s.reads_rejected
           (E.json_float s.read_wait)))
    (status t);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Per-shard queue depth: planned propagate items hashed by view name onto
   the domain slots; every other kind belongs to the single-writer drain
   domain (slot 0). Sharding is observational — waves assign work by wave
   position — but it shows how the planned queue would spread. *)
let shard_depths ?full t =
  let d = Array.make (domains t) 0 in
  List.iter
    (fun (s : Scheduler.scored) ->
      match s.Scheduler.item with
      | Scheduler.Propagate_step { view; _ } ->
          let i = shard_of t view in
          d.(i) <- d.(i) + 1
      | _ -> d.(0) <- d.(0) + 1)
    (schedule ?full t);
  d

let ran_by_domain t = Scheduler.ran_by_domain t.scheduler

let shards_json ?full t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"domains\":%d,\"shards\":[" (domains t));
  Array.iteri
    (fun i depth ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"shard\":%d,\"depth\":%d}" i depth))
    (shard_depths ?full t);
  Buffer.add_string buf "],\"ran\":[";
  List.iteri
    (fun i ((kind, domain), count) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":%s,\"domain\":%d,\"count\":%d}"
           (E.json_string kind) domain count))
    (ran_by_domain t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let schedule_json ?full t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (s : Scheduler.scored) ->
      if i > 0 then Buffer.add_char buf ',';
      let window =
        match s.Scheduler.window with
        | Some (table, lo, hi) ->
            Printf.sprintf "{\"table\":%s,\"lo\":%d,\"hi\":%d}"
              (E.json_string table) lo hi
        | None -> "null"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"item\":%s,\"kind\":%s,\"score\":%s,\"staleness\":%d,\"slack\":%d,\"est_rows\":%d,\"est_cost\":%s,\"deferred\":%b,\"readers\":%d,\"aux\":%b,\"window\":%s}"
           (E.json_string
              (Format.asprintf "%a" Scheduler.pp_item s.Scheduler.item))
           (E.json_string (Scheduler.kind_name s.Scheduler.item))
           (E.json_float s.Scheduler.score)
           s.Scheduler.staleness s.Scheduler.slack s.Scheduler.est_rows
           (E.json_float s.Scheduler.est_cost)
           s.Scheduler.deferred s.Scheduler.readers s.Scheduler.aux window))
    (schedule ?full t);
  Buffer.add_char buf ']';
  Buffer.contents buf
