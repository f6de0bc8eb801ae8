(* Randomized crash-recovery harness shared by the tier-1 fault suite and
   the extended slow fuzz.

   One seeded run has three lives over the same deterministic schedule of
   random updates, propagation steps, point-in-time refreshes and (for some
   seeds) checkpoints:

   - a profiling life under [Fault.observer], enumerating every reachable
     (fault point, visit count) site;
   - a crash life: the same schedule with a [Crash] injected at one
     randomly chosen reachable site, after which the process state (context,
     delta, controller) is discarded, the WAL — the only durable state — is
     restored into a fresh database, and [Controller.recover] restarts
     maintenance;
   - a post-recovery life: the recovered controller is checked against the
     durable frontier and the oracle, then driven further and checked
     again at the end.

   The driver consumes its own PRNG stream, so the profiling and crash
   lives see identical visit sequences up to the injection point. *)

open Helpers
module Fault = Roll_util.Fault
module Wal = Roll_storage.Wal
module Wal_codec = Roll_storage.Wal_codec

let wal_records db =
  let wal = Database.wal db in
  let acc = ref [] in
  Wal.iter_from wal ~pos:0 (fun r -> acc := r :: !acc);
  List.rev !acc

(* Restart from durable state: fresh tables, WAL replayed, fresh capture. *)
let restart make db =
  let s2 = make () in
  Database.restore s2.db (wal_records db);
  s2

let algorithm_of_seed seed ~two_way =
  match seed mod 4 with
  | 0 -> C.Controller.Rolling (C.Rolling.uniform (2 + (seed mod 5)))
  | 1 -> C.Controller.Uniform (3 + (seed mod 4))
  | 2 when two_way ->
      C.Controller.Deferred (C.Rolling_deferred.uniform (2 + (seed mod 4)))
  | _ -> C.Controller.Adaptive (3 + (seed mod 6))

let exact_vectors = function
  | C.Controller.Rolling _ | C.Controller.Adaptive _ -> true
  | C.Controller.Uniform _ | C.Controller.Deferred _ -> false

(* One life: a deterministic interleaving of update transactions,
   propagation steps, refreshes and checkpoints, ending caught up. *)
let drive rng s ctl ~ckpt_path ~txns =
  for _ = 1 to txns do
    match Prng.int rng 6 with
    | 0 | 1 | 2 -> random_txns rng s 1
    | 3 | 4 -> ignore (C.Controller.propagate_step ctl)
    | _ -> (
        match ckpt_path with
        | Some path when Prng.chance rng 0.3 -> C.Controller.checkpoint ctl path
        | _ -> C.Controller.refresh_to ctl (C.Controller.hwm ctl))
  done;
  ignore (C.Controller.refresh_latest ctl)

let durable_frontier seed db view =
  match C.Frontier.latest (Database.wal db) ~view:(C.View.name view) with
  | Some f -> f
  | None -> Alcotest.failf "seed %d: no durable frontier in the WAL" seed

(* Check the recovered controller against the durable frontier and the
   oracle; [sample] bounds the per-time-point delta check for long runs.
   Recovery must land exactly on the last durable frontier: quiet-window
   advances are not recorded (they replay for free), and checkpoints record
   a fresh marker before saving, so the latest marker is always the
   authoritative durable state. *)
let check_recovery seed ~algorithm ~durable s2 ctl2 ~sample =
  let tag msg = Printf.sprintf "seed %d: %s" seed msg in
  Alcotest.(check int) (tag "recovered hwm") durable.C.Frontier.hwm
    (C.Controller.hwm ctl2);
  Alcotest.(check int) (tag "recovered as_of") durable.C.Frontier.as_of
    (C.Controller.as_of ctl2);
  if exact_vectors algorithm then
    Alcotest.(check (array int)) (tag "recovered tfwd vector")
      durable.C.Frontier.tfwd
      (C.Controller.frontier ctl2).C.Frontier.tfwd;
  (match
     C.Oracle.check_timed_view_delta_sampled ~sample s2.history s2.view
       (C.Controller.ctx ctl2).C.Ctx.out
       ~lo:(C.Controller.as_of ctl2)
       ~hi:(C.Controller.hwm ctl2)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "seed %d: recovered delta diverges: %s" seed msg);
  Alcotest.check relation (tag "recovered contents")
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2)

(* The full three-life run for one seed. Returns the crash site exercised,
   for reporting.

   [obs] (default none) is installed on the crash life's controller and on
   the recovery — the trace-integrity property drives this harness with a
   manual-clock Rollscope handle and asserts every recorded trace stays
   balanced and well-nested across the injected crash. The profiling life
   never sees it, so site enumeration is identical either way. *)
let run_seed ?(sample = fun b -> b mod 4 = 0) ?obs:rollscope ~txns seed =
  let two_way = seed land 1 = 0 in
  let make () = if two_way then two_table () else three_table () in
  let algorithm = algorithm_of_seed seed ~two_way in
  let with_ckpt = seed mod 5 = 0 in
  let ckpt_path = Filename.temp_file "faultfuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_path with Sys_error _ -> ())
  @@ fun () ->
  let ckpt = if with_ckpt then Some ckpt_path else None in
  (* Life 1: profile reachable fault sites. *)
  let obs = Fault.observer () in
  let s_obs = make () in
  let ctl_obs =
    C.Controller.create ~durable:true s_obs.db s_obs.capture s_obs.view
      ~algorithm
  in
  (C.Controller.ctx ctl_obs).C.Ctx.fault <- obs;
  Capture.set_fault s_obs.capture obs;
  drive (Prng.create ~seed) s_obs ctl_obs ~ckpt_path:ckpt ~txns;
  let sites = Array.of_list (Fault.sites obs) in
  if Array.length sites = 0 then
    Alcotest.failf "seed %d: no fault sites reached" seed;
  (* Life 2: crash at a random reachable site. *)
  let hrng = Prng.create ~seed:(seed + 100_000) in
  let point, visits = Prng.pick hrng sites in
  let hit = 1 + Prng.int hrng visits in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  let crash = Fault.create ~rules:[ Fault.Crash_at { point; hit } ] () in
  let s = make () in
  let ctl1 =
    C.Controller.create ~durable:true ?obs:rollscope s.db s.capture s.view
      ~algorithm
  in
  (C.Controller.ctx ctl1).C.Ctx.fault <- crash;
  Capture.set_fault s.capture crash;
  let crashed =
    try
      drive (Prng.create ~seed) s ctl1 ~ckpt_path:ckpt ~txns;
      false
    with Fault.Crash _ -> true
  in
  if not crashed then
    Alcotest.failf "seed %d: crash at %s visit %d never fired" seed point hit;
  let durable = durable_frontier seed s.db s.view in
  (* Life 3: restart from the WAL alone and verify. *)
  let s2 = restart make s.db in
  let ctl2 =
    C.Controller.recover ?checkpoint:ckpt ?obs:rollscope s2.db s2.capture
      s2.view ~algorithm
  in
  check_recovery seed ~algorithm ~durable s2 ctl2 ~sample;
  Alcotest.(check int) (Printf.sprintf "seed %d: one recovery counted" seed) 1
    (C.Stats.recoveries (C.Controller.stats ctl2));
  (* Keep living: more updates and propagation on the recovered state, then
     a final end-to-end oracle check. *)
  drive (Prng.create ~seed:(seed + 1)) s2 ctl2 ~ckpt_path:None ~txns;
  Alcotest.check relation
    (Printf.sprintf "seed %d: final contents (crashed at %s#%d)" seed point hit)
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2);
  (point, hit)

(* ------------------------------------------------------------------ *)
(* Auxiliary-view lives: the same three-life structure over the filtered
   scenario (the one whose view derives an auxiliary), with the auxiliary
   maintained alongside the user controller — probabilistically, so some
   propagation steps substitute a fresh mirror and others fall back to the
   base table — and recovered through [Auxiliary.attach ~recover:true]
   after the crash. Oracle equivalence must hold for the user view AND
   for every auxiliary's recovered contents and rebuilt mirror. *)

let aux_algorithm_of_seed seed =
  match seed mod 3 with
  | 0 -> C.Controller.Rolling (C.Rolling.uniform (2 + (seed mod 5)))
  | 1 -> C.Controller.Uniform (3 + (seed mod 4))
  | _ -> C.Controller.Adaptive (3 + (seed mod 6))

(* One life with auxiliaries: the user-view schedule of [drive], plus a
   2-in-3 chance per turn of freshening the auxiliaries (step + sync), so
   the freshness test sees both outcomes along every run. *)
let drive_aux rng s ctl entries ~txns =
  for _ = 1 to txns do
    (match Prng.int rng 6 with
    | 0 | 1 | 2 -> random_txns rng s 1
    | 3 | 4 -> ignore (C.Controller.propagate_step ctl)
    | _ -> C.Controller.refresh_to ctl (C.Controller.hwm ctl));
    if Prng.int rng 3 > 0 then
      List.iter
        (fun ae ->
          ignore (C.Controller.propagate_step (C.Auxiliary.controller ae));
          C.Auxiliary.sync ae)
        entries
  done;
  ignore (C.Controller.refresh_latest ctl);
  List.iter
    (fun ae ->
      ignore (C.Controller.refresh_latest (C.Auxiliary.controller ae));
      C.Auxiliary.sync ae)
    entries

let check_aux seed ~life s entries =
  List.iter
    (fun ae ->
      let actl = C.Auxiliary.controller ae in
      let tag msg =
        Printf.sprintf "seed %d: %s aux %s %s" seed life (C.Auxiliary.name ae)
          msg
      in
      Alcotest.check relation (tag "contents")
        (C.Oracle.view_at s.history (C.Auxiliary.view ae)
           (C.Controller.as_of actl))
        (C.Controller.contents actl);
      Alcotest.check relation (tag "mirror")
        (C.Oracle.view_at s.history (C.Auxiliary.view ae)
           (C.Auxiliary.mirror_as_of ae))
        (Table.contents (C.Auxiliary.mirror ae)))
    entries

(* Three lives with a crash, as [run_seed], over the auxiliary scenario.
   Returns the crash site plus the substitution hits observed after
   recovery, so callers can assert the fleet as a whole exercised both the
   probe and the fallback paths. *)
let run_seed_aux ?(sample = fun b -> b mod 4 = 0) ~txns seed =
  let algorithm = aux_algorithm_of_seed seed in
  let wire s ~recover =
    let ctl =
      if recover then
        C.Controller.recover s.db s.capture s.view ~algorithm
      else C.Controller.create ~durable:true s.db s.capture s.view ~algorithm
    in
    let reg = C.Auxiliary.create ~interval:(2 + (seed mod 4)) s.db s.capture in
    let entries =
      C.Auxiliary.attach ~durable:true ~recover reg ctl
    in
    if entries = [] then Alcotest.failf "seed %d: no auxiliary derived" seed;
    (ctl, reg, entries)
  in
  let install fault ctl entries =
    (C.Controller.ctx ctl).C.Ctx.fault <- fault;
    List.iter
      (fun ae ->
        (C.Controller.ctx (C.Auxiliary.controller ae)).C.Ctx.fault <- fault)
      entries
  in
  (* Life 1: profile reachable fault sites (user and auxiliary alike). *)
  let obs = Fault.observer () in
  let s_obs = filtered () in
  let ctl_obs, _, entries_obs = wire s_obs ~recover:false in
  install obs ctl_obs entries_obs;
  Capture.set_fault s_obs.capture obs;
  drive_aux (Prng.create ~seed) s_obs ctl_obs entries_obs ~txns;
  let sites = Array.of_list (Fault.sites obs) in
  if Array.length sites = 0 then
    Alcotest.failf "seed %d: no fault sites reached" seed;
  (* Life 2: crash at a random reachable site. *)
  let hrng = Prng.create ~seed:(seed + 200_000) in
  let point, visits = Prng.pick hrng sites in
  let hit = 1 + Prng.int hrng visits in
  let crash = Fault.create ~rules:[ Fault.Crash_at { point; hit } ] () in
  let s = filtered () in
  let ctl1, _, entries1 = wire s ~recover:false in
  install crash ctl1 entries1;
  Capture.set_fault s.capture crash;
  let crashed =
    try
      drive_aux (Prng.create ~seed) s ctl1 entries1 ~txns;
      false
    with Fault.Crash _ -> true
  in
  if not crashed then
    Alcotest.failf "seed %d: crash at %s visit %d never fired" seed point hit;
  let durable = durable_frontier seed s.db s.view in
  (* Life 3: restart from the WAL alone; the user controller and every
     auxiliary recover, and the mirrors are rebuilt from recovered
     contents. *)
  let s2 = restart filtered s.db in
  let ctl2, _, entries2 = wire s2 ~recover:true in
  check_recovery seed ~algorithm ~durable s2 ctl2 ~sample;
  check_aux seed ~life:"recovered" s2 entries2;
  (* Keep living on the recovered state, then the final oracle checks. *)
  drive_aux (Prng.create ~seed:(seed + 1)) s2 ctl2 entries2 ~txns;
  Alcotest.check relation
    (Printf.sprintf "seed %d: final contents (crashed at %s#%d)" seed point
       hit)
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2);
  check_aux seed ~life:"final" s2 entries2;
  (point, hit, C.Stats.aux_hits (C.Controller.stats ctl2))

let run_seeds_aux ?sample ~txns ~first ~count () =
  let exercised = Hashtbl.create 16 in
  let hits = ref 0 in
  for seed = first to first + count - 1 do
    let point, _, h = run_seed_aux ?sample ~txns seed in
    hits := !hits + h;
    Hashtbl.replace exercised point ()
  done;
  if !hits = 0 then
    Alcotest.fail
      "auxiliary fleet: substitution never fired across any seed";
  Hashtbl.fold (fun point () acc -> point :: acc) exercised []
  |> List.sort String.compare

let run_seeds ?sample ~txns ~first ~count () =
  let exercised = Hashtbl.create 16 in
  for seed = first to first + count - 1 do
    let point, _ = run_seed ?sample ~txns seed in
    Hashtbl.replace exercised point ()
  done;
  Hashtbl.fold (fun point () acc -> point :: acc) exercised []
  |> List.sort String.compare
