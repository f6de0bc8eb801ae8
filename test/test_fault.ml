(* Crash-recovery: fault-point instrumentation, WAL-backed frontier
   recovery round trips, torn-checkpoint fallback, and the randomized
   oracle-equivalence harness (Test_support.Fault_harness). *)

open Test_support.Helpers
module Harness = Test_support.Fault_harness
module Fault = Roll_util.Fault
module Wal_codec = Roll_storage.Wal_codec

let with_temp_file f =
  let path = Filename.temp_file "rollfault" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rolling_algo = C.Controller.Rolling (C.Rolling.uniform 6)

let durable_frontier s =
  Harness.durable_frontier 0 s.db s.view

let recover_fresh ?checkpoint s ~algorithm =
  let s2 = Harness.restart two_table s.db in
  (s2, C.Controller.recover ?checkpoint s2.db s2.capture s2.view ~algorithm)

let check_matches_durable msg durable ctl2 ~vectors =
  Alcotest.(check int) (msg ^ ": hwm") durable.C.Frontier.hwm (C.Controller.hwm ctl2);
  Alcotest.(check int) (msg ^ ": as_of") durable.C.Frontier.as_of (C.Controller.as_of ctl2);
  if vectors then
    Alcotest.(check (array int)) (msg ^ ": tfwd") durable.C.Frontier.tfwd
      (C.Controller.frontier ctl2).C.Frontier.tfwd

let finish_and_check s2 ctl2 =
  ignore (C.Controller.refresh_latest ctl2);
  Alcotest.check relation "final contents match oracle"
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2)

(* Kill the process between propagation (delta rows derived from the WAL)
   and apply: the durable frontier still carries the old apply position,
   and recovery restores exactly it. *)
let test_crash_between_propagate_and_apply () =
  let s = two_table () in
  let rng = Prng.create ~seed:200 in
  random_txns rng s 10;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 20;
  C.Controller.propagate_until ctl (Database.now s.db);
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "apply.roll" ~hit:1;
  (try
     ignore (C.Controller.refresh_latest ctl);
     Alcotest.fail "expected crash before apply"
   with Fault.Crash ("apply.roll", 1) -> ());
  let durable = durable_frontier s in
  Alcotest.(check bool) "apply never became durable" true
    (durable.C.Frontier.as_of < durable.C.Frontier.hwm);
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  check_matches_durable "recovered" durable ctl2 ~vectors:true;
  finish_and_check s2 ctl2

(* Kill the process between a forward query and its compensation: the
   half-done step was never recorded, so recovery lands on the frontier of
   the last complete step, and re-runs the step's work without
   double-counting the crashed attempt's emissions (they died with the
   process). *)
let test_crash_between_forward_and_compensation () =
  let s = two_table () in
  let rng = Prng.create ~seed:201 in
  random_txns rng s 25;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 15;
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "rolling.post_forward" ~hit:3;
  let before_crash = ref (C.Controller.frontier ctl) in
  (try
     while C.Controller.propagate_step ctl do
       before_crash := C.Controller.frontier ctl
     done;
     Alcotest.fail "expected crash mid-step"
   with Fault.Crash ("rolling.post_forward", 3) -> ());
  let durable = durable_frontier s in
  Alcotest.(check (array int)) "durable frontier is the last completed step's"
    !before_crash.C.Frontier.tfwd durable.C.Frontier.tfwd;
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  check_matches_durable "recovered" durable ctl2 ~vectors:true;
  check_ok
    (C.Oracle.check_timed_view_delta s2.history s2.view
       (C.Controller.ctx ctl2).C.Ctx.out
       ~lo:(C.Controller.as_of ctl2) ~hi:(C.Controller.hwm ctl2));
  finish_and_check s2 ctl2

(* A clean checkpoint short-circuits recovery: resume from the snapshot,
   then replay only the trajectory recorded after it. *)
let test_recover_from_checkpoint () =
  let s = two_table () in
  let rng = Prng.create ~seed:202 in
  random_txns rng s 20;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 12;
  C.Controller.propagate_until ctl (Database.now s.db);
  ignore (C.Controller.refresh_latest ctl);
  with_temp_file (fun path ->
      C.Controller.checkpoint ctl path;
      (* Keep going after the snapshot, then die mid-step. *)
      random_txns rng s 12;
      (C.Controller.ctx ctl).C.Ctx.fault <-
        Fault.crash_at "rolling.post_forward" ~hit:2;
      (try
         while C.Controller.propagate_step ctl do () done;
         Alcotest.fail "expected crash"
       with Fault.Crash _ -> ());
      let durable = durable_frontier s in
      let s2, ctl2 = recover_fresh ~checkpoint:path s ~algorithm:rolling_algo in
      check_matches_durable "recovered via checkpoint" durable ctl2 ~vectors:true;
      finish_and_check s2 ctl2)

(* A crash mid-checkpoint leaves a torn file; resume refuses it (even when
   the cut lands exactly on a row boundary, thanks to the trailer) and
   recovery falls back to WAL-only replay. *)
let test_torn_checkpoint_falls_back () =
  let s = two_table () in
  let rng = Prng.create ~seed:203 in
  random_txns rng s 25;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 15;
  C.Controller.propagate_until ctl (Database.now s.db);
  ignore (C.Controller.refresh_latest ctl);
  with_temp_file (fun path ->
      (* The crash fires before writing the 4th row: the file ends cleanly
         at a row boundary but without the trailer. *)
      (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "ckpt.row" ~hit:4;
      (try
         C.Controller.checkpoint ctl path;
         Alcotest.fail "expected crash mid-checkpoint"
       with Fault.Crash ("ckpt.row", 4) -> ());
      let durable = durable_frontier s in
      (* The torn snapshot is rejected outright... *)
      let s_probe = Harness.restart two_table s.db in
      Alcotest.(check bool) "torn checkpoint rejected" true
        (try
           ignore (C.Checkpoint.resume s_probe.db s_probe.capture s_probe.view path);
           false
         with Wal_codec.Corrupt _ -> true);
      (* ...and recover falls back to the WAL. *)
      let s2, ctl2 = recover_fresh ~checkpoint:path s ~algorithm:rolling_algo in
      check_matches_durable "recovered after fallback" durable ctl2 ~vectors:true;
      finish_and_check s2 ctl2)

(* Two crashes in a row: recovery is itself crash-safe state, because it
   re-records a fresh frontier marker. *)
let test_double_crash () =
  let s = two_table () in
  let rng = Prng.create ~seed:204 in
  random_txns rng s 20;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 10;
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "rolling.pre_advance" ~hit:2;
  (try
     while C.Controller.propagate_step ctl do () done;
     Alcotest.fail "expected first crash"
   with Fault.Crash _ -> ());
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  random_txns (Prng.create ~seed:205) s2 10;
  (C.Controller.ctx ctl2).C.Ctx.fault <- Fault.crash_at "exec.emit" ~hit:3;
  (try
     while C.Controller.propagate_step ctl2 do () done;
     Alcotest.fail "expected second crash"
   with Fault.Crash _ -> ());
  let durable = Harness.durable_frontier 0 s2.db s2.view in
  let s3, ctl3 = recover_fresh s2 ~algorithm:rolling_algo in
  check_matches_durable "second recovery" durable ctl3 ~vectors:true;
  finish_and_check s3 ctl3

(* Recovery of the uniform and deferred algorithms restarts at the durable
   high-water mark. *)
let test_recover_uniform_and_deferred () =
  List.iter
    (fun algorithm ->
      let s = two_table () in
      let rng = Prng.create ~seed:206 in
      random_txns rng s 18;
      let ctl =
        C.Controller.create ~durable:true s.db s.capture s.view ~algorithm
      in
      random_txns rng s 12;
      (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "exec.query" ~hit:5;
      (try
         while C.Controller.propagate_step ctl do () done;
         Alcotest.fail "expected crash"
       with Fault.Crash _ -> ());
      let durable = durable_frontier s in
      let s2, ctl2 = recover_fresh s ~algorithm in
      check_matches_durable "recovered" durable ctl2 ~vectors:false;
      finish_and_check s2 ctl2)
    [
      C.Controller.Uniform 4;
      C.Controller.Deferred (C.Rolling_deferred.uniform 5);
    ]

(* Recovering with no durable state at all is an error, not a silent
   cold start. *)
let test_recover_requires_durable_state () =
  let s = two_table () in
  random_txns (Prng.create ~seed:207) s 10;
  (* Maintenance ran, but never durably. *)
  let ctl = C.Controller.create s.db s.capture s.view ~algorithm:rolling_algo in
  ignore (C.Controller.refresh_latest ctl);
  let s2 = Harness.restart two_table s.db in
  Alcotest.(check bool) "refused" true
    (try
       ignore (C.Controller.recover s2.db s2.capture s2.view ~algorithm:rolling_algo);
       false
     with Invalid_argument _ -> true)

(* The randomized harness: 100 seeded runs, each crashing at a randomly
   chosen reachable fault site and verifying oracle equivalence after
   recovery. Fixed seeds; see HACKING.md. *)
let test_fuzz_100_seeds () =
  let points = Harness.run_seeds ~txns:10 ~first:0 ~count:100 () in
  (* The harness must actually exercise a spread of crash sites, not keep
     hitting one. *)
  if List.length points < 5 then
    Alcotest.failf "only %d distinct crash sites exercised: %s"
      (List.length points)
      (String.concat ", " points)

(* The same harness over views with auxiliaries: 100 seeded runs on the
   filtered scenario, each crashing at a random reachable site — in the
   user controller, an auxiliary's controller, or capture — and verifying
   that the user view, every auxiliary's contents and every rebuilt mirror
   stay oracle-equivalent after recovery. Also asserts the fleet as a
   whole exercised mirror substitution (not just fallback). *)
let test_fuzz_100_seeds_aux () =
  let points = Harness.run_seeds_aux ~txns:10 ~first:0 ~count:100 () in
  if List.length points < 5 then
    Alcotest.failf "only %d distinct crash sites exercised: %s"
      (List.length points)
      (String.concat ", " points)

let suite =
  [
    Alcotest.test_case "crash between propagate and apply" `Quick
      test_crash_between_propagate_and_apply;
    Alcotest.test_case "crash between forward query and compensation" `Quick
      test_crash_between_forward_and_compensation;
    Alcotest.test_case "recover from checkpoint" `Quick test_recover_from_checkpoint;
    Alcotest.test_case "torn checkpoint falls back to WAL" `Quick
      test_torn_checkpoint_falls_back;
    Alcotest.test_case "double crash" `Quick test_double_crash;
    Alcotest.test_case "recover uniform and deferred" `Quick
      test_recover_uniform_and_deferred;
    Alcotest.test_case "recover requires durable state" `Quick
      test_recover_requires_durable_state;
    Alcotest.test_case "fuzz: 100 seeded crash-recovery runs" `Quick
      test_fuzz_100_seeds;
    Alcotest.test_case "fuzz: 100 seeded aux crash-recovery runs" `Quick
      test_fuzz_100_seeds_aux;
  ]
