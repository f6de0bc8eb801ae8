(* The self-test's half that needs the program: the oracle gate must pass
   real contents and catch a corrupted copy of them, both as a relation
   and as a served-rows digest. *)

module C = Roll_core
module W = Roll_workload
open Common

let gate_catches_corruption () =
  let star, service, ctl =
    Star_backlog.setup (Star_backlog.config Tiny 1)
  in
  W.Star.mixed_txns star ~n:100 ~dim_fraction:0.05;
  ignore (C.Service.step_all service ~budget:max_int);
  C.Controller.refresh_to ctl (Database.now (W.Star.db star));
  let expected =
    C.Oracle.view_at (W.Star.history star) (W.Star.view star)
      (C.Controller.as_of ctl)
  in
  let actual = C.Controller.contents ctl in
  let corrupted = Relation.copy actual in
  (match Relation.to_list actual with
  | (tuple, _) :: _ -> Relation.add corrupted tuple 1
  | [] -> failwith "selftest: empty view");
  let passes = gate ~what:"real contents" ~expected ~actual in
  let caught = not (gate ~what:"corrupted copy (expected)" ~expected ~actual:corrupted) in
  let digest_caught =
    rows_digest (Relation.to_list corrupted) <> rows_digest (Relation.to_list expected)
  in
  C.Service.shutdown service;
  Printf.printf "gate passes real contents: %b\ngate catches corrupted copy: %b\n\
                 digest catches corrupted rows: %b\n"
    passes caught digest_caught;
  exit (if passes && caught && digest_caught then 0 else 1)
