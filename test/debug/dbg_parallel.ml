(* Debug driver: diff one-lane vs 4-lane drain fingerprints for one seed. *)
open Test_support.Helpers
open Roll_relation
module C = Roll_core
module Prng = Roll_util.Prng
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry
module Delta = Roll_delta.Delta

let a_only_view db name =
  let b = C.View.binder db [ ("a", "a") ] in
  C.View.create db ~name ~sources:[ ("a", "a") ]
    ~predicate:
      [ Predicate.cmp Predicate.Ge (Predicate.Col (b "a" "v"))
          (Predicate.Const (Value.Int 2)) ]
    ~project:[ b "a" "k"; b "a" "v" ]

let c_only_view db name =
  let b = C.View.binder db [ ("c", "c") ] in
  C.View.create db ~name ~sources:[ ("c", "c") ]
    ~predicate:
      [ Predicate.cmp Predicate.Ge (Predicate.Col (b "c" "w"))
          (Predicate.Const (Value.Int 1)) ]
    ~project:[ b "c" "l"; b "c" "w" ]

let run_drain ~seed ~domains =
  let s = three_table () in
  let rng = Prng.create ~seed in
  random_txns rng s 10;
  let service = C.Service.create ~domains s.db s.capture in
  let reg algo v = C.Service.register ~durable:true service ~algorithm:algo v in
  let abc = reg (C.Controller.Rolling (C.Rolling.uniform 4)) s.view in
  let a1 = reg (C.Controller.Rolling (C.Rolling.uniform 3)) (a_only_view s.db "a_only") in
  let c1 = reg (C.Controller.Rolling (C.Rolling.uniform 5)) (c_only_view s.db "c_only") in
  random_txns rng s 25;
  if seed mod 3 = 0 then
    (C.Controller.ctx abc).C.Ctx.fault <-
      Fault.transient_at "rolling.post_forward" ~hit:2 ~failures:2;
  if seed mod 7 = 0 then
    (C.Controller.ctx a1).C.Ctx.fault <-
      Fault.transient_at "exec.query" ~hit:1 ~failures:1;
  let result =
    C.Service.try_step_all ~sleep:(fun _ -> ()) service ~budget:10_000
      ~retry:(Retry.policy ~max_attempts:5 ())
  in
  (s, service, [ ("abc", abc); ("a_only", a1); ("c_only", c1) ], result)

let dump tag (s, _, ctls, result) =
  Printf.printf "=== %s (db now %d) ===\n" tag (Roll_storage.Database.now s.db);
  (match result with
  | Error (e : C.Service.step_error) ->
      Printf.printf "FAILED %s at %s\n" e.C.Service.view e.C.Service.point
  | Ok n -> Printf.printf "ok, %d steps\n" n);
  List.iter
    (fun (name, ctl) ->
      let f = C.Controller.frontier ctl in
      let out = (C.Controller.ctx ctl).C.Ctx.out in
      Printf.printf "%s: tfwd=[%s] hwm=%d rows=%d\n" name
        (String.concat ";" (Array.to_list (Array.map string_of_int f.C.Frontier.tfwd)))
        f.C.Frontier.hwm (Delta.length out);
      List.iteri
        (fun i (r : Delta.row) ->
          Printf.printf "  %3d: ts=%d count=%d tuple=%s\n" i r.Delta.ts
            r.Delta.count
            (Format.asprintf "%a" Tuple.pp r.Delta.tuple))
        (Delta.to_list out);
      match C.Frontier.latest (Roll_storage.Database.wal s.db) ~view:name with
      | Some fr ->
          Printf.printf "  marker: tfwd=[%s] hwm=%d as_of=%d\n"
            (String.concat ";"
               (Array.to_list (Array.map string_of_int fr.C.Frontier.tfwd)))
            fr.C.Frontier.hwm fr.C.Frontier.as_of
      | None -> Printf.printf "  marker: none\n")
    ctls

let () =
  let seed = int_of_string Sys.argv.(1) in
  dump "one-lane" (run_drain ~seed ~domains:1);
  dump "4-lane" (run_drain ~seed ~domains:4)
