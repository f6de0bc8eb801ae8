(* The benchmark program. run.py builds it and calls

     rollbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   which prints a provenance line, human-readable figures, and as its last
   line one JSON object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
   is the separate traced run and the metrics are the per-layer ones.
   [--size tiny] is the self-test's smoke size; the provenance line names
   it, so its figures are not taken for the benchmark's.
   [serve-child] is the rolld server process of serve_reads, and
   [selftest-gate] proves the oracle gate catches corrupted contents. *)

open Common

let workloads = [ "star_backlog"; "chain_stream"; "serve_reads" ]

let usage () =
  prerr_endline
    "usage: rollbench.exe --workload <star_backlog|chain_stream|serve_reads> \
     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]\n\
    \       rollbench.exe selftest-gate";
  exit 2

let parse args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go args;
  tbl

let get tbl key =
  match Hashtbl.find_opt tbl key with Some v -> v | None -> usage ()

let int_arg tbl key =
  match int_of_string_opt (get tbl key) with Some n -> n | None -> usage ()

let main args =
  let tbl = parse args in
  let workload = get tbl "workload" in
  let seed = int_arg tbl "seed" in
  let seconds = int_arg tbl "seconds" in
  let trace =
    match get tbl "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let size =
    match Hashtbl.find_opt tbl "size" with
    | None | Some "full" -> Full
    | Some "tiny" -> Tiny
    | Some _ -> usage ()
  in
  if not (List.mem workload workloads) || seconds < 1 then usage ();
  ensure_work_dir ();
  print_endline (meta_json ~workload ~seed ~seconds ~trace ~size);
  let outcome =
    match workload with
    | "star_backlog" -> Star_backlog.run ~size ~seed ~seconds ~trace
    | "chain_stream" -> Chain_stream.run ~size ~seed ~seconds ~trace
    | _ -> Serve_reads.run ~size ~seed ~seconds ~trace
  in
  print_outcome outcome

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve-child" :: args -> Serve_reads.child (parse args)
  | [ "selftest-gate" ] -> Selftest.gate_catches_corruption ()
  | args -> main args
