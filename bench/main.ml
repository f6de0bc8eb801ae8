(* The benchmark/experiment harness: one executable regenerating every
   figure-level experiment (see DESIGN.md section 6) plus bechamel
   microbenchmarks.

     dune exec bench/main.exe                # everything
     dune exec bench/main.exe -- fig5 claim  # only matching experiments
     dune exec bench/main.exe -- --list
*)

(* Harness timing goes through the injectable Rollscope clock — the same
   source the instrumented maintenance path reads (DESIGN.md section 14). *)
let clock = Roll_obs.Clock.real ()

let now () = Roll_obs.Clock.now clock

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--list" args then begin
    List.iter (fun (name, _) -> print_endline name) Experiments.all;
    print_endline "micro";
    print_endline "json";
    print_endline "sched";
    print_endline "serve";
    print_endline "share";
    print_endline "obs";
    print_endline "storage";
    print_endline "higher_order"
  end
  else begin
    let wanted name =
      args = []
      || List.exists
           (fun pat ->
             String.length pat <= String.length name
             && String.sub name 0 (String.length pat) = pat)
           args
    in
    let timed name f =
      let t = now () in
      f ();
      Printf.printf "[%s: %.1fs]\n%!" name (now () -. t)
    in
    let t0 = now () in
    List.iter
      (fun (name, f) -> if wanted name then timed name f)
      Experiments.all;
    if wanted "micro" then Micro.run ();
    if wanted "json" then timed "json" Bench_json.run;
    if wanted "sched" then timed "sched" Bench_sched.run;
    if wanted "serve" then timed "serve" Bench_serve.run;
    if wanted "share" then timed "share" Bench_share.run;
    if wanted "obs" then timed "obs" Bench_obs.run;
    if wanted "storage" then timed "storage" Bench_storage.run;
    if wanted "higher_order" then timed "higher_order" Bench_higher.run;
    Printf.printf "\ntotal: %.1fs\n" (now () -. t0)
  end
