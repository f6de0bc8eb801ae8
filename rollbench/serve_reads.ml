(* serve_reads — closed-loop reads over the real Unix socket. The server is
   a child process (this executable re-run as [serve-child]) built from
   Server.start with the benchmark's tick: commit seeded default-star txns
   at a fixed rate (the shared open loop), Service.maintain with retry,
   then Engine.pump to serve the queued reads. The parent reads over
   one connection, 20% READ star FRESH and 80% READ star AT t with t among
   the last 50 commits below the last high-water mark it saw. After the
   run the parent hands a seeded sample of served (t, digest) pairs to the
   child, which re-checks them against the oracle before it exits.

   The view is never gc'd here (the service default): a gc prunes every
   applied row, so reads of the last 50 commits would meet typed
   gc_horizon rejections after each one; gc is chain_stream's to exercise.
   Without gc the view's delta grows all run and maintenance slows with
   it, so the rate, 50 txn/s, sits well below the serving knee: at 100 the
   read and freshness tails tripled over a 35 s run and swung from run to
   run, and at 200 they swung twofold even over 20 s. *)

module C = Roll_core
module W = Roll_workload
module S = Roll_serve
module Prng = Roll_util.Prng
open Common

let rate = 50.0

let budget = 64

(* Every [sample_every]-th read of a connection is kept for the oracle. *)
let sample_every = 10

let setups = 61

let star_config size seed =
  match size with
  | Full -> { W.Star.default_config with seed }
  | Tiny -> { W.Star.default_config with fact_initial = 200; dim_size = 20; seed }

(* --- the server child ---------------------------------------------------- *)

let setup cfg =
  place_store ();
  let star = W.Star.create cfg in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create db (W.Star.capture star) in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 5; 40; 40 |]))
      (W.Star.view star)
  in
  (star, service, ctl)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* The server's pause between loops (Server.start's default tick
   interval). *)
let tick_interval = 0.001

let child tbl =
  let arg k = Hashtbl.find tbl k in
  let seed = int_of_string (arg "seed") in
  let size = if arg "size" = "tiny" then Tiny else Full in
  let traced = arg "trace" = "1" in
  let out = arg "out" and sample = arg "sample" in
  let cfg = star_config size seed in
  let (star, service, ctl), setup_s =
    setup_median ~n:setups
      ~teardown:(fun (_, service, _) -> C.Service.shutdown service)
      (fun _ -> setup cfg)
  in
  let db = W.Star.db star in
  let engine = S.Engine.create db service in
  let spans = Spans.create ~enabled:traced in
  let layers = Layers.create () in
  let before = snapshot service ctl db in
  let loop = Open_loop.create ~rate ~layers in
  let start = loop.Open_loop.start in
  let last_end = ref start in
  (* The engine thread loops tick, Engine.pump, pause. The tick commits
     what is due and maintains, then pumps the engine itself, so serving
     the queued reads is timed here; the server's own pump then finds
     (nearly) nothing. Of the gap until the next tick only the pause is
     known: it is recorded as [idle], and the rest (the server's pump, a
     pause overrun, the connection threads' codec and socket work holding
     the runtime lock) is left unattributed. *)
  let tick () =
    let t0 = now () in
    Spans.add spans "idle" ~start:!last_end
      (Float.min tick_interval (t0 -. !last_end));
    Spans.with_ spans "serve.tick" (fun () ->
        Open_loop.arrive loop ~spans ~db (fun () ->
            W.Star.mixed_txns star ~n:1 ~dim_fraction:0.05);
        Open_loop.maintain loop ~spans ~service ~ctl ~db ~budget);
    Samples.add layers.Layers.tick (now () -. t0);
    Spans.with_ spans "engine.pump" (fun () -> ignore (S.Engine.pump engine));
    last_end := now ()
  in
  let server = S.Server.start ~tick ~tick_interval ~socket:(arg "socket") engine in
  S.Server.wait server;
  Open_loop.catch_up loop ~spans ~service ~ctl ~db ~budget;
  let after = snapshot service ctl db in
  C.Service.shutdown service;
  (* Re-check the parent's sample of served snapshots against the oracle. *)
  let history = W.Star.history star and view = W.Star.view star in
  let checked, mismatched =
    Spans.with_ spans "oracle" (fun () ->
        List.fold_left
          (fun (n, bad) line ->
            match String.split_on_char ' ' line with
            | [ t; digest ] ->
                let rows =
                  Relation.to_list (C.Oracle.view_at history view (int_of_string t))
                in
                if rows_digest rows = digest then (n + 1, bad)
                else begin
                  Printf.eprintf "!! oracle gate FAILED: served read at t=%s\n%!" t;
                  (n + 1, bad + 1)
                end
            | _ -> (n, bad + 1))
          (0, 0) (read_lines sample))
  in
  layers.Layers.drain_wall <- loop.Open_loop.maintain_wall;
  layers.Layers.snapshot_hits <- S.Engine.snapshot_memo_hits engine;
  layers.Layers.rejected <- S.Engine.reads_rejected engine;
  Layers.note_storage layers db;
  let rollup = Spans.rollup ~wall:(now () -. start) spans in
  layers.Layers.unattributed_share <- Spans.unattributed_share rollup;
  let metric_line m = Printf.sprintf "metric %s %.17g %s" m.name m.value m.unit in
  let unapplied = Open_loop.unapplied loop in
  let covered = loop.Open_loop.txns - unapplied in
  let fresh = loop.Open_loop.fresh in
  if traced then
    Spans.write spans ~name:(Printf.sprintf "serve_reads-%d-server" seed) rollup;
  write_lines out
    ([
       Printf.sprintf "setup_s %.17g" setup_s;
       Printf.sprintf "drain_txn_per_s %.17g"
         (float_of_int covered /. Float.max loop.Open_loop.maintain_wall 1e-9);
       Printf.sprintf "fresh_p50_ms %.17g" (windowed_ms 0.5 fresh);
       Printf.sprintf "fresh_p90_ms %.17g" (windowed_ms 0.9 fresh);
       Printf.sprintf "fresh_n %d" (Samples.count fresh);
       Printf.sprintf "peak_heap_mb %.17g" (peak_heap_mb ());
       Printf.sprintf "txns %d" loop.Open_loop.txns;
       Printf.sprintf "unapplied %d" unapplied;
       Printf.sprintf "failed_steps %d" loop.Open_loop.failed;
       Printf.sprintf "checked %d" checked;
       Printf.sprintf "mismatched %d" mismatched;
     ]
    @ List.map metric_line (Layers.metrics layers ~before ~after)
    @ List.map
        (fun (r : Spans.row) ->
          Printf.sprintf "span %s %d %.17g %.17g %.17g %d" r.Spans.r_name
            r.Spans.r_count r.Spans.r_total r.Spans.r_self r.Spans.r_minor_words
            r.Spans.r_major_gcs)
        (fst rollup)
    @ [ Printf.sprintf "span_wall %.17g" (snd rollup) ])

(* --- the client parent --------------------------------------------------- *)

type client = {
  latency : Samples.t;
  wait : Samples.t;
  nonwait : Samples.t;
  mutable rows : int;
  mutable reads : int;
  mutable rejected : int;
  mutable errors : int;
  mutable sample : (int * string) list;
}

(* The closed loop over one connection until [stop]. A transport failure
   ends it (the connection is gone) and counts as a failed read. *)
let read_loop conn ~spans ~seed ~stop =
  let r =
    {
      latency = Samples.create ();
      wait = Samples.create ();
      nonwait = Samples.create ();
      rows = 0;
      reads = 0;
      rejected = 0;
      errors = 0;
      sample = [];
    }
  in
  let rng = Prng.create ~seed:(seed * 131) in
  let hwm = ref (-1) and lo = ref 0 in
  while r.errors = 0 && now () < stop do
    let request =
      if !hwm < 0 then S.Protocol.Read_fresh "star"
      else Reads.draw rng ~view:"star" ~hwm:!hwm ~lo:!lo
    in
    let response, dt =
      timed (fun () ->
          try Spans.with_ spans "client.request" (fun () -> S.Client.request conn request)
          with Sys_error e | Unix.Unix_error (_, e, _) -> Error e)
    in
    r.reads <- r.reads + 1;
    Samples.add r.latency dt;
    match response with
    | Ok (S.Protocol.Rows { at; hwm = h; wait; rows; _ }) ->
        (* The first FRESH read's time is at or above the gc horizon. *)
        if !hwm < 0 then lo := at;
        hwm := max !hwm h;
        Samples.add r.wait wait;
        Samples.add r.nonwait (dt -. wait);
        r.rows <- r.rows + List.length rows;
        if r.reads mod sample_every = 0 then
          r.sample <- (at, rows_digest rows) :: r.sample
    | Ok _ -> r.rejected <- r.rejected + 1
    | Error e ->
        Printf.printf "!! serve_reads: transport error: %s\n%!" e;
        r.errors <- r.errors + 1
  done;
  r

type pass = {
  client : client;
  child : (string * string) list;  (** the child's summary lines *)
  child_metrics : metric list;
  child_rollup : Spans.row list * float;  (** the server's, and its wall *)
  client_rollup : Spans.row list * float;  (** the read loop's *)
  exited_ok : bool;
}

(* Wait for the child, killing it if it has not exited [grace] seconds
   after it was asked to. *)
let reap pid ~grace =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.05;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  go ()

let pass ~size ~seed ~seconds ~traced =
  let tag = Printf.sprintf "%s/serve-%d-%b" work_dir (Unix.getpid ()) traced in
  let socket = tag ^ ".sock" and out = tag ^ ".out" and sample = tag ^ ".sample" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ out; sample ];
  let args =
    [|
      Sys.executable_name; "serve-child"; "--seed"; string_of_int seed;
      "--size"; (match size with Full -> "full" | Tiny -> "tiny");
      "--trace"; (if traced then "1" else "0");
      "--socket"; socket; "--out"; out; "--sample"; sample;
    |]
  in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr
      Unix.stderr
  in
  let spans = Spans.create ~enabled:traced in
  let client, client_wall =
    match S.Client.connect_retry ~attempts:1200 ~delay:0.05 socket with
    | exception e ->
        ignore (reap pid ~grace:0.0);
        raise e
    | conn ->
        let client, client_wall =
          timed (fun () -> read_loop conn ~spans ~seed ~stop:(now () +. seconds))
        in
        write_lines sample
          (List.map (fun (t, d) -> Printf.sprintf "%d %s" t d) client.sample);
        (* SHUTDOWN goes over the same connection: closing it and dialling
           again can lose the new connection to the server closing the old
           one's descriptor twice. *)
        (try ignore (S.Client.request conn S.Protocol.Shutdown)
         with Sys_error _ | Unix.Unix_error _ -> ());
        S.Client.close conn;
        (client, client_wall)
  in
  let exited_ok = reap pid ~grace:60.0 in
  let lines = if Sys.file_exists out then read_lines out else [] in
  let words l = String.split_on_char ' ' l in
  let child =
    List.filter_map
      (fun l -> match words l with [ k; v ] -> Some (k, v) | _ -> None)
      lines
  in
  let child_metrics =
    List.filter_map
      (fun l ->
        match words l with
        | [ "metric"; name; v; unit ] -> Some (metric name unit (float_of_string v))
        | _ -> None)
      lines
  in
  let child_spans =
    List.filter_map
      (fun l ->
        match words l with
        | [ "span"; name; n; total; self; minor; major ] ->
            Some
              {
                Spans.r_name = name;
                r_count = int_of_string n;
                r_total = float_of_string total;
                r_self = float_of_string self;
                r_minor_words = float_of_string minor;
                r_major_gcs = int_of_string major;
              }
        | _ -> None)
      lines
  in
  let child_wall =
    match List.assoc_opt "span_wall" child with
    | Some w -> float_of_string w
    | None -> 0.0
  in
  let client_rollup = Spans.rollup ~wall:client_wall spans in
  if traced then
    Spans.write spans ~name:(Printf.sprintf "serve_reads-%d-client" seed)
      client_rollup;
  {
    client;
    child;
    child_metrics;
    child_rollup = (child_spans, child_wall);
    client_rollup;
    exited_ok;
  }

let child_num p key =
  match List.assoc_opt key p.child with
  | Some v -> float_of_string v
  | None -> failwith ("serve child reported no " ^ key)

(* Reads attempted, and failed: rejected, transport errors, oracle
   mismatches in the child's re-check, a child that did not exit cleanly,
   steps that failed permanently, txns never made visible. *)
let tally p =
  let c = p.client in
  let failed =
    c.rejected + c.errors
    + (if p.exited_ok then 0 else 1)
    + int_of_float (child_num p "mismatched")
    + int_of_float (child_num p "failed_steps")
    + int_of_float (child_num p "unapplied")
  in
  (c.reads, failed)

let run ~size ~seed ~seconds ~trace =
  let seconds = float_of_int seconds in
  if not trace then begin
    let p = pass ~size ~seed ~seconds ~traced:false in
    let latency = p.client.latency in
    let attempted, failed = tally p in
    Printf.printf
      "  server: %.0f txns at %.0f txn/s (%.0f never visible, %.0f failed \
       steps), %.0f sampled reads re-checked (%.0f mismatched)\n"
      (child_num p "txns") rate (child_num p "unapplied")
      (child_num p "failed_steps") (child_num p "checked")
      (child_num p "mismatched");
    Printf.printf "  client: %d reads, %d rejected, %d transport errors\n"
      attempted p.client.rejected p.client.errors;
    Printf.printf "  freshness (server, windowed) p50 %.3f ms  p99 %.3f ms  (n=%.0f)\n"
      (child_num p "fresh_p50_ms") (child_num p "fresh_p90_ms")
      (child_num p "fresh_n");
    describe_timing "read latency (client side)" latency 1000.0 "ms";
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" (child_num p "setup_s");
          metric "drain_txn_per_s" "1/s" (child_num p "drain_txn_per_s");
          metric "fresh_p50_ms" "ms" (child_num p "fresh_p50_ms");
          metric "fresh_p90_ms" "ms" (child_num p "fresh_p90_ms");
          metric "read_p50_ms" "ms" (windowed_ms 0.5 latency);
          metric "read_p90_ms" "ms" (windowed_ms 0.9 latency);
          metric "reads_per_s" "1/s" (windowed Samples.rate latency);
          metric "peak_heap_mb" "MB" (child_num p "peak_heap_mb");
        ];
    }
  end
  else begin
    (* Half the time untraced, half traced: the client p50 latency of the
       two gives the tracing overhead; the layers are the traced child's. *)
    let base = pass ~size ~seed ~seconds:(seconds /. 2.0) ~traced:false in
    let p = pass ~size ~seed ~seconds:(seconds /. 2.0) ~traced:true in
    let p50 x = Samples.pct x.client.latency 0.5 in
    let wait = p.client.wait and nonwait = p.client.nonwait in
    let a0, f0 = tally base and a1, f1 = tally p in
    let attempted = a0 + a1 and failed = f0 + f1 in
    let rows = p.client.rows and reads = p.client.reads in
    Spans.print_rollup ~title:"server (child process)" p.child_rollup;
    Spans.print_rollup ~title:"client (this process)" p.client_rollup;
    let own =
      [
        metric "serve.wait_ms_p50" "ms" (Samples.pct wait 0.5 *. 1000.0);
        metric "serve.wait_ms_p99" "ms" (Samples.pct wait 0.99 *. 1000.0);
        metric "serve.nonwait_ms_p50" "ms" (Samples.pct nonwait 0.5 *. 1000.0);
        metric "serve.rows_per_read" "rows"
          (float_of_int rows /. float_of_int (max 1 reads));
        metric "error_rate" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted));
        metric "trace.overhead_pct" "%" (100.0 *. ((p50 p /. p50 base) -. 1.0));
      ]
    in
    let metrics =
      List.map
        (fun m ->
          match List.find_opt (fun o -> o.name = m.name) own with
          | Some o -> o
          | None -> m)
        p.child_metrics
    in
    { correct = failed = 0; attempted; failed; metrics }
  end
