(* star_backlog — closed loop. An A8 star (2 dimensions x 400 rows, 20k
   facts, Zipf 0.8) takes a backlog of mixed transactions, which
   Service.step_all then drains to completion, followed by one refresh_to
   and a read phase over the drained history. A run is several such
   cycles, each from a fresh set-up on its own sub-seed, and reports
   medians over cycles. *)

module C = Roll_core
module W = Roll_workload
module S = Roll_serve
module Prng = Roll_util.Prng
open Common

let config size seed =
  match size with
  | Full ->
      {
        W.Star.default_config with
        fact_initial = 20_000;
        dim_size = 400;
        zipf_theta = 0.8;
        seed;
      }
  | Tiny ->
      { W.Star.default_config with fact_initial = 2_000; dim_size = 100; seed }

let backlog = function Full -> 3_000 | Tiny -> 200

(* Traced drains run step_all in slices of this many steps. *)
let slice_steps = 8

let setup cfg =
  place_store ();
  let star = W.Star.create cfg in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ~default_sla:50 db (W.Star.capture star) in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 16; 64; 64 |]))
      (W.Star.view star)
  in
  (star, service, ctl)

type cycle = {
  drain_s : float;
  fresh : Samples.t;
  reads : Reads.t;
  contents : Relation.t;
  correct : bool;
}

(* Superlinearity of the drain: the time the last quarter of the backlog
   took to become covered (by the view's high-water mark) over the time
   the first quarter took. [progress] holds (elapsed s, hwm) after each
   traced slice, oldest first. *)
let tail_slowdown ~lo ~hi progress =
  let time_to q =
    let target = float_of_int lo +. (q *. float_of_int (hi - lo)) in
    match List.find_opt (fun (_, hwm) -> float_of_int hwm >= target) progress with
    | Some (t, _) -> t
    | None -> nan
  in
  let r = (time_to 1.0 -. time_to 0.75) /. time_to 0.25 in
  if Float.is_finite r then r else 0.0

let cycle ~size ~seed ~spans ~layers ~reads =
  let traced = Spans.enabled spans in
  let star, service, ctl =
    Spans.with_ spans "setup" (fun () -> setup (config size seed))
  in
  let db = W.Star.db star in
  let n = backlog size in
  let due = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let t0 = now () in
    due.(i) <- t0;
    Spans.with_ spans "commit" (fun () ->
        W.Star.mixed_txns star ~n:1 ~dim_fraction:0.05);
    Samples.add layers.Layers.commit (now () -. t0)
  done;
  let data_now = Database.now db in
  let before = snapshot service ctl db in
  let hwm0 = C.Controller.hwm ctl in
  let progress = ref [] in
  let (), drain_s =
    timed (fun () ->
        if not traced then ignore (C.Service.step_all service ~budget:max_int)
        else
          let t0 = now () in
          let rec go () =
            let steps =
              Drive.call spans "service.step_all" ~service ~ctl ~db (fun () ->
                  C.Service.step_all service ~budget:slice_steps)
            in
            progress := (now () -. t0, C.Controller.hwm ctl) :: !progress;
            if steps = slice_steps then go ()
          in
          go ())
  in
  let (), refresh_s =
    timed (fun () ->
        Spans.with_ spans "refresh_to" (fun () ->
            C.Controller.refresh_to ctl data_now))
  in
  let visible = now () in
  let fresh = Samples.create () in
  Array.iter (fun d -> Samples.add fresh (visible -. d)) due;
  let after = snapshot service ctl db in
  let history = W.Star.history star in
  let view = W.Star.view star in
  let oracle t = C.Oracle.view_at history view t in
  let reads =
    Reads.run ~spans
      ~rng:(Prng.create ~seed:(seed + 7919))
      ~engine:(S.Engine.create db service)
      ~ctl ~view:(C.View.name view) ~count:reads ~oracle
  in
  let contents = C.Controller.contents ctl in
  let correct =
    Spans.with_ spans "oracle" (fun () ->
        gate ~what:"star_backlog contents"
          ~expected:(oracle (C.Controller.as_of ctl))
          ~actual:contents)
  in
  layers.Layers.drain_wall <- drain_s;
  layers.Layers.apply_extra <- refresh_s;
  layers.Layers.tail_slowdown <-
    tail_slowdown ~lo:hwm0 ~hi:data_now (List.rev !progress);
  Layers.note_storage layers db;
  C.Service.shutdown service;
  ({ drain_s; fresh; reads; contents; correct }, before, after)

(* Each cycle of a run draws its data from its own sub-seed: the drain's
   cost depends on which dimension rows the backlog's updates hit (their
   fact fan-out is Zipf-skewed), so pooling several draws per run keeps
   the run-to-run spread down. *)
let sub_seed seed i = (seed * 1000) + i

let setups = 9

let cycle_s = 7.0

let run ~size ~seed ~seconds ~trace =
  let reads = match size with Full -> 40 | Tiny -> 5 in
  let n = backlog size in
  let quiet = Spans.create ~enabled:false in
  if not trace then begin
    let (_, service, _), setup_s =
      setup_median ~n:setups
        ~teardown:(fun (_, service, _) -> C.Service.shutdown service)
        (fun i -> setup (config size (sub_seed seed i)))
    in
    C.Service.shutdown service;
    (* A fixed number of cycles, sized from [seconds] (a cycle takes
       about [cycle_s] on a 2-core host), so every run of a seed measures
       the same sub-seeds. *)
    let cycles =
      List.init
        (max 1 (int_of_float (float_of_int seconds /. cycle_s)))
        (fun i ->
          let c, _, _ =
            cycle ~size ~seed:(sub_seed seed i) ~spans:quiet
              ~layers:(Layers.create ()) ~reads
          in
          Printf.printf "  cycle %d: drain %.3f s (%.1f txn/s)\n%!"
            (i + 1) c.drain_s (float_of_int n /. c.drain_s);
          c)
    in
    (* Medians over cycles of each cycle's figures: the cycles draw
       different data, and a median keeps one unlucky draw (or a burst of
       load on the host) from deciding the run. *)
    let per_cycle f = median_of (List.map f cycles) in
    let reads = List.fold_left (fun a c -> a + c.reads.Reads.reads) 0 cycles in
    let failed =
      List.fold_left
        (fun a c -> a + Reads.failed c.reads + if c.correct then 0 else 1)
        0 cycles
    in
    List.iteri
      (fun i c ->
        Printf.printf "  cycle %d:" (i + 1);
        describe_timing "freshness" c.fresh 1000.0 "ms";
        Printf.printf "  cycle %d:" (i + 1);
        describe_timing "read latency" c.reads.Reads.latency 1000.0 "ms")
      cycles;
    let ms f c = Samples.pct (f c) 0.5 *. 1000.0 in
    let ms90 f c = Samples.pct (f c) 0.9 *. 1000.0 in
    let latency c = c.reads.Reads.latency in
    {
      correct = failed = 0;
      attempted = reads + List.length cycles;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "drain_txn_per_s" "1/s"
            (per_cycle (fun c -> float_of_int n /. c.drain_s));
          metric "fresh_p50_ms" "ms" (per_cycle (ms (fun c -> c.fresh)));
          metric "fresh_p90_ms" "ms" (per_cycle (ms90 (fun c -> c.fresh)));
          metric "read_p50_ms" "ms" (per_cycle (ms latency));
          metric "read_p90_ms" "ms" (per_cycle (ms90 latency));
          metric "reads_per_s" "1/s"
            (per_cycle (fun c -> Samples.rate c.reads.Reads.latency));
          metric "peak_heap_mb" "MB" (peak_heap_mb ());
        ];
    }
  end
  else begin
    (* Untraced and traced cycles alternate on the same inputs; the
       layers and spans are the first traced cycle's, the tracing overhead
       compares the drain walls of both pairs. *)
    let seed = sub_seed seed 0 in
    let plain () =
      let c, _, _ = cycle ~size ~seed ~spans:quiet ~layers:(Layers.create ()) ~reads in
      c
    in
    let base = plain () in
    let spans = Spans.create ~enabled:true in
    let layers = Layers.create () in
    let traced, before, after = cycle ~size ~seed ~spans ~layers ~reads in
    let rollup = Spans.rollup spans in
    let base2 = plain () in
    let traced2, _, _ =
      cycle ~size ~seed ~spans:(Spans.create ~enabled:true)
        ~layers:(Layers.create ()) ~reads
    in
    Spans.print_rollup rollup;
    let identical =
      gate ~what:"sliced drain vs full drain" ~expected:base.contents
        ~actual:traced.contents
    in
    let all = [ base; traced; base2; traced2 ] in
    let failed =
      List.fold_left
        (fun a c -> a + Reads.failed c.reads + if c.correct then 0 else 1)
        (if identical then 0 else 1)
        all
    in
    let attempted =
      List.fold_left (fun a c -> a + c.reads.Reads.reads + 1) 1 all
    in
    Reads.note_layers layers traced.reads;
    layers.Layers.error_rate <- float_of_int failed /. float_of_int attempted;
    layers.Layers.unattributed_share <- Spans.unattributed_share rollup;
    layers.Layers.overhead_pct <-
      100.0
      *. (((traced.drain_s +. traced2.drain_s) /. (base.drain_s +. base2.drain_s))
         -. 1.0);
    Printf.printf "  drain: untraced %.3f / %.3f s, traced %.3f / %.3f s\n"
      base.drain_s base2.drain_s traced.drain_s traced2.drain_s;
    Spans.write spans ~name:(Printf.sprintf "star_backlog-%d" seed) rollup;
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics = Layers.metrics layers ~before ~after;
    }
  end
