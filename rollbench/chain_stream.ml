(* chain_stream — open loop, single process. The TPC-H-lite five-way
   chain takes transactions due on a fixed wall-clock schedule, with
   Service.maintain ~budget:8 running between arrivals; the view gc's at
   2000 applied rows. On ROLL_STORE=disk the view is also durable with a
   checkpoint every 500 commits. Freshness is timed from each
   transaction's due time until the view's applied as_of covers its
   commit. Point-in-time reads through the rolld engine fill the idle time
   between arrivals. The traced run adds a ladder of rates, without reads,
   to find the highest one maintenance sustains. *)

module C = Roll_core
module W = Roll_workload
module S = Roll_serve
module Prng = Roll_util.Prng
open Common

(* The measured rate. Each order the churn places grows the joined tables,
   so maintenance slows as a run goes on: at 100 txn/s a 35 s run ends
   near the knee and its freshness tail swung twofold between runs. *)
let base_rate = 50.0

(* Rates bracketing the knee, for the traced run's ladder. *)
let ladder = [ 100.0; 200.0; 300.0 ]

(* A rate is sustained when freshness p99 stays within this limit ... *)
let fresh_limit_s = 0.1

(* ... and the generator runs no later than this at p99. *)
let late_limit_s = 0.02

let budget = 8

let config size seed =
  match size with
  | Full -> { W.Tpch_lite.default_config with seed }
  | Tiny -> { W.Tpch_lite.small_config with seed }

let setup ~cycle cfg =
  place_store ();
  let chain = W.Tpch_lite.create cfg in
  W.Tpch_lite.load_initial chain;
  let db = W.Tpch_lite.db chain in
  let service =
    C.Service.create ~gc_threshold:2000 db (W.Tpch_lite.capture chain)
  in
  let durable = disk () in
  let view = W.Tpch_lite.view chain in
  let ctl =
    C.Service.register service ~durable
      ~algorithm:
        (C.Controller.Rolling (C.Rolling.per_relation [| 64; 64; 32; 8; 8 |]))
      view
  in
  if durable then
    C.Service.set_checkpoint service (C.View.name view)
      ~path:(Printf.sprintf "%s/chain-%d-%d.ckpt" work_dir (Unix.getpid ()) cycle)
      ~every:500;
  (chain, service, ctl)

type stream = {
  loop : Open_loop.t;
  lag_mid : int;  (** unapplied commits halfway through the stream *)
  lag_end : int;  (** ... and when the generator stopped *)
}

(* One read runs in each idle gap of the open loop whose next arrival is
   further off than this, so reads hardly delay the generator. *)
let read_guard = 0.01

(* Run the open loop at [rate] for [seconds], then maintain until every
   generated transaction is visible. With [reads], a point-in-time read
   runs in the idle time after each arrival: spread over the whole
   stream, the reads see the same mix of host load as maintenance does. *)
let stream ?reads ~spans ~layers ~chain ~service ~ctl ~rate ~seconds () =
  let db = W.Tpch_lite.db chain in
  let lag () = Database.now db - C.Controller.as_of ctl in
  let lag_mid = ref (-1) in
  let loop = Open_loop.create ~rate ~layers in
  let stop = loop.Open_loop.start +. seconds in
  while now () < stop do
    Open_loop.arrive loop ~spans ~db (fun () -> W.Tpch_lite.churn chain ~n:1);
    if !lag_mid < 0 && now () -. loop.Open_loop.start >= seconds /. 2.0 then
      lag_mid := lag ();
    Open_loop.maintain loop ~spans ~service ~ctl ~db ~budget;
    if Open_loop.unapplied loop = 0 then begin
      let next = Float.min (Open_loop.next_due loop) stop in
      Option.iter
        (fun r -> if next -. now () > read_guard then Reads.once r ~spans)
        reads;
      (* Wait for the next arrival spinning, not sleeping: a sleeping
         process wakes late and cold by a varying amount on a shared
         host, and that showed in freshness more than maintenance itself
         did. The clock is read every hundred pauses, so the wait hardly
         allocates. *)
      Spans.with_ spans "idle" (fun () ->
          while now () < next do
            for _ = 1 to 100 do
              Domain.cpu_relax ()
            done
          done)
    end
  done;
  let lag_end = lag () in
  Open_loop.catch_up loop ~spans ~service ~ctl ~db ~budget;
  { loop; lag_mid = max 0 !lag_mid; lag_end }

let failed s = s.loop.Open_loop.failed + Open_loop.unapplied s.loop

let per_txn s =
  s.loop.Open_loop.maintain_wall /. float_of_int (max 1 s.loop.Open_loop.txns)

let sustained s late =
  Samples.pct s.loop.Open_loop.fresh 0.99 <= fresh_limit_s
  && Samples.pct late 0.99 <= late_limit_s
  && s.lag_end <= (2 * s.lag_mid) + 50

(* The reads of a stream, every 50th kept for the oracle (about sixty in
   a 35 s run). *)
let reads_for ~seed ~chain ~service ~ctl =
  Reads.create ~check_every:50
    ~rng:(Prng.create ~seed:(seed + 7919))
    ~engine:(S.Engine.create (W.Tpch_lite.db chain) service)
    ~ctl
    ~view:(C.View.name (W.Tpch_lite.view chain))
    ()

(* After a stream: an explicit gc and refresh, then the oracle gate over
   the final contents and the kept read snapshots. *)
let finish ~spans ~layers ~chain ~service ~ctl ~reads =
  let db = W.Tpch_lite.db chain in
  let history = W.Tpch_lite.history chain in
  let view = W.Tpch_lite.view chain in
  let oracle t = C.Oracle.view_at history view t in
  let pruned, gc_s =
    timed (fun () -> Spans.with_ spans "gc_all" (fun () -> C.Service.gc_all service))
  in
  let (), refresh_s =
    timed (fun () ->
        Spans.with_ spans "refresh_to" (fun () ->
            C.Controller.refresh_to ctl (Database.now db)))
  in
  layers.Layers.gc_extra <- gc_s;
  layers.Layers.gc_rows <- layers.Layers.gc_rows + pruned;
  layers.Layers.apply_extra <- refresh_s;
  Reads.check reads ~spans ~oracle;
  Spans.with_ spans "oracle" (fun () ->
      gate ~what:"chain_stream contents"
        ~expected:(oracle (C.Controller.as_of ctl))
        ~actual:(C.Controller.contents ctl))

let setups = 61

(* Set up [setups] times and keep the last; the median is setup_s. *)
let setup_many cfg =
  setup_median ~n:setups
    ~teardown:(fun (_, service, _) -> C.Service.shutdown service)
    (fun cycle -> setup ~cycle cfg)

let run ~size ~seed ~seconds ~trace =
  let cfg = config size seed in
  let seconds = float_of_int seconds in
  (* Time left after the stream for its gc, refresh and oracle gate. *)
  let finish_s = match size with Full -> 1.5 | Tiny -> 0.5 in
  let quiet = Spans.create ~enabled:false in
  if not trace then begin
    let (chain, service, ctl), setup_s = setup_many cfg in
    let layers = Layers.create () in
    let reads = reads_for ~seed ~chain ~service ~ctl in
    let s =
      stream ~reads ~spans:quiet ~layers ~chain ~service ~ctl ~rate:base_rate
        ~seconds:(seconds -. finish_s) ()
    in
    let correct = finish ~spans:quiet ~layers ~chain ~service ~ctl ~reads in
    C.Service.shutdown service;
    Printf.printf
      "  rate %.0f txn/s: %d txns, unapplied mid %d / end %d, %s\n" base_rate
      s.loop.Open_loop.txns s.lag_mid s.lag_end
      (if sustained s layers.Layers.late then "sustained" else "NOT sustained");
    describe_timing "freshness" s.loop.Open_loop.fresh 1000.0 "ms";
    describe_timing "generator lateness" layers.Layers.late 1000.0 "ms";
    describe_timing "read latency" reads.Reads.latency 1000.0 "ms";
    let failed = failed s + Reads.failed reads + if correct then 0 else 1 in
    {
      correct = failed = 0;
      attempted = s.loop.Open_loop.txns + reads.Reads.reads + 1;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "drain_txn_per_s" "1/s" (1.0 /. per_txn s);
          metric "fresh_p50_ms" "ms" (windowed_ms 0.5 s.loop.Open_loop.fresh);
          metric "fresh_p90_ms" "ms" (windowed_ms 0.9 s.loop.Open_loop.fresh);
          metric "read_p50_ms" "ms" (windowed_ms 0.5 reads.Reads.latency);
          metric "read_p90_ms" "ms" (windowed_ms 0.9 reads.Reads.latency);
          metric "reads_per_s" "1/s" (windowed Samples.rate reads.Reads.latency);
          metric "peak_heap_mb" "MB" (peak_heap_mb ());
        ];
    }
  end
  else begin
    (* A fifth of the time each: untraced and traced passes at the base
       rate (their maintenance cost per txn gives the tracing overhead),
       then one per rung of the ladder, without reads. A rung shorter than
       a few seconds starts and ends on a small database and hides a
       growing backlog. *)
    let pass_s = seconds /. float_of_int (2 + List.length ladder) in
    let (chain0, service0, ctl0), _ = setup_many cfg in
    let base =
      stream
        ~reads:(reads_for ~seed ~chain:chain0 ~service:service0 ~ctl:ctl0)
        ~spans:quiet ~layers:(Layers.create ()) ~chain:chain0
        ~service:service0 ~ctl:ctl0 ~rate:base_rate ~seconds:pass_s ()
    in
    C.Service.shutdown service0;
    let spans = Spans.create ~enabled:true in
    let layers = Layers.create () in
    let chain, service, ctl = setup ~cycle:setups cfg in
    let db = W.Tpch_lite.db chain in
    let name = C.View.name (W.Tpch_lite.view chain) in
    let reads = reads_for ~seed ~chain ~service ~ctl in
    let held0 = delta_rows service name in
    let before = snapshot service ctl db in
    let s =
      stream ~reads ~spans ~layers ~chain ~service ~ctl ~rate:base_rate
        ~seconds:pass_s ()
    in
    let after = snapshot service ctl db in
    layers.Layers.gc_rows <-
      held0 + after.rows_emitted - before.rows_emitted - delta_rows service name;
    let correct = finish ~spans ~layers ~chain ~service ~ctl ~reads in
    layers.Layers.drain_wall <- s.loop.Open_loop.maintain_wall;
    Layers.note_storage layers db;
    C.Service.shutdown service;
    let rollup = Spans.rollup spans in
    Spans.print_rollup rollup;
    let sustained_rate =
      List.fold_left
        (fun best rate ->
          let chain, service, ctl = setup ~cycle:(setups + 1) cfg in
          let late = Layers.create () in
          let r =
            stream ~spans:quiet ~layers:late ~chain ~service ~ctl ~rate
              ~seconds:pass_s ()
          in
          C.Service.shutdown service;
          let ok = sustained r late.Layers.late in
          Printf.printf
            "  ladder %.0f txn/s: fresh p99 %.1f ms, late p99 %.1f ms, \
             unapplied mid %d / end %d -> %s\n%!"
            rate
            (Samples.pct r.loop.Open_loop.fresh 0.99 *. 1000.0)
            (Samples.pct late.Layers.late 0.99 *. 1000.0)
            r.lag_mid r.lag_end
            (if ok then "sustained" else "not sustained");
          if ok && rate > best then rate else best)
        0.0 ladder
    in
    let failed = failed s + Reads.failed reads + if correct then 0 else 1 in
    let attempted = s.loop.Open_loop.txns + reads.Reads.reads + 1 in
    layers.Layers.sustained <- sustained_rate;
    Reads.note_layers layers reads;
    layers.Layers.error_rate <- float_of_int failed /. float_of_int attempted;
    layers.Layers.unattributed_share <- Spans.unattributed_share rollup;
    layers.Layers.overhead_pct <- 100.0 *. ((per_txn s /. per_txn base) -. 1.0);
    Spans.write spans ~name:(Printf.sprintf "chain_stream-%d" seed) rollup;
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics = Layers.metrics layers ~before ~after;
    }
  end
