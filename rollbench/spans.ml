(* The traced run's spans. They are recorded with Roll_obs.Trace on the
   benchmark's clock around the benchmark's own calls into each layer,
   each carrying the GC work done inside it; this module adds only the
   rollup into per-name self time (a span's duration minus what its child
   spans cover) with an explicit [unattributed] row. A disabled recorder
   just runs the body. *)

module Trace = Roll_obs.Trace

type t = { trace : Trace.t; opened : float }

(* Room for every span of a traced run; a rollup over an overwritten ring
   would be wrong, so [rollup] refuses one. *)
let capacity = 1 lsl 20

let create ~enabled =
  {
    trace =
      (if enabled then Trace.create ~capacity ~clock:Common.clock ()
       else Trace.noop ());
    opened = Common.now ();
  }

let enabled t = Trace.enabled t.trace

let with_ t name f =
  if not (enabled t) then f ()
  else
    Trace.with_span t.trace name (fun () ->
        let g0 = Gc.quick_stat () in
        let r = f () in
        let g1 = Gc.quick_stat () in
        Trace.add_attr t.trace "minor_words"
          (Trace.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
        Trace.add_attr t.trace "major_gcs"
          (Trace.Int (g1.Gc.major_collections - g0.Gc.major_collections));
        r)

(* A span the benchmark timed otherwise (e.g. a scheduler kind's wall
   delta inside a drain slice), as a child of the innermost open span, or
   top-level when none is open. It is laid at [start], so it carries a
   duration, not a position. *)
let add t name ~start dur =
  if enabled t && dur > 0.0 then
    Trace.record_complete t.trace ~start ~stop:(start +. dur) name

type row = {
  r_name : string;
  r_count : int;
  r_total : float;
  r_self : float;
  r_minor_words : float;
  r_major_gcs : int;
}

let attr_float (s : Trace.span) key =
  match List.assoc_opt key s.Trace.attrs with
  | Some (Trace.Float x) -> x
  | _ -> 0.0

let attr_int (s : Trace.span) key =
  match List.assoc_opt key s.Trace.attrs with
  | Some (Trace.Int x) -> x
  | _ -> 0

(* Per-name rollup, plus an explicit [unattributed] row: the recorder's
   lifetime ([wall]) not covered by any top-level span. *)
let rollup ?wall t =
  if Trace.dropped t.trace > 0 then
    failwith "rollbench: the span ring overflowed; raise Spans.capacity";
  let spans = Trace.spans t.trace in
  let dur (s : Trace.span) = s.Trace.stop -. s.Trace.start in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent > 0 then
        Hashtbl.replace child_time s.Trace.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.Trace.parent)
          +. dur s))
    spans;
  let rows = Hashtbl.create 32 in
  let top = ref 0.0 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent = 0 then top := !top +. dur s;
      let self =
        dur s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.Trace.id)
      in
      let r =
        match Hashtbl.find_opt rows s.Trace.name with
        | Some r -> r
        | None ->
            {
              r_name = s.Trace.name;
              r_count = 0;
              r_total = 0.0;
              r_self = 0.0;
              r_minor_words = 0.0;
              r_major_gcs = 0;
            }
      in
      Hashtbl.replace rows s.Trace.name
        {
          r with
          r_count = r.r_count + 1;
          r_total = r.r_total +. dur s;
          r_self = r.r_self +. self;
          r_minor_words = r.r_minor_words +. attr_float s "minor_words";
          r_major_gcs = r.r_major_gcs + attr_int s "major_gcs";
        })
    spans;
  let wall =
    match wall with Some w -> w | None -> Common.now () -. t.opened
  in
  let rest = Float.max 0.0 (wall -. !top) in
  let unattributed =
    {
      r_name = "unattributed";
      r_count = 1;
      r_total = rest;
      r_self = rest;
      r_minor_words = 0.0;
      r_major_gcs = 0;
    }
  in
  let named =
    Hashtbl.fold (fun _ r acc -> r :: acc) rows []
    |> List.sort (fun a b -> compare b.r_self a.r_self)
  in
  (named @ [ unattributed ], wall)

let print_rollup ?(title = "spans") (rows, wall) =
  Printf.printf "  %-26s %7s %10s %10s %7s %12s %6s\n" title "count"
    "total_s" "self_s" "self%" "minor_Mw" "majGC";
  List.iter
    (fun r ->
      Printf.printf "  %-26s %7d %10.4f %10.4f %6.1f%% %12.3f %6d\n" r.r_name
        r.r_count r.r_total r.r_self
        (100.0 *. r.r_self /. Float.max wall 1e-9)
        (r.r_minor_words /. 1e6) r.r_major_gcs)
    rows

let unattributed_share (rows, wall) =
  match List.find_opt (fun r -> r.r_name = "unattributed") rows with
  | Some r -> r.r_self /. Float.max wall 1e-9
  | None -> 0.0

(* Write the spans as a Chrome trace to [.rollbench/trace-<name>.json] and
   the rollup to [.rollbench/trace-<name>-rollup.json]. *)
let write t ~name (rows, wall) =
  let path suffix = Printf.sprintf "%s/trace-%s%s.json" Common.work_dir name suffix in
  let oc = open_out (path "") in
  output_string oc (Roll_obs.Export.chrome_trace ~process:name t.trace);
  close_out oc;
  let oc = open_out (path "-rollup") in
  Printf.fprintf oc "{\"wall_s\": %.6f, \"rollup\": [\n%s\n]}\n" wall
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "  {\"name\": %S, \"count\": %d, \"total_s\": %.6f, \
               \"self_s\": %.6f, \"minor_words\": %.0f, \"major_gcs\": %d}"
              r.r_name r.r_count r.r_total r.r_self r.r_minor_words
              r.r_major_gcs)
          rows));
  close_out oc
