(* A maintenance call made under a span: the call's wall time is the span,
   and the scheduler's per-kind wall counters (with the executor's share
   of propagate split out) become its children, so the span's self time is
   the drain's bookkeeping outside every work item. *)

open Common

let call spans name ~service ~ctl ~db f =
  if not (Spans.enabled spans) then f ()
  else
    Spans.with_ spans name (fun () ->
        let before = snapshot service ctl db in
        let start = now () in
        let r = f () in
        let after = snapshot service ctl db in
        let exec = after.exec_wall -. before.exec_wall in
        List.iter
          (fun k ->
            let w = kind_wall after k -. kind_wall before k in
            let w = if k = "propagate" then w -. exec else w in
            Spans.add spans k ~start w)
          kinds;
        Spans.add spans "exec" ~start exec;
        r)
