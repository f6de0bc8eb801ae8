(** The rolld socket server: a Unix-domain listener over one {!Engine}.

    Threading model (concurrency, not parallelism — the data plane stays
    single-writer, Redis-style):

    - the {e accept thread} blocks in [accept] and spawns one thread per
      connection;
    - {e connection threads} only parse request lines, {!Engine.submit}
      tickets and block in {!Engine.await} — they never touch the
      database;
    - the {e engine thread} loops [tick (); Engine.pump] — [tick] is the
      caller's hook for applying updates and running maintenance drains,
      so every database access (writes, propagation, snapshot reads)
      happens on this one thread.

    A [SHUTDOWN] request (or {!stop}) drains cleanly: the engine thread
    rejects all queued readers with [shutting_down], the listener closes
    and every open connection is shut down so its thread unblocks. *)

module P = Protocol

type t = {
  engine : Engine.t;
  path : string;
  listen_fd : Unix.file_descr;
  tick : unit -> unit;
  tick_interval : float;
  running : bool Atomic.t;
  shutdown_flag : bool Atomic.t;
  conns_mutex : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable next_conn : int;
  mutable accept_thread : Thread.t option;
  mutable engine_thread : Thread.t option;
}

let send oc response =
  output_string oc (P.encode_response response);
  output_char oc '\n';
  flush oc

let register_conn t fd =
  Mutex.protect t.conns_mutex (fun () ->
      let id = t.next_conn in
      t.next_conn <- id + 1;
      Hashtbl.replace t.conns id fd;
      id)

let unregister_conn t id =
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns id)

let handle_conn t fd =
  let id = register_conn t fd in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line -> (
        match P.parse_request line with
        | Error msg ->
            send oc (P.Rejected (P.Malformed msg));
            loop ()
        | Ok P.Quit -> send oc P.Bye
        | Ok P.Shutdown ->
            send oc P.Bye;
            Atomic.set t.shutdown_flag true
        | Ok request ->
            let ticket = Engine.submit t.engine request in
            send oc (Engine.await ticket);
            loop ())
  in
  (try loop () with Unix.Unix_error _ -> ());
  unregister_conn t id;
  (* Both channels share [fd]: close it exactly once, through [oc] (which
     also drops [oc] from the exit-time flush list). A second close could
     hit a descriptor another connection has been handed since. *)
  close_out_noerr oc

(* Poll with a select timeout rather than blocking in accept: closing the
   listener from the engine thread does not reliably wake a thread already
   blocked in accept(2), so shutdown would hang on the join. *)
let accept_loop t =
  let rec loop () =
    if Atomic.get t.running then begin
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error _ -> if Atomic.get t.running then loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ ->
              if Atomic.get t.running then loop ()
          | fd, _ ->
              ignore (Thread.create (fun () -> handle_conn t fd) ());
              loop ())
    end
  in
  loop ()

let engine_loop t =
  let rec loop () =
    if Atomic.get t.running then begin
      t.tick ();
      ignore (Engine.pump t.engine);
      if Atomic.get t.shutdown_flag then Atomic.set t.running false
      else begin
        if t.tick_interval > 0.0 then Thread.delay t.tick_interval;
        loop ()
      end
    end
  in
  loop ();
  (* Clean shutdown: shed queued readers, close the listener (unblocks
     the accept thread) and every open connection (unblocks its reader
     thread), then remove the socket file. *)
  Engine.close t.engine;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Mutex.protect t.conns_mutex (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        t.conns);
  try Unix.unlink t.path with Unix.Unix_error _ -> ()

let start ?(tick = fun () -> ()) ?(tick_interval = 0.001) ~socket engine =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  let t =
    {
      engine;
      path = socket;
      listen_fd;
      tick;
      tick_interval;
      running = Atomic.make true;
      shutdown_flag = Atomic.make false;
      conns_mutex = Mutex.create ();
      conns = Hashtbl.create 16;
      next_conn = 0;
      accept_thread = None;
      engine_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.engine_thread <- Some (Thread.create (fun () -> engine_loop t) ());
  t

let path t = t.path

let running t = Atomic.get t.running

let request_shutdown t = Atomic.set t.shutdown_flag true
(** Non-blocking: the engine thread notices on its next iteration. Safe
    to call from any thread, including the engine thread's own [tick]. *)

let wait t =
  Option.iter Thread.join t.engine_thread;
  Option.iter Thread.join t.accept_thread

let stop t =
  request_shutdown t;
  wait t
