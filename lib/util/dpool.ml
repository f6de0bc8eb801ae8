(* Fixed worker-domain pool. One mailbox per worker: the caller installs a
   batch closure and signals; the worker runs it and signals completion by
   clearing the mailbox. [map] is a full barrier, so a wave's jobs never
   overlap the caller's sequential sections. *)

let require_ocaml5 () =
  let major =
    match String.split_on_char '.' Sys.ocaml_version with
    | major :: _ -> ( try int_of_string major with Failure _ -> 0)
    | [] -> 0
  in
  if major < 5 then
    failwith
      (Printf.sprintf
         "rolling_ivm: maintenance drains need OCaml >= 5.1 (running \
          under %s); rebuild with an OCaml 5 switch"
         Sys.ocaml_version)

type mailbox = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
}

type t = {
  streams : Prng.t array;
  workers : mailbox array;  (** slots 1..n-1; slot 0 is the caller *)
  handles : unit Domain.t array;
  mutable alive : bool;
}

let worker_loop (box : mailbox) =
  let rec loop () =
    Mutex.lock box.mutex;
    while box.job = None && not box.stop do
      Condition.wait box.cond box.mutex
    done;
    let job = box.job in
    let stop = box.stop && job = None in
    Mutex.unlock box.mutex;
    match job with
    | Some f ->
        (* Batch closures trap their own exceptions into result cells, so
           a worker never dies to a job failure. *)
        f ();
        Mutex.lock box.mutex;
        box.job <- None;
        Condition.broadcast box.cond;
        Mutex.unlock box.mutex;
        loop ()
    | None -> if not stop then loop ()
  in
  loop ()

(* A one-slot pool has no worker to join, so it stays usable after
   [shutdown]: [map] runs on the caller alone. *)
let shutdown t =
  if t.alive && Array.length t.handles > 0 then begin
    t.alive <- false;
    Array.iter
      (fun box ->
        Mutex.lock box.mutex;
        box.stop <- true;
        Condition.broadcast box.cond;
        Mutex.unlock box.mutex)
      t.workers;
    Array.iter Domain.join t.handles
  end

let create ?(seed = 0) ~domains () =
  require_ocaml5 ();
  if domains <= 0 then invalid_arg "Dpool.create: domains must be positive";
  let root = Prng.create ~seed in
  let streams = Prng.split_n root domains in
  let workers =
    Array.init (domains - 1) (fun _ ->
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          stop = false;
        })
  in
  let handles =
    Array.map (fun box -> Domain.spawn (fun () -> worker_loop box)) workers
  in
  let t = { streams; workers; handles; alive = true } in
  if domains > 1 then at_exit (fun () -> shutdown t);
  t

let size t = Array.length t.workers + 1

let prng t slot =
  if slot < 0 || slot >= size t then invalid_arg "Dpool.prng: slot out of range";
  t.streams.(slot)

let submit (box : mailbox) f =
  Mutex.lock box.mutex;
  box.job <- Some f;
  Condition.broadcast box.cond;
  Mutex.unlock box.mutex

let await (box : mailbox) =
  Mutex.lock box.mutex;
  while box.job <> None do
    Condition.wait box.cond box.mutex
  done;
  Mutex.unlock box.mutex

let map t jobs =
  if not t.alive then invalid_arg "Dpool.map: pool is shut down";
  let n = size t in
  let count = Array.length jobs in
  let results = Array.make count (Error Exit) in
  let run_slot slot () =
    let k = ref slot in
    while !k < count do
      let i = !k in
      (results.(i) <-
         (match jobs.(i) i with v -> Ok v | exception exn -> Error exn));
      k := !k + n
    done
  in
  (* Dispatch worker slots first, run the caller's share, then join. *)
  let used = min (max 0 (count - 1)) (n - 1) in
  for w = 1 to used do
    submit t.workers.(w - 1) (run_slot w)
  done;
  run_slot 0 ();
  for w = 1 to used do
    await t.workers.(w - 1)
  done;
  results
