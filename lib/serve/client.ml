(** A blocking line-protocol client for rolld — what [rolld client], the
    CI smoke session and the socket tests script against. *)

type t = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
  }

(** Retry [connect] until the server has bound its socket. *)
let connect_retry ?(attempts = 50) ?(delay = 0.1) path =
  let rec go n =
    match connect path with
    | conn -> conn
    | exception (Unix.Unix_error _ as e) ->
        if n <= 1 then raise e
        else begin
          Thread.delay delay;
          go (n - 1)
        end
  in
  go attempts

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t = input_line t.ic

(** One request/response exchange. [Error] is a transport or codec
    failure, not a protocol-level rejection (those come back as
    [Ok (Rejected _)]). *)
let request t req =
  send_line t (Protocol.encode_request req);
  match recv_line t with
  | exception End_of_file -> Error "connection closed"
  | line -> Protocol.decode_response line

(** Send a raw line (possibly malformed, for testing the server's typed
    [malformed] rejection) and decode whatever comes back. *)
let request_raw t line =
  send_line t line;
  match recv_line t with
  | exception End_of_file -> Error "connection closed"
  | line -> Protocol.decode_response line

(* [ic] and [oc] share [fd]; closing [oc] closes it, exactly once. *)
let close t = close_out_noerr t.oc
