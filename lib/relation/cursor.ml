type ts = int

let no_ts = max_int

type row = { tuple : Tuple.t; count : int; ts : ts }

type t = {
  next_fn : unit -> row option;
  rewind_fn : unit -> unit;
  close_fn : unit -> unit;
}

let make ?(close = fun () -> ()) ~rewind next =
  { next_fn = next; rewind_fn = rewind; close_fn = close }

let next c = c.next_fn ()

let rewind c = c.rewind_fn ()

let close c = c.close_fn ()

let of_seq producer =
  let cur = ref (producer ()) in
  {
    next_fn =
      (fun () ->
        match !cur () with
        | Seq.Nil -> None
        | Seq.Cons (r, rest) ->
            cur := rest;
            Some r);
    rewind_fn = (fun () -> cur := producer ());
    close_fn = (fun () -> cur := Seq.empty);
  }

let empty () = of_seq (fun () -> Seq.empty)

let of_list rows = of_seq (fun () -> List.to_seq rows)

let of_array rows = of_seq (fun () -> Array.to_seq rows)

let of_relation ?(ts = no_ts) r =
  of_seq (fun () ->
      Seq.map (fun (tuple, count) -> { tuple; count; ts }) (Relation.to_seq r))

let select pred c =
  let rec pull () =
    match c.next_fn () with
    | None -> None
    | Some r as out -> if pred r then out else pull ()
  in
  { c with next_fn = pull }

let map f c =
  {
    c with
    next_fn = (fun () -> match c.next_fn () with None -> None | Some r -> Some (f r));
  }

let project f c = map (fun r -> { r with tuple = f r.tuple }) c

let project_columns idxs c = project (fun t -> Tuple.project t idxs) c

let counted hook c =
  {
    c with
    next_fn =
      (fun () ->
        match c.next_fn () with
        | None -> None
        | Some _ as r ->
            hook 1;
            r);
  }

let iter f c =
  let rec loop () =
    match c.next_fn () with
    | None -> ()
    | Some r ->
        f r;
        loop ()
  in
  loop ()

let fold f acc c =
  let acc = ref acc in
  iter (fun r -> acc := f !acc r) c;
  !acc

let to_list c = List.rev (fold (fun acc r -> r :: acc) [] c)

let length c = fold (fun n _ -> n + 1) 0 c
