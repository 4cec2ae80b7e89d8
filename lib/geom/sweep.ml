type 'a t = { keys : float array; payloads : 'a array }

let of_events events =
  let arr = Array.of_list events in
  (* Stable sort keeps insertion order among equal keys, matching the
     paper's Table 4 where ties keep strategy order. *)
  let indexed = Array.mapi (fun i e -> (i, e)) arr in
  Array.sort
    (fun (i, (ka, _)) (j, (kb, _)) ->
      let c = Float.compare ka kb in
      if c <> 0 then c else Int.compare i j)
    indexed;
  {
    keys = Array.map (fun (_, (k, _)) -> k) indexed;
    payloads = Array.map (fun (_, (_, p)) -> p) indexed;
  }

let length t = Array.length t.keys

let check t i =
  if i < 0 || i >= length t then invalid_arg (Printf.sprintf "Sweep: index %d out of bounds" i)

let key t i =
  check t i;
  t.keys.(i)

let payload t i =
  check t i;
  t.payloads.(i)
