let plan ~shards ~length =
  if shards < 1 then invalid_arg "Stratrec_par.Shard.plan: shards must be >= 1";
  if length < 0 then invalid_arg "Stratrec_par.Shard.plan: negative length";
  let shards = min shards length in
  let base = if shards = 0 then 0 else length / shards in
  let remainder = if shards = 0 then 0 else length mod shards in
  Array.init shards (fun s ->
      let start = (s * base) + min s remainder in
      let size = base + if s < remainder then 1 else 0 in
      (start, start + size))

let init pool n ~f =
  if n < 0 then invalid_arg "Stratrec_par.Shard.init: negative length"
  else if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let slices = plan ~shards:(Pool.size pool) ~length:n in
    Pool.run pool ~shards:(Array.length slices) (fun s ->
        let start, stop = slices.(s) in
        for i = start to stop - 1 do
          out.(i) <- Some (f i)
        done);
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* the slices cover [0, n) exactly *))
      out
  end

let map pool ~f arr = init pool (Array.length arr) ~f:(fun i -> f arr.(i))
