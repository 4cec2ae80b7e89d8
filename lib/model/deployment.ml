type t = { id : int; label : string; params : Params.t; k : int }

let make ~id ?label ~params ~k () =
  if k < 1 then invalid_arg "Deployment.make: k must be >= 1";
  let label = match label with Some l -> l | None -> "d" ^ string_of_int id in
  { id; label; params; k }

let payoff t = t.params.Params.cost

let satisfied_by t s = Params.satisfies ~strategy:s.Strategy.params ~request:t.params

let is_successful t recommended =
  List.length recommended = t.k
  && List.length
       (List.sort_uniq (fun a b -> Int.compare a.Strategy.id b.Strategy.id) recommended)
     = t.k
  && List.for_all (satisfied_by t) recommended

let box t = Stratrec_geom.Box3.anchored (Params.to_point t.params)

let pp ppf t = Format.fprintf ppf "%s%a k=%d" t.label Params.pp t.params t.k
