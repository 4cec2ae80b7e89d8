type t = {
  id : int;
  label : string;
  stages : Dimension.combo list;
  params : Params.t;
  model : Linear_model.t;
}

let make ~id ?label ~stages ~params ~model () =
  if stages = [] then invalid_arg "Strategy.make: empty stage list";
  let label =
    match label with
    | Some l -> l
    | None -> String.concat "+" (List.map Dimension.combo_label stages)
  in
  { id; label; stages; params; model }

let single ~id combo ~params ~model = make ~id ~stages:[ combo ] ~params ~model ()

let point t = Params.to_point t.params
let with_params t params = { t with params }

let instantiate t ~availability =
  with_params t (Linear_model.estimate t.model ~availability)

let workflow_space_size ~stages =
  if stages < 0 then invalid_arg "Strategy.workflow_space_size: negative stages";
  Float.pow (float_of_int Dimension.combo_count) (float_of_int stages)

let equal a b = a.id = b.id

let pp ppf t = Format.fprintf ppf "%s#%d%a" t.label t.id Params.pp t.params
