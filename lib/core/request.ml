module Model = Stratrec_model
module Json = Stratrec_util.Json
module Deployment = Model.Deployment
module Params = Model.Params

type t = {
  tenant : string;
  deadline_hours : float option;
  deployment : Deployment.t;
}

let validate_deadline = function
  | Some h when not (h > 0.) ->
      invalid_arg (Printf.sprintf "Request: deadline_hours must be positive (got %g)" h)
  | _ -> ()

let of_deployment ?(tenant = "") ?deadline_hours deployment =
  validate_deadline deadline_hours;
  { tenant; deadline_hours; deployment }

let make ~id ?label ?tenant ?deadline_hours ~params ~k () =
  of_deployment ?tenant ?deadline_hours (Deployment.make ~id ?label ~params ~k ())

let deployment t = t.deployment
let tenant t = t.tenant
let deadline_hours t = t.deadline_hours
let id t = t.deployment.Deployment.id
let label t = t.deployment.Deployment.label
let params t = t.deployment.Deployment.params
let k t = t.deployment.Deployment.k

let equal a b =
  String.equal a.tenant b.tenant
  && Option.equal Float.equal a.deadline_hours b.deadline_hours
  && Int.equal (id a) (id b)
  && String.equal (label a) (label b)
  && Int.equal (k a) (k b)
  && Params.equal (params a) (params b)

let default_label i = "d" ^ string_of_int i

let to_json t =
  let base =
    match Model.Codec.deployment_to_json t.deployment with
    | Json.Object fields -> fields
    | _ -> assert false (* deployment_to_json always yields an object *)
  in
  let extras =
    (if t.tenant = "" then [] else [ ("tenant", Json.String t.tenant) ])
    @
    match t.deadline_hours with
    | None -> []
    | Some h -> [ ("deadline_hours", Json.Number h) ]
  in
  Json.Object (base @ extras)

let ( let* ) = Result.bind

let of_json json =
  match json with
  | Json.Object _ ->
      let field name decode =
        match Json.member name json with
        | None -> Error (Printf.sprintf "missing field %S" name)
        | Some v -> decode v
      in
      let optional name decode =
        match Json.member name json with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map Option.some (decode v)
      in
      let int_value name v =
        match Json.to_int v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "field %S: expected an integer" name)
      in
      let* id = field "id" (int_value "id") in
      let* params = field "params" Model.Codec.params_of_json in
      let* k =
        match Json.member "k" json with
        | None -> Ok 1
        | Some v -> int_value "k" v
      in
      let* label =
        match Json.member "label" json with
        | None -> Ok (default_label id)
        | Some v -> (
            match Json.to_string_value v with
            | Some s -> Ok s
            | None -> Error "field \"label\": expected a string")
      in
      let* tenant =
        match Json.member "tenant" json with
        | None -> Ok ""
        | Some v -> (
            match Json.to_string_value v with
            | Some s -> Ok s
            | None -> Error "field \"tenant\": expected a string")
      in
      let* deadline_hours =
        optional "deadline_hours" (fun v ->
            match Json.to_float v with
            | Some h when h > 0. -> Ok h
            | Some h ->
                Error
                  (Printf.sprintf "field \"deadline_hours\": must be positive (got %g)" h)
            | None -> Error "field \"deadline_hours\": expected a number")
      in
      if k < 1 then Error (Printf.sprintf "field \"k\": must be >= 1 (got %d)" k)
      else
        Ok
          {
            tenant;
            deadline_hours;
            deployment = Deployment.make ~id ~label ~params ~k ();
          }
  | _ -> Error "expected a request object"

(* The shortest-round-trip float rendering the rest of the repo uses for
   compact string forms (Params.to_string uses 12 significant digits; a
   deadline is a duration, %.12g round-trips every decimal input). *)
let float_to_string f = Printf.sprintf "%.12g" f

let to_string t =
  let parts =
    [ Printf.sprintf "id=%d" (id t) ]
    @ (if label t = default_label (id t) then []
       else [ Printf.sprintf "label=%s" (label t) ])
    @ (if t.tenant = "" then [] else [ Printf.sprintf "tenant=%s" t.tenant ])
    @ [
        Printf.sprintf "params=%s" (Params.to_string (params t));
        Printf.sprintf "k=%d" (k t);
      ]
    @
    match t.deadline_hours with
    | None -> []
    | Some h -> [ Printf.sprintf "deadline=%s" (float_to_string h) ]
  in
  String.concat ";" parts

let of_string s =
  let pairs =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun part -> part <> "")
  in
  let* bindings =
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" part)
        | Some i ->
            let key = String.trim (String.sub part 0 i) in
            let value =
              String.trim (String.sub part (i + 1) (String.length part - i - 1))
            in
            Ok ((key, value) :: acc))
      (Ok []) pairs
  in
  let bindings = List.rev bindings in
  let lookup key = List.assoc_opt key bindings in
  let* () =
    match
      List.find_opt
        (fun (key, _) ->
          not (List.mem key [ "id"; "label"; "tenant"; "params"; "k"; "deadline" ]))
        bindings
    with
    | Some (key, _) -> Error (Printf.sprintf "unknown request field %S" key)
    | None -> Ok ()
  in
  let* id =
    match lookup "id" with
    | None -> Error "missing request field \"id\""
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "id: expected an integer, got %S" v))
  in
  let* params =
    match lookup "params" with
    | None -> Error "missing request field \"params\""
    | Some v -> Result.map_error (fun m -> "params: " ^ m) (Params.of_string v)
  in
  let* k =
    match lookup "k" with
    | None -> Ok 1
    | Some v -> (
        match int_of_string_opt v with
        | Some k when k >= 1 -> Ok k
        | Some k -> Error (Printf.sprintf "k: must be >= 1 (got %d)" k)
        | None -> Error (Printf.sprintf "k: expected an integer, got %S" v))
  in
  let* deadline_hours =
    match lookup "deadline" with
    | None -> Ok None
    | Some v -> (
        match float_of_string_opt v with
        | Some h when h > 0. -> Ok (Some h)
        | Some h -> Error (Printf.sprintf "deadline: must be positive (got %g)" h)
        | None -> Error (Printf.sprintf "deadline: expected hours, got %S" v))
  in
  let label = Option.value (lookup "label") ~default:(default_label id) in
  let tenant = Option.value (lookup "tenant") ~default:"" in
  Ok { tenant; deadline_hours; deployment = Deployment.make ~id ~label ~params ~k () }

let pp ppf t = Format.pp_print_string ppf (to_string t)
