module Json = Stratrec_util.Json

let ( let* ) = Result.bind

let field name json decode =
  match Json.member name json with
  | Some value -> (
      match decode value with
      | Ok v -> Ok v
      | Error e -> Error (Printf.sprintf "%s.%s" name e))
  | None -> Error (Printf.sprintf "missing field %S" name)

let float_value = function
  | Json.Number f -> Ok f
  | _ -> Error ": expected a number"

let int_value json =
  match Json.to_int json with Some i -> Ok i | None -> Error ": expected an integer"

let string_value = function
  | Json.String s -> Ok s
  | _ -> Error ": expected a string"

let list_value = function
  | Json.List l -> Ok l
  | _ -> Error ": expected an array"

let params_to_json (p : Params.t) =
  Json.Object
    [
      ("quality", Json.Number p.Params.quality);
      ("cost", Json.Number p.Params.cost);
      ("latency", Json.Number p.Params.latency);
    ]

let params_of_json json =
  match json with
  | Json.String s -> (
      (* The compact "QUALITY,COST,LATENCY" spelling shared with the CLI's
         --request argument. *)
      match Params.of_string s with
      | Ok params -> Ok params
      | Error message -> Error (Printf.sprintf "params %S: %s" s message))
  | _ ->
      let* quality = field "quality" json float_value in
      let* cost = field "cost" json float_value in
      let* latency = field "latency" json float_value in
      (match Params.make ~quality ~cost ~latency with
      | params -> Ok params
      | exception Invalid_argument message -> Error message)

let coeffs_to_json (c : Linear_model.coeffs) =
  Json.Object
    [ ("alpha", Json.Number c.Linear_model.alpha); ("beta", Json.Number c.Linear_model.beta) ]

let coeffs_of_json json =
  let* alpha = field "alpha" json float_value in
  let* beta = field "beta" json float_value in
  Ok { Linear_model.alpha; beta }

let model_to_json (m : Linear_model.t) =
  Json.Object
    [
      ("quality", coeffs_to_json m.Linear_model.quality);
      ("cost", coeffs_to_json m.Linear_model.cost);
      ("latency", coeffs_to_json m.Linear_model.latency);
    ]

let model_of_json json =
  let* quality = field "quality" json coeffs_of_json in
  let* cost = field "cost" json coeffs_of_json in
  let* latency = field "latency" json coeffs_of_json in
  Ok { Linear_model.quality; cost; latency }

let stage_of_json json =
  let* label = string_value json in
  match Dimension.combo_of_label label with
  | Some combo -> Ok combo
  | None -> Error (Printf.sprintf ": unknown strategy combo %S" label)

let strategy_to_json (s : Strategy.t) =
  Json.Object
    [
      ("id", Json.Number (float_of_int s.Strategy.id));
      ("label", Json.String s.Strategy.label);
      ( "stages",
        Json.List (List.map (fun c -> Json.String (Dimension.combo_label c)) s.Strategy.stages)
      );
      ("params", params_to_json s.Strategy.params);
      ("model", model_to_json s.Strategy.model);
    ]

let strategy_of_json json =
  let* id = field "id" json int_value in
  let* label = field "label" json string_value in
  let* stage_items = field "stages" json list_value in
  let* stages =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* stage = stage_of_json item in
        Ok (stage :: acc))
      (Ok []) stage_items
    |> Result.map List.rev
  in
  let* params = field "params" json params_of_json in
  let* model = field "model" json model_of_json in
  match Strategy.make ~id ~label ~stages ~params ~model () with
  | strategy -> Ok strategy
  | exception Invalid_argument message -> Error message

let deployment_to_json (d : Deployment.t) =
  Json.Object
    [
      ("id", Json.Number (float_of_int d.Deployment.id));
      ("label", Json.String d.Deployment.label);
      ("params", params_to_json d.Deployment.params);
      ("k", Json.Number (float_of_int d.Deployment.k));
    ]

let deployment_of_json json =
  let* id = field "id" json int_value in
  let* label = field "label" json string_value in
  let* params = field "params" json params_of_json in
  let* k = field "k" json int_value in
  match Deployment.make ~id ~label ~params ~k () with
  | deployment -> Ok deployment
  | exception Invalid_argument message -> Error message

let array_of_json ~name decode json =
  let* items = field name json list_value in
  let* values, _ =
    List.fold_left
      (fun acc item ->
        let* values, index = acc in
        match decode item with
        | Ok value -> Ok (value :: values, index + 1)
        | Error e -> Error (Printf.sprintf "%s[%d]: %s" name index e))
      (Ok ([], 0))
      items
  in
  Ok (Array.of_list (List.rev values))

let catalog_to_json strategies =
  Json.Object
    [ ("strategies", Json.List (Array.to_list strategies |> List.map strategy_to_json)) ]

let catalog_of_json = array_of_json ~name:"strategies" strategy_of_json

let save ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 json);
      output_char oc '\n')

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Json.of_string contents
  | exception Sys_error message -> Error message
