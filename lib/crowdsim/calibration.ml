module Params = Stratrec_model.Params
module Linear_model = Stratrec_model.Linear_model
module Regression = Stratrec_util.Regression

type t = {
  model : Linear_model.t;
  diagnostics : (Params.axis * Regression.fit) list;
}

let fit ~observations =
  if Array.length observations < 3 then
    invalid_arg "Calibration.fit: need at least 3 observations";
  let model, diagnostics = Linear_model.fit_detailed ~observations in
  { model; diagnostics }

let within_reference ?(level = 0.9) t ~reference =
  List.map
    (fun (axis, fit) ->
      let ref_coeffs = Linear_model.coeffs reference axis in
      ( axis,
        Regression.within_confidence ~level fit ~slope:ref_coeffs.Linear_model.alpha
          ~intercept:ref_coeffs.Linear_model.beta ))
    t.diagnostics

let r_squared t axis =
  match List.assoc_opt axis t.diagnostics with
  | Some fit -> fit.Regression.r_squared
  | None -> invalid_arg "Calibration.r_squared: unknown axis"

let pp ppf t =
  List.iter
    (fun (axis, fit) ->
      Format.fprintf ppf "%s: %a@\n" (Params.axis_label axis) Regression.pp_fit fit)
    t.diagnostics
