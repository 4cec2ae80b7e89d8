(* Output check: every [completed] line the daemon sent must equal what
   the one-shot Engine.run computes on the same 8-request batch (the
   submit ≡ run and cached ≡ uncached contracts). Outcome, strategies,
   workforce, alternative and distance are compared; epoch and lineage
   are not. *)

module Engine = Stratrec.Engine
module Json = Stratrec_util.Json
module Protocol = Stratrec_serve.Protocol

(* Engine.run with observability off: decisions do not depend on it. *)
let config =
  Engine.with_trace
    (Engine.with_metrics Engine.default_config Stratrec_obs.Registry.noop)
    Stratrec_obs.Trace.noop

let request line =
  match Protocol.parse line with
  | Ok (Protocol.Submit r) -> r
  | Ok _ | Error _ -> Client.fail "not a submit line: %s" line

(* The fields a completed line must carry, built from Engine.run's
   outcome without going through Protocol, so a rendering fault shows
   too. *)
let expected_fields = function
  | Stratrec.Aggregator.Satisfied { strategies; workforce } ->
      [
        ("outcome", Json.String "satisfied");
        ( "strategies",
          Json.List
            (List.map (fun s -> Json.String s.Stratrec_model.Strategy.label) strategies) );
        ("workforce", Json.Number workforce);
      ]
  | Stratrec.Aggregator.Alternative r ->
      [
        ("outcome", Json.String "alternative");
        ("alternative", Json.String (Stratrec_model.Params.to_string r.Stratrec.Adpar.alternative));
        ("distance", Json.Number r.Stratrec.Adpar.distance);
      ]
  | Stratrec.Aggregator.Workforce_limited -> [ ("outcome", Json.String "workforce-limited") ]
  | Stratrec.Aggregator.No_alternative -> [ ("outcome", Json.String "no-alternative") ]

let matches ~id outcome line =
  match Json.of_string line with
  | Error _ -> false
  | Ok j ->
      List.for_all
        (fun (key, want) ->
          match Json.member key j with Some got -> Json.equal got want | None -> false)
        (("status", Json.String "completed")
        :: ("id", Json.Number (float_of_int id))
        :: expected_fields outcome)

(* Returns (responses checked, first mismatch if any). Engine.run's
   outcomes are a function of the batch's (params, k) sequence — ids only
   name requests — so batches that repeat it share one run. *)
let verify ~strategies ~batches ~responses =
  let availability = Stratrec_model.Availability.certain Gen.availability in
  let memo = Hashtbl.create 1024 in
  let run requests =
    let key =
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun r ->
                Printf.sprintf "%s/%d"
                  (Stratrec_model.Params.to_string (Stratrec.Request.params r))
                  (Stratrec.Request.k r))
              requests))
    in
    match Hashtbl.find_opt memo key with
    | Some outcomes -> outcomes
    | None ->
        let outcomes =
          Result.map
            (fun report -> report.Engine.aggregate.Stratrec.Aggregator.outcomes)
            (Engine.run ~config ~availability ~strategies
               ~requests:(Array.map Stratrec.Request.deployment requests)
               ())
        in
        Hashtbl.replace memo key outcomes;
        outcomes
  in
  let checked = ref 0 and mismatch = ref None in
  List.iter
    (fun lines ->
      if !mismatch = None then begin
        let requests = Array.map request lines in
        match run requests with
        | Error e -> mismatch := Some ("Engine.run failed: " ^ Engine.error_message e)
        | Ok outcomes ->
            Array.iteri
              (fun i (_, outcome) ->
                let id = Stratrec.Request.id requests.(i) in
                match Hashtbl.find_opt responses id with
                | None -> mismatch := Some (Printf.sprintf "no completed line for id %d" id)
                | Some line ->
                    incr checked;
                    if not (matches ~id outcome line) then
                      mismatch :=
                        Some
                          (Printf.sprintf "id %d: daemon sent %s, Engine.run gives %s" id line
                             (Json.to_string (Json.Object (expected_fields outcome)))))
              outcomes
      end)
    batches;
  (!checked, !mismatch)
