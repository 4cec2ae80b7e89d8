module Json = Stratrec_util.Json
module Model = Stratrec_model

type command =
  | Submit of Stratrec.Request.t
  | Flush
  | Drain
  | Metrics
  | Health of string option
  | Slo of string option
  | Dump
  | Ping
  | Tick of float
  | Shutdown
  | Unknown_get of string

let default_max_line = 65536

let ( let* ) = Result.bind

(* GET dispatch: [GET <path>[?tenant=<t>]], leading slash optional, path
   matched case-insensitively. The only recognized query parameter is
   [tenant=] (empty and unknown parameters are ignored). Unknown paths
   parse successfully into [Unknown_get] so the daemon can answer with a
   typed unknown-endpoint response (echoing the path) instead of a
   generic parse error. *)
let get_command path =
  let stripped =
    if String.length path > 0 && path.[0] = '/' then String.sub path 1 (String.length path - 1)
    else path
  in
  let base, tenant =
    match String.index_opt stripped '?' with
    | None -> (stripped, None)
    | Some i ->
        let base = String.sub stripped 0 i in
        let query = String.sub stripped (i + 1) (String.length stripped - i - 1) in
        let tenant =
          String.split_on_char '&' query
          |> List.find_map (fun piece ->
                 match String.index_opt piece '=' with
                 | Some j when String.lowercase_ascii (String.sub piece 0 j) = "tenant" ->
                     let v = String.sub piece (j + 1) (String.length piece - j - 1) in
                     if v = "" then None else Some v
                 | _ -> None)
        in
        (base, tenant)
  in
  match String.lowercase_ascii base with
  | "metrics" -> Metrics
  | "health" -> Health tenant
  | "slo" -> Slo tenant
  | _ -> Unknown_get path

(* [GET ] in any letter case, read without lowercasing the line. *)
let has_get_prefix line =
  String.length line > 4
  && Char.lowercase_ascii line.[0] = 'g'
  && Char.lowercase_ascii line.[1] = 'e'
  && Char.lowercase_ascii line.[2] = 't'
  && line.[3] = ' '

let parse ?(max_line = default_max_line) line =
  if String.length line > max_line then
    Error
      (Printf.sprintf "line too long (%d bytes, limit %d)" (String.length line) max_line)
  else
    let trimmed = String.trim line in
    if has_get_prefix trimmed then
      Ok (get_command (String.trim (String.sub trimmed 4 (String.length trimmed - 4))))
    else
      let* json =
        Result.map_error (fun m -> "invalid JSON: " ^ m) (Json.of_string trimmed)
      in
      let* op =
        match Json.member "op" json with
        | None -> Error "missing field \"op\""
        | Some v -> (
            match Json.to_string_value v with
            | Some s -> Ok (String.lowercase_ascii s)
            | None -> Error "field \"op\": expected a string")
      in
      match op with
      | "submit" ->
          Result.map
            (fun r -> Submit r)
            (Result.map_error (fun m -> "submit: " ^ m) (Stratrec.Request.of_json json))
      | "flush" -> Ok Flush
      | "drain" -> Ok Drain
      | "metrics" -> Ok Metrics
      | "health" | "slo" -> (
          let wrap tenant = if op = "health" then Health tenant else Slo tenant in
          match Json.member "tenant" json with
          | None -> Ok (wrap None)
          | Some v -> (
              match Json.to_string_value v with
              | Some "" -> Ok (wrap None)
              | Some tenant -> Ok (wrap (Some tenant))
              | None -> Error (op ^ ": field \"tenant\": expected a string")))
      | "dump" -> Ok Dump
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | "tick" -> (
          match Json.member "hours" json with
          | None -> Error "tick: missing field \"hours\""
          | Some v -> (
              match Json.to_float v with
              | Some h when h > 0. -> Ok (Tick h)
              | Some h -> Error (Printf.sprintf "tick: hours must be positive (got %g)" h)
              | None -> Error "tick: field \"hours\": expected a number"))
      | other -> Error (Printf.sprintf "unknown op %S" other)

type outcome =
  | Satisfied of { strategies : string list; workforce : float }
  | Alternative of { params : Model.Params.t; distance : float }
  | Workforce_limited
  | No_alternative

let outcome_of_aggregator = function
  | Stratrec.Aggregator.Satisfied { strategies; workforce } ->
      Satisfied
        {
          strategies = List.map (fun s -> s.Model.Strategy.label) strategies;
          workforce;
        }
  | Stratrec.Aggregator.Alternative result ->
      Alternative
        { params = result.Stratrec.Adpar.alternative; distance = result.Stratrec.Adpar.distance }
  | Stratrec.Aggregator.Workforce_limited -> Workforce_limited
  | Stratrec.Aggregator.No_alternative -> No_alternative

type lineage = {
  queue_seconds : float;
  triage_seconds : float;
  deploy_seconds : float;
  total_seconds : float;
}

type health_state = Ready | Degraded | Unhealthy

let health_state_label = function
  | Ready -> "ready"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

type slo_status = {
  slo : string;
  slo_tenant : string option;
  burning : bool;
  fast_burn_rate : float;
  slow_burn_rate : float;
  budget_remaining : float;
}

type response =
  | Accepted of { id : int; tenant : string; queue_depth : int }
  | Queue_full of { id : int; tenant : string; queue_depth : int }
  | Quota_exceeded of { id : int; tenant : string; queued : int; limit : int }
  | Overloaded of { id : int; tenant : string; rung : int; reason : string }
  | Draining of { id : int; tenant : string }
  | Drain_expired of { id : int; tenant : string; waited_seconds : float }
  | Drained of { answered : int; expired : int; forced : int; epochs : int }
  | Deadline_expired of { id : int; tenant : string; waited_seconds : float }
  | Duplicate_id of { id : int; tenant : string }
  | Completed of {
      id : int;
      tenant : string;
      epoch : int;
      outcome : outcome;
      deployed : string option;
      lineage : lineage option;
    }
  | Epoch_closed of { epoch : int; admitted : int; expired : int }
  | Health_status of {
      state : health_state;
      scope : string option;
      reasons : string list;
      breaker : string option;
      queue_depth : int;
      queue_capacity : int;
      slo_burning : int;
      epochs : int;
      brownout_rung : int;
      draining : bool;
      io_errors : int;
      cache_hit_ratio : float option;
    }
  | Slo_report of slo_status list
  | Dumped of { path : string; records : int }
  | Unknown_endpoint of { path : string }
  | Pong
  | Ticked of { clock_hours : float }
  | Shutting_down
  | Error_ of { reason : string }
  | Metrics_text of string

(* The writer appends each field where it goes: keys are constants that
   need no escaping, strings and floats go through the Json writers, and
   ints print with [string_of_int], exactly at any magnitude. *)

let head buffer ~ok status =
  Buffer.add_string buffer (if ok then {|{"ok":true,"status":"|} else {|{"ok":false,"status":"|});
  Buffer.add_string buffer status;
  Buffer.add_char buffer '"'

let key buffer name =
  Buffer.add_string buffer {|,"|};
  Buffer.add_string buffer name;
  Buffer.add_string buffer {|":|}

let int_field buffer name i =
  key buffer name;
  Buffer.add_string buffer (string_of_int i)

let num_field buffer name f =
  key buffer name;
  Json.add_number buffer f

let str_field buffer name s =
  key buffer name;
  Json.add_string buffer s

let bool_field buffer name b =
  key buffer name;
  Buffer.add_string buffer (if b then "true" else "false")

let opt_str_field buffer name = function
  | None -> ()
  | Some s -> str_field buffer name s

let tenant_field buffer tenant = if tenant <> "" then str_field buffer "tenant" tenant

(* The common opening of a per-request response. *)
let request_head buffer ~ok status ~id ~tenant =
  head buffer ~ok status;
  int_field buffer "id" id;
  tenant_field buffer tenant

let rec add_items buffer add ~first = function
  | [] -> ()
  | item :: rest ->
      if not first then Buffer.add_char buffer ',';
      add buffer item;
      add_items buffer add ~first:false rest

let add_list buffer add items =
  Buffer.add_char buffer '[';
  add_items buffer add ~first:true items;
  Buffer.add_char buffer ']'

let add_outcome buffer = function
  | Satisfied { strategies; workforce } ->
      str_field buffer "outcome" "satisfied";
      key buffer "strategies";
      add_list buffer Json.add_string strategies;
      num_field buffer "workforce" workforce
  | Alternative { params; distance } ->
      str_field buffer "outcome" "alternative";
      str_field buffer "alternative" (Model.Params.to_string params);
      num_field buffer "distance" distance
  | Workforce_limited -> str_field buffer "outcome" "workforce-limited"
  | No_alternative -> str_field buffer "outcome" "no-alternative"

let add_lineage buffer { queue_seconds; triage_seconds; deploy_seconds; total_seconds } =
  Buffer.add_string buffer {|,"lineage":{"queue_seconds":|};
  Json.add_number buffer queue_seconds;
  num_field buffer "triage_seconds" triage_seconds;
  num_field buffer "deploy_seconds" deploy_seconds;
  num_field buffer "total_seconds" total_seconds;
  Buffer.add_char buffer '}'

let add_slo_status buffer s =
  Buffer.add_string buffer {|{"slo":|};
  Json.add_string buffer s.slo;
  opt_str_field buffer "tenant" s.slo_tenant;
  bool_field buffer "burning" s.burning;
  num_field buffer "fast_burn_rate" s.fast_burn_rate;
  num_field buffer "slow_burn_rate" s.slow_burn_rate;
  num_field buffer "budget_remaining" s.budget_remaining;
  Buffer.add_char buffer '}'

let render_into buffer = function
  | Metrics_text text -> Buffer.add_string buffer text
  | response ->
      (match response with
      | Accepted { id; tenant; queue_depth } ->
          request_head buffer ~ok:true "accepted" ~id ~tenant;
          int_field buffer "queue_depth" queue_depth
      | Queue_full { id; tenant; queue_depth } ->
          request_head buffer ~ok:false "queue-full" ~id ~tenant;
          int_field buffer "queue_depth" queue_depth
      | Quota_exceeded { id; tenant; queued; limit } ->
          request_head buffer ~ok:false "quota-exceeded" ~id ~tenant;
          int_field buffer "queued" queued;
          int_field buffer "limit" limit
      | Overloaded { id; tenant; rung; reason } ->
          request_head buffer ~ok:false "overloaded" ~id ~tenant;
          int_field buffer "rung" rung;
          str_field buffer "reason" reason
      | Draining { id; tenant } -> request_head buffer ~ok:false "draining" ~id ~tenant
      | Drain_expired { id; tenant; waited_seconds } ->
          request_head buffer ~ok:false "drain-expired" ~id ~tenant;
          num_field buffer "waited_seconds" waited_seconds
      | Drained { answered; expired; forced; epochs } ->
          head buffer ~ok:true "drained";
          int_field buffer "answered" answered;
          int_field buffer "expired" expired;
          int_field buffer "forced" forced;
          int_field buffer "epochs" epochs
      | Deadline_expired { id; tenant; waited_seconds } ->
          request_head buffer ~ok:false "deadline-expired" ~id ~tenant;
          num_field buffer "waited_seconds" waited_seconds
      | Duplicate_id { id; tenant } -> request_head buffer ~ok:false "duplicate-id" ~id ~tenant
      | Completed { id; tenant; epoch; outcome; deployed; lineage } ->
          request_head buffer ~ok:true "completed" ~id ~tenant;
          int_field buffer "epoch" epoch;
          add_outcome buffer outcome;
          opt_str_field buffer "deployed" deployed;
          (match lineage with None -> () | Some lineage -> add_lineage buffer lineage)
      | Epoch_closed { epoch; admitted; expired } ->
          head buffer ~ok:true "epoch-closed";
          int_field buffer "epoch" epoch;
          int_field buffer "admitted" admitted;
          int_field buffer "expired" expired
      | Health_status
          {
            state;
            scope;
            reasons;
            breaker;
            queue_depth;
            queue_capacity;
            slo_burning;
            epochs;
            brownout_rung;
            draining;
            io_errors;
            cache_hit_ratio;
          } ->
          head buffer ~ok:(state <> Unhealthy) "health";
          opt_str_field buffer "tenant" scope;
          str_field buffer "state" (health_state_label state);
          key buffer "reasons";
          add_list buffer Json.add_string reasons;
          opt_str_field buffer "breaker" breaker;
          int_field buffer "queue_depth" queue_depth;
          int_field buffer "queue_capacity" queue_capacity;
          int_field buffer "slo_burning" slo_burning;
          int_field buffer "epochs" epochs;
          int_field buffer "brownout_rung" brownout_rung;
          bool_field buffer "draining" draining;
          int_field buffer "io_errors" io_errors;
          (match cache_hit_ratio with None -> () | Some r -> num_field buffer "cache_hit_ratio" r)
      | Slo_report slos ->
          head buffer ~ok:true "slo";
          key buffer "slos";
          add_list buffer add_slo_status slos
      | Dumped { path; records } ->
          head buffer ~ok:true "dumped";
          str_field buffer "path" path;
          int_field buffer "records" records
      | Unknown_endpoint { path } ->
          head buffer ~ok:false "unknown-endpoint";
          str_field buffer "path" path
      | Pong -> head buffer ~ok:true "pong"
      | Ticked { clock_hours } ->
          head buffer ~ok:true "ticked";
          num_field buffer "clock_hours" clock_hours
      | Shutting_down -> head buffer ~ok:true "shutting-down"
      | Error_ { reason } ->
          head buffer ~ok:false "error";
          str_field buffer "error" reason
      | Metrics_text _ -> assert false);
      Buffer.add_string buffer "}\n"

let render = function
  | Metrics_text text -> text
  | response ->
      let buffer = Buffer.create 256 in
      render_into buffer response;
      Buffer.contents buffer
