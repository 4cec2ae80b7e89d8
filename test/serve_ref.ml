(* The serve codec pieces the library ran before it wrote responses
   straight into buffers and framed lines by search, kept as the oracles
   test_serve compares Protocol.render and Server.Lines.feed with. *)

module Json = Stratrec_util.Json
module Model = Stratrec_model
open Stratrec_serve.Protocol

(* The tree renderer: each response built as a Json.t, printed, then
   copied once more to add the newline. Ints went through floats, so an
   id of 1e15 or more printed in exponent form. *)

let bool b = Json.Bool b
let str s = Json.String s
let num f = Json.Number f
let int i = Json.Number (float_of_int i)

let tenant_field tenant = if tenant = "" then [] else [ ("tenant", str tenant) ]

let outcome_fields = function
  | Satisfied { strategies; workforce } ->
      [
        ("outcome", str "satisfied");
        ("strategies", Json.List (List.map str strategies));
        ("workforce", num workforce);
      ]
  | Alternative { params; distance } ->
      [
        ("outcome", str "alternative");
        ("alternative", str (Model.Params.to_string params));
        ("distance", num distance);
      ]
  | Workforce_limited -> [ ("outcome", str "workforce-limited") ]
  | No_alternative -> [ ("outcome", str "no-alternative") ]

let lineage_field = function
  | None -> []
  | Some { queue_seconds; triage_seconds; deploy_seconds; total_seconds } ->
      [
        ( "lineage",
          Json.Object
            [
              ("queue_seconds", num queue_seconds);
              ("triage_seconds", num triage_seconds);
              ("deploy_seconds", num deploy_seconds);
              ("total_seconds", num total_seconds);
            ] );
      ]

let slo_status_fields s =
  Json.Object
    (("slo", str s.slo)
     :: (match s.slo_tenant with None -> [] | Some t -> [ ("tenant", str t) ])
    @ [
        ("burning", bool s.burning);
        ("fast_burn_rate", num s.fast_burn_rate);
        ("slow_burn_rate", num s.slow_burn_rate);
        ("budget_remaining", num s.budget_remaining);
      ])

let render response =
  match response with
  | Metrics_text text -> text
  | _ ->
      let fields =
        match response with
        | Accepted { id; tenant; queue_depth } ->
            [ ("ok", bool true); ("status", str "accepted"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("queue_depth", int queue_depth) ]
        | Queue_full { id; tenant; queue_depth } ->
            [ ("ok", bool false); ("status", str "queue-full"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("queue_depth", int queue_depth) ]
        | Quota_exceeded { id; tenant; queued; limit } ->
            [ ("ok", bool false); ("status", str "quota-exceeded"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("queued", int queued); ("limit", int limit) ]
        | Overloaded { id; tenant; rung; reason } ->
            [ ("ok", bool false); ("status", str "overloaded"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("rung", int rung); ("reason", str reason) ]
        | Draining { id; tenant } ->
            [ ("ok", bool false); ("status", str "draining"); ("id", int id) ]
            @ tenant_field tenant
        | Drain_expired { id; tenant; waited_seconds } ->
            [ ("ok", bool false); ("status", str "drain-expired"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("waited_seconds", num waited_seconds) ]
        | Drained { answered; expired; forced; epochs } ->
            [
              ("ok", bool true);
              ("status", str "drained");
              ("answered", int answered);
              ("expired", int expired);
              ("forced", int forced);
              ("epochs", int epochs);
            ]
        | Deadline_expired { id; tenant; waited_seconds } ->
            [ ("ok", bool false); ("status", str "deadline-expired"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("waited_seconds", num waited_seconds) ]
        | Duplicate_id { id; tenant } ->
            [ ("ok", bool false); ("status", str "duplicate-id"); ("id", int id) ]
            @ tenant_field tenant
        | Completed { id; tenant; epoch; outcome; deployed; lineage } ->
            [ ("ok", bool true); ("status", str "completed"); ("id", int id) ]
            @ tenant_field tenant
            @ [ ("epoch", int epoch) ]
            @ outcome_fields outcome
            @ (match deployed with
              | None -> []
              | Some verdict -> [ ("deployed", str verdict) ])
            @ lineage_field lineage
        | Epoch_closed { epoch; admitted; expired } ->
            [
              ("ok", bool true);
              ("status", str "epoch-closed");
              ("epoch", int epoch);
              ("admitted", int admitted);
              ("expired", int expired);
            ]
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
            [ ("ok", bool (state <> Unhealthy)); ("status", str "health") ]
            @ (match scope with None -> [] | Some t -> [ ("tenant", str t) ])
            @ [
                ("state", str (health_state_label state));
                ("reasons", Json.List (List.map str reasons));
              ]
            @ (match breaker with None -> [] | Some b -> [ ("breaker", str b) ])
            @ [
                ("queue_depth", int queue_depth);
                ("queue_capacity", int queue_capacity);
                ("slo_burning", int slo_burning);
                ("epochs", int epochs);
                ("brownout_rung", int brownout_rung);
                ("draining", bool draining);
                ("io_errors", int io_errors);
              ]
            @ (match cache_hit_ratio with
              | None -> []
              | Some r -> [ ("cache_hit_ratio", num r) ])
        | Slo_report slos ->
            [
              ("ok", bool true);
              ("status", str "slo");
              ("slos", Json.List (List.map slo_status_fields slos));
            ]
        | Dumped { path; records } ->
            [
              ("ok", bool true);
              ("status", str "dumped");
              ("path", str path);
              ("records", int records);
            ]
        | Unknown_endpoint { path } ->
            [ ("ok", bool false); ("status", str "unknown-endpoint"); ("path", str path) ]
        | Pong -> [ ("ok", bool true); ("status", str "pong") ]
        | Ticked { clock_hours } ->
            [ ("ok", bool true); ("status", str "ticked"); ("clock_hours", num clock_hours) ]
        | Shutting_down -> [ ("ok", bool true); ("status", str "shutting-down") ]
        | Error_ { reason } ->
            [ ("ok", bool false); ("status", str "error"); ("error", str reason) ]
        | Metrics_text _ -> assert false
      in
      Json.to_string (Json.Object fields) ^ "\n"

(* Line framing one byte at a time, through a closure per byte. *)
module Lines = struct
  type t = { buf : Buffer.t; mutable discarding : bool }

  let create () = { buf = Buffer.create 256; discarding = false }

  let feed t ~max_line chunk =
    let lines = ref [] and dropped = ref 0 in
    String.iter
      (fun c ->
        if c = '\n' then
          if t.discarding then begin
            t.discarding <- false;
            incr dropped
          end
          else begin
            lines := Buffer.contents t.buf :: !lines;
            Buffer.clear t.buf
          end
        else if t.discarding then ()
        else begin
          Buffer.add_char t.buf c;
          if Buffer.length t.buf > max_line then begin
            Buffer.clear t.buf;
            t.discarding <- true
          end
        end)
      chunk;
    (List.rev !lines, !dropped)
end
