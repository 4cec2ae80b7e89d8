module Json = Stratrec_util.Json

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_label = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type state = { threshold : level; clock : unit -> float; writer : string -> unit }

type t = Noop | Active of state

let create ?(level = Info) ?(clock = Registry.wall_clock) ~writer () =
  Active { threshold = level; clock; writer }

let noop = Noop

let log ?(trace = Trace.noop) ?(fields = []) t level msg =
  match t with
  | Noop -> ()
  | Active s when severity level < severity s.threshold -> ()
  | Active s ->
      let span =
        match Trace.current_span_id trace with
        | Some id -> [ ("span", Json.Number (float_of_int id)) ]
        | None -> []
      in
      let record =
        Json.Object
          ((("ts", Json.Number (s.clock ())) :: ("level", Json.String (level_label level))
            :: span)
          @ (("msg", Json.String msg) :: fields))
      in
      s.writer (Json.to_string record)

let debug ?trace ?fields t msg = log ?trace ?fields t Debug msg
let info ?trace ?fields t msg = log ?trace ?fields t Info msg
let warn ?trace ?fields t msg = log ?trace ?fields t Warn msg
let error ?trace ?fields t msg = log ?trace ?fields t Error msg
