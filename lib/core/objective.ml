type t = Throughput | Payoff

let value t d =
  match t with Throughput -> 1. | Payoff -> Stratrec_model.Deployment.payoff d

let exact_greedy = function Throughput -> true | Payoff -> false

let label = function Throughput -> "throughput" | Payoff -> "payoff"

let pp ppf t = Format.pp_print_string ppf (label t)

let to_string = label

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "throughput" -> Ok Throughput
  | "payoff" | "pay-off" -> Ok Payoff
  | other -> Error (Printf.sprintf "unknown objective %S (throughput|payoff)" other)
