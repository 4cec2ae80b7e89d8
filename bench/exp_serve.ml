(* Serve experiment: sustained throughput of the stratrec-serve daemon
   core (DESIGN.md §5g) — admission, epoch batching, triage, response
   streaming — driven through the same Daemon.handle_line entry point
   the socket server and --stdio use, so the numbers cover the protocol
   parse and response rendering, not just the engine.

   Each row pushes a fixed multi-tenant request stream through a fresh
   daemon at one epoch-fill setting, then flushes and shuts it down.
   Reported: epochs run, admitted/completed counts, requests per second
   and the p99 admission queue wait (from the daemon's own
   serve.queue_wait_seconds histogram). The seed is fixed, so the
   counts are reproducible run to run; only the timings float. *)

module Json = Stratrec_util.Json
module Tabular = Stratrec_util.Tabular
module Rng = Stratrec_util.Rng
module Model = Stratrec_model
module Obs = Stratrec_obs
module Engine = Stratrec.Engine
module Request = Stratrec.Request
module Serve = Stratrec_serve

let tenants = [| "acme"; "beta"; "gamma"; "delta" |]

(* The request stream, pre-rendered to protocol lines: mixed tenants,
   moderate demands so epochs carry both satisfied and alternative
   outcomes. *)
let submit_lines rng ~m =
  List.init m (fun i ->
      let params =
        Model.Params.make
          ~quality:(Rng.uniform rng ~lo:0.5 ~hi:1.)
          ~cost:(Rng.uniform rng ~lo:0. ~hi:0.6)
          ~latency:(Rng.uniform rng ~lo:0. ~hi:0.6)
      in
      let request =
        Request.make ~id:(i + 1) ~tenant:tenants.(i mod Array.length tenants) ~params ~k:2 ()
      in
      match Request.to_json request with
      | Json.Object fields -> Json.to_string (Json.Object (("op", Json.String "submit") :: fields))
      | _ -> assert false)

let drain_line line = Json.to_string (Json.Object [ ("op", Json.String line) ])

(* A fresh daemon over the fixed n-strategy catalog, tracing into the
   harness trace; [config] overrides the serving defaults per sweep. *)
let create_daemon ~n config =
  let strategies = Model.Workload.strategies (Rng.create 2020) ~n ~kind:Model.Workload.Uniform in
  let config =
    { config with Serve.Daemon.engine = Engine.(with_trace default_config !Bench_common.trace) }
  in
  match
    Serve.Daemon.create ~config ~availability:(Model.Availability.certain 0.75) ~strategies ()
  with
  | Ok daemon -> daemon
  | Error e -> failwith (Engine.error_message e)

(* p99 of the daemon's own serve.queue_wait_seconds histogram. *)
let queue_wait_p99 daemon =
  match Obs.Snapshot.find (Serve.Daemon.metrics daemon) "serve.queue_wait_seconds" with
  | Some (Obs.Snapshot.Histogram h) -> Obs.Snapshot.histogram_quantile h 0.99
  | _ -> 0.

let run_stream ~n ~epoch_requests lines =
  let daemon =
    create_daemon ~n
      {
        Serve.Daemon.default_config with
        queue_capacity = max 64 epoch_requests;
        epoch_requests;
      }
  in
  let completed = ref 0 and accepted = ref 0 in
  let feed line =
    let responses, _ = Serve.Daemon.handle_line daemon ~client:0 line in
    List.iter
      (fun (_, response) ->
        match response with
        | Serve.Protocol.Accepted _ -> incr accepted
        | Serve.Protocol.Completed _ -> incr completed
        | _ -> ())
      responses
  in
  List.iter feed lines;
  feed (drain_line "flush");
  feed (drain_line "shutdown");
  assert (Serve.Daemon.queue_depth daemon = 0);
  (daemon, !accepted, !completed)

(* Overload sweep: offered load at 1x/2x/4x the queue capacity with the
   brownout ladder live and epochs closing only on flush, so the queue
   genuinely saturates and the ladder walks. One low-priority tenant
   (delta, weight 0.5) exists to be shed at the top rung. Reported per
   row: accepted / queue-full / shed counts, the rung reached, and the
   p99 queue wait. *)
let run_overload ~n ~mult =
  let capacity = 32 in
  let quotas =
    match Serve.Admission.quota_of_string "tenant=delta;weight=0.5" with
    | Ok q -> [ q ]
    | Error e -> failwith e
  in
  let daemon =
    create_daemon ~n
      {
        Serve.Daemon.default_config with
        queue_capacity = capacity;
        epoch_requests = 2 * capacity;
        quotas;
      }
  in
  let accepted = ref 0 and full = ref 0 and shed = ref 0 and completed = ref 0 in
  let feed line =
    let responses, _ = Serve.Daemon.handle_line daemon ~client:0 line in
    List.iter
      (fun (_, response) ->
        match response with
        | Serve.Protocol.Accepted _ -> incr accepted
        | Serve.Protocol.Queue_full _ -> incr full
        | Serve.Protocol.Overloaded _ -> incr shed
        | Serve.Protocol.Completed _ -> incr completed
        | _ -> ())
      responses
  in
  List.iter feed (submit_lines (Rng.create (13 + mult)) ~m:(capacity * mult));
  let rung = Serve.Daemon.brownout_rung daemon in
  feed (drain_line "flush");
  feed (drain_line "flush");
  feed (drain_line "shutdown");
  assert (Serve.Daemon.queue_depth daemon = 0);
  (daemon, !accepted, !full, !shed, !completed, rung)

let run () =
  Bench_common.section "Serve - daemon throughput under admission control";
  let n = max 24 (Bench_common.scale 200) and m = max 8 (Bench_common.scale 2000) in
  Printf.printf "catalog %d, stream of %d requests over %d tenants, epochs close on fill\n\n" n m
    (Array.length tenants);
  let lines = submit_lines (Rng.create 7) ~m in
  let t =
    Tabular.create
      ~columns:[ "Epoch fill"; "Epochs"; "Accepted"; "Completed"; "req/s"; "p99 wait (s)" ]
  in
  List.iter
    (fun epoch_requests ->
      let elapsed, (daemon, accepted, completed) =
        Bench_common.time (fun () -> run_stream ~n ~epoch_requests lines)
      in
      let rps = if elapsed > 0. then float_of_int m /. elapsed else 0. in
      Tabular.add_row t
        [
          string_of_int epoch_requests;
          string_of_int (Serve.Daemon.epochs daemon);
          string_of_int accepted;
          string_of_int completed;
          Printf.sprintf "%.0f" rps;
          Printf.sprintf "%.6f" (queue_wait_p99 daemon);
        ])
    (Bench_common.values [ 8; 4; 16; 64 ]);
  Bench_common.print_table ~title:"epoch fill vs. throughput" t;
  (* overload sweep: shed rate and p99 vs offered load *)
  let t =
    Tabular.create
      ~columns:
        [ "Offered"; "Accepted"; "Queue-full"; "Shed"; "Completed"; "Rung"; "p99 wait (s)" ]
  in
  List.iter
    (fun mult ->
      let daemon, accepted, full, shed, completed, rung = run_overload ~n ~mult in
      Tabular.add_row t
        [
          Printf.sprintf "%dx" mult;
          string_of_int accepted;
          string_of_int full;
          string_of_int shed;
          string_of_int completed;
          string_of_int rung;
          Printf.sprintf "%.6f" (queue_wait_p99 daemon);
        ])
    [ 1; 2; 4 ];
  Bench_common.print_table ~title:"overload sweep: offered load vs. shedding" t
