(* stratrec-serve — the long-running StratRec recommendation daemon.

   The paper's middleware framing (§2) as a process: requesters submit
   deployment requests over a newline-delimited JSON protocol (Unix or
   TCP socket, or stdio for tests), an admission controller queues them
   with backpressure and per-tenant fairness, and micro-batch epochs run
   through the same BatchStrat+ADPaR engine the one-shot CLI uses —
   bit-identical decisions for the same batch. `GET metrics` on the same
   connection scrapes the live registry as OpenMetrics text.

   Modes:
     stratrec-serve --socket /tmp/s.sock          daemon on a Unix socket
     stratrec-serve --port 7473                   daemon on TCP
     stratrec-serve --stdio                       daemon on stdin/stdout
     stratrec-serve --connect --socket /tmp/s.sock   line-pump client
   (the client mode exists because the container has no nc/socat). *)

open Cmdliner
module Model = Stratrec_model
module Engine = Stratrec.Engine
module Serve = Stratrec_serve
module Resilience = Stratrec_resilience
module Rng = Stratrec_util.Rng

let ( let* ) = Result.bind

(* Workload/engine flags, mirroring the one-shot CLI's spellings. *)

let seed_arg =
  let doc = "Random seed (catalog generation and the deploy stage)." in
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc)

let dist_arg =
  let doc = "Strategy parameter distribution: uniform or normal." in
  Arg.(value
       & opt Stratrec_conv.dist_kind Model.Workload.Uniform
       & info [ "dist" ] ~docv:"DIST" ~doc)

let catalog_arg =
  let doc = "Load the strategy catalog from a JSON file instead of generating one." in
  Arg.(value & opt (some file) None & info [ "catalog" ] ~docv:"FILE" ~doc)

let workforce_arg =
  let doc = "Available workforce in [0,1] (the availability estimate epochs run at)." in
  Arg.(value & opt Stratrec_conv.workforce 0.75 & info [ "w"; "workforce" ] ~docv:"W" ~doc)

let domains_arg =
  let doc = "Shard each epoch's triage across $(docv) domains (bit-identical output)." in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Triage-cache policy: $(b,off), $(b,on) (default capacity) or a positive \
     capacity. The daemon defaults to $(b,on) — repeated request shapes skip \
     triage with bit-identical output."
  in
  Arg.(value
       & opt Stratrec_conv.cache (Some Stratrec.Triage_cache.default_config)
       & info [ "cache" ] ~docv:"POLICY" ~doc)

let deploy_arg =
  let doc = "Deploy every satisfied request's cheapest recommendation on a simulated platform." in
  Arg.(value & flag & info [ "deploy" ] ~doc)

let faults_arg =
  let doc = "Fault plan for the deploy stage (implies $(b,--deploy))." in
  Arg.(value & opt Stratrec_conv.fault Resilience.Fault.none & info [ "faults" ] ~docv:"PLAN" ~doc)

let retries_arg =
  let doc = "Retries per satisfied request (implies $(b,--deploy))." in
  Arg.(value & opt (Stratrec_conv.count ~min:0) 0 & info [ "retries" ] ~docv:"N" ~doc)

(* Admission/protocol flags. *)

let queue_capacity_arg =
  let doc = "Admission queue bound; a full queue answers with typed backpressure." in
  Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"Q" ~doc)

let epoch_requests_arg =
  let doc = "Epoch fill target: an epoch closes when this many requests are queued." in
  Arg.(value & opt int 8 & info [ "epoch-requests" ] ~docv:"E" ~doc)

let max_line_arg =
  let doc = "Protocol line limit in bytes; longer lines get a typed error." in
  Arg.(value
       & opt int Serve.Protocol.default_max_line
       & info [ "max-line" ] ~docv:"BYTES" ~doc)

let quota_arg =
  let doc =
    "Per-tenant admission quota (repeatable): \
     $(b,tenant=acme;weight=2;max-queued=16;max-in-flight=4). $(b,weight) scales the \
     tenant's share of each epoch (weighted deficit round-robin), $(b,max-queued) bounds \
     its waiting requests (excess answered with $(b,quota-exceeded)), $(b,max-in-flight) \
     bounds its requests per epoch. Unlisted tenants get weight 1, no caps."
  in
  Arg.(value & opt_all Stratrec_conv.quota [] & info [ "quota" ] ~docv:"SPEC" ~doc)

let drain_timeout_arg =
  let doc =
    "Wall budget in seconds for $(b,drain) and $(b,shutdown): epochs run until the queue \
     empties or the budget elapses, then stragglers are force-closed with typed \
     $(b,drain-expired) responses. 0 forces immediately."
  in
  Arg.(value & opt float 30. & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)

let brownout_saturation_arg =
  let doc =
    "Queue-saturation fraction that walks the brownout ladder up one rung (recovery at \
     saturation/p99 back below the low-water marks). Rung 1 only warns, rung 2 halves \
     the epoch fill, rung 3 sheds low-priority and over-share submits with typed \
     $(b,overloaded) responses."
  in
  Arg.(value & opt float 0.85 & info [ "brownout-saturation" ] ~docv:"FRACTION" ~doc)

let brownout_p99_arg =
  let doc =
    "Sliding-window e2e p99 latency (seconds) that walks the brownout ladder up; 0 \
     disables the latency signal (saturation only)."
  in
  Arg.(value & opt float 0. & info [ "brownout-p99" ] ~docv:"SECONDS" ~doc)

(* Observability flags. *)

let window_seconds_arg =
  let doc = "Sliding-window span in seconds for the live *.window.* gauges." in
  Arg.(value & opt float 60. & info [ "window-seconds" ] ~docv:"S" ~doc)

let slo_arg =
  let doc =
    "Track an SLO (repeatable): $(b,name=api;latency=0.25;target=0.95) for a latency \
     objective, omit $(b,latency=) for a success-ratio objective; optional $(b,fast=), \
     $(b,slow=) (window seconds), $(b,fast-burn=), $(b,slow-burn=) override the burn-rate \
     alerting defaults. Burn status feeds $(b,GET health), $(b,GET slo) and the \
     $(b,obs.slo.*) gauges."
  in
  Arg.(value & opt_all Stratrec_conv.slo [] & info [ "slo" ] ~docv:"SPEC" ~doc)

let slo_file_arg =
  let doc =
    "Load SLO specs from $(docv): one spec per line, blank lines and $(b,#) comments \
     ignored; combines with $(b,--slo)."
  in
  Arg.(value & opt (some file) None & info [ "slo-file" ] ~docv:"FILE" ~doc)

let tenant_windows_arg =
  let doc =
    "Cap on distinct per-tenant sliding-window families \
     ($(b,serve.*{tenant=...})); tenants beyond the cap share the $(b,other) \
     overflow bucket."
  in
  Arg.(value & opt int 8 & info [ "tenant-windows" ] ~docv:"N" ~doc)

let flight_dir_arg =
  let doc =
    "Enable the anomaly flight recorder: dump the per-epoch observation ring as \
     $(b,flight-NNNN.jsonl) under $(docv) on health degradation, SLO burn trips and \
     the explicit $(b,dump) verb."
  in
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)

let flight_slots_arg =
  let doc = "Flight-recorder ring size (per-epoch records kept before eviction)." in
  Arg.(value & opt int 16 & info [ "flight-slots" ] ~docv:"N" ~doc)

(* Transport flags. *)

let socket_arg =
  let doc = "Serve (or with $(b,--connect), dial) a Unix domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Serve (or dial) TCP on $(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "TCP bind/connect address for $(b,--port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let stdio_arg =
  let doc = "Serve the protocol on stdin/stdout (tests, pipelines)." in
  Arg.(value & flag & info [ "stdio" ] ~doc)

let connect_arg =
  let doc =
    "Client mode: connect to a running daemon, pump stdin lines to it and stream \
     responses to stdout until the server closes."
  in
  Arg.(value & flag & info [ "connect" ] ~doc)

let load_slo_file = function
  | None -> Ok []
  | Some path -> (
      match In_channel.with_open_text path In_channel.input_lines with
      | exception Sys_error m -> Error (`Msg m)
      | lines ->
          let rec go acc lineno = function
            | [] -> Ok (List.rev acc)
            | line :: rest ->
                let line = String.trim line in
                if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
                else (
                  match Stratrec_obs.Slo.spec_of_string line with
                  | Ok spec -> go (spec :: acc) (lineno + 1) rest
                  | Error m -> Error (`Msg (Printf.sprintf "%s:%d: %s" path lineno m)))
          in
          go [] 1 lines)

let transport ~socket ~port ~host =
  match (socket, port) with
  | Some path, None -> Ok (Serve.Server.Unix_socket path)
  | None, Some port -> Ok (Serve.Server.Tcp (host, port))
  | Some _, Some _ -> Error (`Msg "--socket and --port are mutually exclusive")
  | None, None -> Error (`Msg "pick a transport: --socket PATH, --port P or --stdio")

let main seed n dist catalog w objective domains cache deploy faults retries population capacity
    window queue_capacity epoch_requests max_line quotas drain_timeout brownout_saturation
    brownout_p99 window_seconds slos slo_file tenant_windows flight_dir flight_slots socket
    port host stdio connect =
  if connect then
    let* transport = transport ~socket ~port ~host in
    Result.map_error (fun m -> `Msg m) (Serve.Server.client transport stdin stdout)
  else
    let rng = Rng.create seed in
    let* strategies = Stratrec_conv.catalog_or_generate ~rng ~n ~dist catalog in
    let deploy =
      Stratrec_conv.deploy_config ~rng ~deploy ~faults ~retries ~population ~capacity ~window
    in
    let* file_slos = load_slo_file slo_file in
    let engine =
      Engine.(
        with_cache
          (with_objective
             (with_domains (with_deploy default_config deploy) domains)
             objective)
          cache)
    in
    (* Recovery low-water marks are derived, not flags: 60% of the
       escalation threshold (50% for the latency signal) gives the
       hysteresis gap that keeps the ladder from oscillating. *)
    let brownout =
      {
        Resilience.Brownout.saturation_high = brownout_saturation;
        saturation_low = brownout_saturation *. 0.6;
        p99_high = brownout_p99;
        p99_low = brownout_p99 *. 0.5;
      }
    in
    let config =
      {
        Serve.Daemon.engine;
        queue_capacity;
        epoch_requests;
        max_line;
        window_seconds;
        slos = slos @ file_slos;
        quotas;
        brownout;
        drain_timeout_seconds = drain_timeout;
        tenant_windows;
        flight_dir;
        flight_slots;
      }
    in
    let* daemon =
      Result.map_error Stratrec_conv.engine_msg
        (Serve.Daemon.create ~rng ~config
           ~availability:(Model.Availability.certain w)
           ~strategies ())
    in
    if stdio then Ok (Serve.Server.run_stdio ~daemon stdin stdout)
    else
      let* transport = transport ~socket ~port ~host in
      Result.map_error (fun m -> `Msg m) (Serve.Server.serve ~daemon transport)

let cmd =
  let doc = "Long-running StratRec recommendation daemon with admission control" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts deployment requests as newline-delimited JSON, queues them through a \
         bounded multi-tenant admission controller, and triages micro-batch epochs \
         through the StratRec engine. Per-epoch decisions are bit-identical to the \
         one-shot $(b,stratrec recommend) pipeline on the same batch.";
      `S "PROTOCOL";
      `P "One command per line:";
      `Pre
        "  {\"op\":\"submit\",\"id\":1,\"params\":\"0.9,0.2,0.3\",\"k\":2,\n\
        \   \"tenant\":\"acme\",\"deadline_hours\":24}\n\
         \  {\"op\":\"flush\"}     close the epoch now\n\
         \  {\"op\":\"ping\"}      liveness\n\
         \  {\"op\":\"tick\",\"hours\":2}   advance the simulated clock\n\
         \  {\"op\":\"drain\"}     answer or expire everything, refuse new work\n\
         \  {\"op\":\"shutdown\"}  drain, answer everything, stop\n\
         \  {\"op\":\"dump\"}      write the flight-recorder ring now\n\
         \  GET metrics        OpenMetrics scrape of the live registry\n\
         \  GET health         readiness rubric (ready/degraded/unhealthy)\n\
         \  GET health?tenant=acme   the same, scoped to one tenant\n\
         \  GET slo            per-SLO burn-rate status\n\
         \  GET slo?tenant=acme      only that tenant's trackers";
    ]
  in
  Cmd.v
    (Cmd.info "stratrec-serve" ~doc ~man)
    Term.(term_result
            (const main $ seed_arg $ Stratrec_conv.strategies_arg $ dist_arg $ catalog_arg
             $ workforce_arg $ Stratrec_conv.objective_arg $ domains_arg $ cache_arg
             $ deploy_arg $ faults_arg $ retries_arg $ Stratrec_conv.population_arg
             $ Stratrec_conv.capacity_arg $ Stratrec_conv.window_arg
             $ queue_capacity_arg $ epoch_requests_arg $ max_line_arg $ quota_arg
             $ drain_timeout_arg $ brownout_saturation_arg $ brownout_p99_arg
             $ window_seconds_arg $ slo_arg $ slo_file_arg $ tenant_windows_arg
             $ flight_dir_arg $ flight_slots_arg $ socket_arg $ port_arg
             $ host_arg $ stdio_arg $ connect_arg))

let () = exit (Cmd.eval cmd)
