(* The traced in-process run: the workload's own inputs fed through each
   layer's public functions, with spans recorded around the calls by this
   file (none inside the program). Passes, each over the same units of
   traffic and each with its own state:

   - daemon / daemon-traced: Daemon.handle_line on every line plus
     Protocol.render on every response, configured like stratrec-serve;
     the first untraced, the second with spans. Their wall-time ratio is
     the tracing overhead.
   - replica: Protocol.parse, Admission.offer/drain and Engine.submit on
     a session configured like the daemon's, the path handle_line takes.
   - uncached / noop: Engine.submit without the triage cache, with the
     live registry, and with Registry.noop + Trace.noop. Their ratio is
     the cost of live observability. (With the cache on, a miss records
     its capture at full observability whatever the session registry,
     so only uncached runs isolate it.)
   - triage: Workforce.compute, Batchstrat.run and Adpar.exact on every
     request BatchStrat leaves unsatisfied, called directly.

   Passes take turns every few units, in rotating order, so machine noise
   lands on all of them alike while each turn still runs with warm caches,
   as the server does. Spans of one unit share its batch index. *)

module Engine = Stratrec.Engine
module Obs = Stratrec_obs
module Serve = Stratrec_serve
module Model = Stratrec_model
module Request = Stratrec.Request

let fail = Client.fail

(* What stratrec-serve builds from its default flags. *)
let daemon_config =
  {
    Serve.Daemon.default_config with
    engine = Engine.with_cache Engine.default_config (Some Stratrec.Triage_cache.default_config);
    brownout = { Stratrec_resilience.Brownout.default with saturation_low = 0.85 *. 0.6 };
  }

let availability = Model.Availability.certain Gen.availability

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Engine.error_message e)

let session ~metrics ?trace ~cache strategies =
  let config = Engine.with_metrics daemon_config.Serve.Daemon.engine metrics in
  let config = if cache then config else Engine.with_cache config None in
  let config = match trace with None -> config | Some t -> Engine.with_trace config t in
  ok "Engine.create" (Engine.create ~config ~availability ~strategies ())

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* One epoch's submit lines, plus the two scrape lines zipf-hot sends
   after every 64 submits, exactly as the socket phase sends them. *)
type traffic = { lines : string array; requests : Request.t list }

let traffic w stream count =
  List.init count (fun i ->
      let submits = Gen.next_batch stream in
      let scrapes = w = Gen.Zipf_hot && (i + 1) * Gen.batch mod Gen.scrape_every = 0 in
      {
        lines =
          (if scrapes then Array.append submits [| "GET metrics"; "GET health" |] else submits);
        requests = Array.to_list (Array.map Check.request submits);
      })

(* Requests measured per workload: enough for stable per-layer means
   while the traced run stays within seconds. *)
let measured_requests = function
  | Gen.Adpar_cold -> 512
  | Gen.Batch_fit -> 1024
  | Gen.Zipf_hot -> 4096

(* Units per turn of the pass rotation. *)
let units_per_turn = 8

let daemon_pass t d u =
  Array.iter
    (fun line ->
      if line = "GET metrics" then
        t.span "obs.scrape" (fun () ->
            ignore (Obs.Snapshot.to_openmetrics (Serve.Daemon.metrics d)));
      let responses, _ =
        t.span "daemon.handle_line" (fun () -> Serve.Daemon.handle_line d ~client:0 line)
      in
      List.iter
        (fun (_, r) -> ignore (t.span "protocol.render" (fun () -> Serve.Protocol.render r)))
        responses)
    u.lines

let replica_pass t session queue u =
  Array.iter
    (fun line ->
      match t.span "protocol.parse" (fun () -> Serve.Protocol.parse line) with
      | Ok (Serve.Protocol.Submit r) ->
          (match
             t.span "admission.offer" (fun () ->
                 Serve.Admission.offer queue ~now:(Unix.gettimeofday ())
                   ~tenant:(Request.tenant r) r)
           with
          | Ok () -> ()
          | Error _ -> fail "admission refused a request");
          if Serve.Admission.length queue >= Gen.batch then begin
            let admitted, _ =
              t.span "admission.drain" (fun () ->
                  Serve.Admission.drain queue ~now:(Unix.gettimeofday ()) ~max:Gen.batch)
            in
            let batch = List.map (fun a -> a.Serve.Admission.item) admitted in
            ignore
              (ok "Engine.submit"
                 (t.span "engine.submit" (fun () -> Engine.submit session batch)))
          end
      | Ok _ -> ()
      | Error e -> fail "Protocol.parse: %s" e)
    u.lines

type counts = {
  mutable feasible_cells : int;
  mutable satisfied : int;
  mutable adpar_calls : int;
}

let triage_pass t ~strategies counts u =
  t.span "bench.triage" (fun () ->
      let requests = Array.of_list (List.map Request.deployment u.requests) in
      let matrix =
        t.span "workforce.compute" (fun () -> Model.Workforce.compute ~requests ~strategies ())
      in
      let outcome =
        t.span "batchstrat.run" (fun () ->
            Stratrec.Batchstrat.run ~objective:Stratrec.Objective.Throughput
              ~aggregation:Model.Workforce.Max_case ~available:Gen.availability matrix)
      in
      List.iter
        (fun i ->
          ignore (t.span "adpar.exact" (fun () -> Stratrec.Adpar.exact ~strategies requests.(i))))
        outcome.Stratrec.Batchstrat.unsatisfied;
      Array.iteri
        (fun i _ ->
          counts.feasible_cells <- counts.feasible_cells + Model.Workforce.feasible_count matrix i)
        requests;
      counts.satisfied <- counts.satisfied + Stratrec.Batchstrat.satisfied_count outcome;
      counts.adpar_calls <-
        counts.adpar_calls + List.length outcome.Stratrec.Batchstrat.unsatisfied)

let timed_into acc f u =
  let t0 = Unix.gettimeofday () in
  f u;
  acc := !acc +. (Unix.gettimeofday () -. t0)

let counter session name = Obs.Snapshot.counter_value (Engine.session_metrics session) name

(* Runs the traced pass and returns the per-layer metrics as
   (name, value, unit). *)
let run w ~seed ~strategies ~trace_path =
  let stream = Gen.stream ~seed w in
  let warm = traffic w stream (Gen.warmup_requests w / Gen.batch) in
  let measured = traffic w stream (measured_requests w / Gen.batch) in
  let requests = float_of_int (measured_requests w) in
  let store = Spans.create () in
  let traced = { span = (fun name f -> Spans.span store name f) } in
  let daemon () =
    ok "Daemon.create" (Serve.Daemon.create ~config:daemon_config ~availability ~strategies ())
  in
  let d_plain = daemon () and d_traced = daemon () in
  let live () = Obs.Registry.create ~clock:Obs.Registry.wall_clock () in
  let replica = session ~metrics:(live ()) ~cache:true strategies in
  let queue = Serve.Admission.create ~capacity:daemon_config.Serve.Daemon.queue_capacity () in
  let noop = session ~metrics:Obs.Registry.noop ~trace:Obs.Trace.noop ~cache:false strategies in
  let uncached = session ~metrics:(live ()) ~cache:false strategies in
  let instantiated =
    Array.map (fun s -> Model.Strategy.instantiate s ~availability:Gen.availability) strategies
  in
  let submit name s t u = ignore (ok name (t.span name (fun () -> Engine.submit s u.requests))) in
  (* Warm-up, untraced: fills the triage caches and the session trace
     buffers so the measured units see the steady state. The uncached
     session only needs its trace buffer full. *)
  List.iter
    (fun u ->
      daemon_pass untraced d_plain u;
      daemon_pass untraced d_traced u;
      replica_pass untraced replica queue u)
    warm;
  List.iteri
    (fun i u -> if i >= List.length warm - 128 then submit "uncached" uncached untraced u)
    warm;
  let stats () =
    match Engine.cache_stats replica with
    | Some s -> s
    | None -> fail "replica session runs uncached"
  in
  let cache0 = stats () in
  let calls0 = counter uncached "adpar.calls_total"
  and sweep0 = counter uncached "adpar.sweep_events_total" in
  let counts = { feasible_cells = 0; satisfied = 0; adpar_calls = 0 } in
  let plain_s = ref 0. and traced_s = ref 0. in
  let plain = timed_into plain_s (daemon_pass untraced d_plain)
  and traced_daemon = timed_into traced_s (daemon_pass traced d_traced) in
  (* The add-up compares handle_line with the replica's parts, and the
     overhead ratio the two daemon passes: these three run back to back
     on each unit, in rotating order, so they see the same machine. *)
  let paired = [| plain; traced_daemon; replica_pass traced replica queue |] in
  let passes =
    [|
      (fun b u -> Array.iteri (fun j _ -> paired.((b + j) mod 3) u) paired);
      (fun _ -> submit "engine.submit_noop" noop traced);
      (fun _ -> submit "engine.submit_uncached" uncached traced);
      (fun _ -> triage_pass traced ~strategies:instantiated counts);
    |]
  in
  let n = Array.length passes in
  let turns = List.length measured / units_per_turn in
  for turn = 0 to turns - 1 do
    let units = List.filteri (fun i _ -> i / units_per_turn = turn) measured in
    for j = 0 to n - 1 do
      List.iteri
        (fun i u ->
          let b = (turn * units_per_turn) + i in
          Spans.set_batch store b;
          passes.((turn + j) mod n) b u)
        units
    done
  done;
  let scrapes_in_flow = (Spans.totals store) "obs.scrape" in
  if scrapes_in_flow.Spans.calls = 0 then
    for _ = 1 to 16 do
      traced.span "obs.scrape" (fun () ->
          ignore (Obs.Snapshot.to_openmetrics (Serve.Daemon.metrics d_traced)))
    done;
  let cache1 = stats () in
  let calls = counter uncached "adpar.calls_total" - calls0
  and sweeps = counter uncached "adpar.sweep_events_total" - sweep0 in
  Spans.write_chrome store ~path:trace_path;
  let total = Spans.totals store in
  let us name = (total name).Spans.self_seconds *. 1e6 in
  let per_req name = us name /. requests in
  let per_call name =
    let t = total name in
    if t.Spans.calls = 0 then 0. else t.Spans.self_seconds *. 1e6 /. float_of_int t.Spans.calls
  in
  let words name = (total name).Spans.words in
  let ratio a b = if b = 0. then 0. else a /. b in
  let handle_line = per_req "daemon.handle_line" in
  let parts =
    [
      ("protocol.parse", per_req "protocol.parse");
      ("admission.offer", per_req "admission.offer");
      ("admission.drain", per_req "admission.drain");
      ("engine.submit", per_req "engine.submit");
      ("obs.scrape", scrapes_in_flow.Spans.self_seconds *. 1e6 /. requests);
    ]
  in
  let glue = handle_line -. List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
  Printf.printf "per-layer self time, %s (us per request, %d requests):\n" (Gen.name w)
    (int_of_float requests);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-22s %10.2f  %5.1f%%\n" name v (100. *. ratio v handle_line))
    (parts @ [ ("daemon.glue", glue) ]);
  Printf.printf "  %-22s %10.2f  100.0%%\n" "= daemon.handle_line" handle_line;
  (* The parts come from another pass than handle_line, so the remainder
     carries pass-to-pass noise; beyond 2% of handle_line a negative
     remainder means time was counted twice. *)
  if glue < -0.02 *. handle_line then
    fail "per-layer self times exceed daemon.handle_line by %.2f us/request: time counted twice"
      (-.glue);
  let hits = cache1.Stratrec.Triage_cache.hits - cache0.Stratrec.Triage_cache.hits
  and misses = cache1.Stratrec.Triage_cache.misses - cache0.Stratrec.Triage_cache.misses
  and evictions = cache1.Stratrec.Triage_cache.evictions - cache0.Stratrec.Triage_cache.evictions in
  let submit_us = per_req "engine.submit"
  and uncached_us = per_req "engine.submit_uncached"
  and noop_us = per_req "engine.submit_noop" in
  let trace_overhead = ratio !traced_s !plain_s in
  Printf.printf "  bench.trace_overhead_ratio %.3f (traced daemon pass / untraced)\n"
    trace_overhead;
  let f = float_of_int in
  [
    ("protocol.parse_us", per_call "protocol.parse", "us");
    ("protocol.render_us", per_call "protocol.render", "us");
    ( "protocol.words_per_req",
      (words "protocol.parse" +. words "protocol.render") /. requests,
      "words" );
    ("admission.offer_us", per_req "admission.offer", "us");
    ("admission.drain_us", per_req "admission.drain", "us");
    ("daemon.handle_line_us", handle_line, "us");
    ("daemon.glue_us", glue, "us");
    ("engine.submit_us", submit_us, "us");
    ("engine.submit_noop_us", noop_us, "us");
    ("engine.obs_overhead_ratio", ratio uncached_us noop_us, "ratio");
    ("engine.words_per_req", words "engine.submit" /. requests, "words");
    ("engine.submit_uncached_us", uncached_us, "us");
    ("triage_cache.hit_ratio", ratio (f hits) (f (hits + misses)), "ratio");
    ("triage_cache.evictions_per_kreq", f evictions *. 1000. /. requests, "count");
    ("workforce.compute_us", per_req "workforce.compute", "us");
    ("workforce.feasible_cells_per_req", f counts.feasible_cells /. requests, "count");
    ("batchstrat.run_us", per_req "batchstrat.run", "us");
    ("batchstrat.satisfied_ratio", f counts.satisfied /. requests, "ratio");
    ("adpar.exact_us", per_call "adpar.exact", "us");
    ("adpar.words_per_call", ratio (words "adpar.exact") (f counts.adpar_calls), "words");
    ("adpar.calls_per_req", f calls /. requests, "count");
    ("adpar.sweep_events_per_call", ratio (f sweeps) (f calls), "count");
    ("obs.scrape_us", per_call "obs.scrape", "us");
    ("obs.series_count", f (List.length (Serve.Daemon.metrics d_traced)), "count");
    ("bench.trace_overhead_ratio", trace_overhead, "ratio");
  ]
