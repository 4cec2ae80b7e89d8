(* stratbench: the StratRec serving benchmark.

   stratbench --workload adpar-cold|batch-fit|zipf-hot --seed N
              --seconds S --trace 0|1 [--server EXE] [--dir DIR]

   Writes a catalog from the seed, starts the real stratrec-serve on a
   Unix socket (several times, to time set-up), drives the workload's
   closed loop for S seconds, checks every answer against Engine.run, and
   prints one JSON object as its last line: the end-to-end metrics with
   --trace 0, the per-layer metrics of the traced in-process run with
   --trace 1. Exits 1 when a check fails. *)

let setup_spawns = 21

let usage () =
  prerr_endline
    "usage: stratbench --workload adpar-cold|batch-fit|zipf-hot --seed N --seconds S --trace 0|1 \
     [--server EXE] [--dir DIR]";
  exit 2

let args () =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get ?default key =
    match (List.assoc_opt key kv, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()
  in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload = match Gen.of_name (get "workload") with Some w -> w | None -> usage () in
  ( workload,
    int "seed",
    float_of_int (int "seconds"),
    int "trace" = 1,
    get ~default:".bench_build/default/bin/stratrec_serve.exe" "server",
    get ~default:".bench_run" "dir" )

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if Float.is_finite value then
      Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit
    else Client.fail "metric %s is not finite" name
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric metrics));
  print_newline ()

type socket_phase = {
  attempted : int;
  failed : int;
  correct : bool;
  end_to_end : (string * float * string) list;
  outside_server_us : float;
  client_cpu_us : float;
  generator_bound : bool;
  major_collections_per_kreq : float;
}

(* Set-up timing, warm-up, the timed closed loop, shutdown and the
   output check against Engine.run. *)
let socket_phase w ~seed ~seconds ~exe ~path ~catalog ~strategies =
  (* Each spawn's set-up time is scaled by the host's slowdown measured
     just before it (see Load.reference_seconds). *)
  let start i =
    let slowdown = Load.host_slowdown () in
    let s =
      Client.start ~exe ~catalog
        ~socket:(path (Printf.sprintf "s%d.sock" i))
        ~stderr_path:(path (Printf.sprintf "server-%d.err" i))
    in
    (s, s.Client.setup_seconds /. slowdown)
  in
  (* Set-up is timed on throw-away servers, half before the measured one
     starts and half after it stops, so the median spans the run. *)
  let probe first count =
    List.init count (fun i ->
        let s, setup = start (first + i) in
        ignore (Client.stop s : (string * float) list);
        setup)
  in
  let before = probe 0 (setup_spawns / 2) in
  let server, server_setup = start setup_spawns in
  let run =
    {
      Load.conn = server.Client.conn;
      responses = Hashtbl.create 65536;
      batches = [];
      submits = 0;
      scrapes = w = Gen.Zipf_hot;
    }
  in
  let stream = Gen.stream ~seed w in
  let warm = Load.warmup run stream ~requests:(Gen.warmup_requests w) in
  let client0 = Unix.times () in
  let p, chunks =
    Load.timed run stream ~seconds ~cpu:(fun () -> Client.cpu_seconds server.Client.pid)
  in
  let client1 = Unix.times () in
  Load.final_health run;
  let rss_kb = Client.status_kb server.Client.pid "VmHWM" in
  let answered = float_of_int (Hashtbl.length run.Load.responses) in
  let exit_stats = Client.stop server in
  let after = probe (setup_spawns / 2) (setup_spawns - (setup_spawns / 2)) in
  let setup_s = Load.median (server_setup :: (before @ after)) in
  let check_started = Unix.gettimeofday () in
  let checked, mismatch =
    Check.verify ~strategies ~batches:(List.rev run.Load.batches) ~responses:run.Load.responses
  in
  Option.iter (Printf.eprintf "stratbench: output check failed: %s\n") mismatch;
  Printf.printf "output check: %d completed responses match Engine.run (%.1f s)\n" checked
    (Unix.gettimeofday () -. check_started);
  let raw = Load.figures p chunks ~scale:(fun _ -> 1.) in
  let scaled = Load.figures p chunks ~scale:(fun c -> c.Load.slowdown) in
  if scaled.Load.samples < 1000 then
    Printf.eprintf "stratbench: only %d latency samples; p99 needs at least 1000\n"
      scaled.Load.samples;
  let completed = float_of_int p.Load.completed in
  let server_cpu_us = raw.Load.server_cpu_per_req *. 1e6 in
  let client_cpu_us =
    Unix.(client1.tms_utime +. client1.tms_stime -. client0.tms_utime -. client0.tms_stime)
    *. 1e6 /. completed
  in
  (* In the closed loop client and server take turns; when the client's
     share of each turn is the larger one, the rate measures the
     generator, not the server. *)
  let generator_bound = client_cpu_us >= server_cpu_us in
  if generator_bound then
    Printf.eprintf
      "stratbench: generator-bound: client %.1f us/req of CPU >= server %.1f us/req\n"
      client_cpu_us server_cpu_us;
  let slowdowns = List.map (fun c -> c.Load.slowdown) chunks in
  Printf.printf "%s: %d requests in %d chunks; host slowdown median %.2f (min %.2f, max %.2f)\n"
    (Gen.name w) p.Load.completed (List.length chunks) (Load.median slowdowns)
    (List.fold_left Float.min Float.infinity slowdowns)
    (List.fold_left Float.max 0. slowdowns);
  let show label f =
    Printf.printf
      "  %-7s %8.0f req/s  p50 %7.3f ms  p99 %7.3f ms (%d samples)  server %7.1f us/req of CPU\n"
      label f.Load.req_per_s (f.Load.p50 *. 1e3) (f.Load.p99 *. 1e3) f.Load.samples
      (f.Load.server_cpu_per_req *. 1e6)
  in
  show "raw" raw;
  show "scaled" scaled;
  Printf.printf "  setup_s %.5f (median of %d spawns, scaled)\n" setup_s (setup_spawns + 1);
  {
    attempted = p.Load.sent;
    failed = p.Load.failed;
    correct = mismatch = None && p.Load.failed + warm.Load.failed = 0;
    end_to_end =
      [
        ("setup_s", setup_s, "s");
        ("req_per_s", scaled.Load.req_per_s, "1/s");
        ("e2e_p50_ms", scaled.Load.p50 *. 1e3, "ms");
        ("e2e_p99_ms", scaled.Load.p99 *. 1e3, "ms");
        ("completed_ratio", completed /. float_of_int p.Load.sent, "ratio");
        ("server_cpu_us_per_req", scaled.Load.server_cpu_per_req *. 1e6, "us");
        ( "server_alloc_words_per_req",
          Client.stat exit_stats "allocated_words" /. answered,
          "words" );
        ("server_peak_rss_mb", rss_kb /. 1024., "MB");
      ];
    outside_server_us = p.Load.outside_server *. 1e6 /. completed;
    client_cpu_us;
    generator_bound;
    major_collections_per_kreq = Client.stat exit_stats "major_collections" *. 1000. /. answered;
  }

let main () =
  let w, seed, seconds, trace, exe, dir = args () in
  if not (Sys.file_exists exe) then Client.fail "server binary %s not built" exe;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tag = Printf.sprintf "%s-%d" (Gen.name w) seed in
  let path name = Filename.concat dir name in
  let catalog = path ("catalog-" ^ Gen.name w ^ ".json") in
  Gen.write_catalog ~path:catalog (Gen.catalog w);
  (* The in-process check and traced run read the catalog back exactly
     as the server does. *)
  let strategies = Layers.ok "load_catalog" (Stratrec.Engine.load_catalog ~path:catalog) in
  let s = socket_phase w ~seed ~seconds ~exe ~path ~catalog ~strategies in
  let metrics =
    if trace then begin
      (* Drop the socket phase's response store before the in-process
         passes, so their GC works on a heap of their own size. *)
      Gc.compact ();
      Layers.run w ~seed ~strategies ~trace_path:(path ("trace-" ^ tag ^ ".json"))
      @ [
          ("server.transport_us_per_req", s.outside_server_us, "us");
          ("gc.major_collections_per_kreq", s.major_collections_per_kreq, "count");
          ("bench.client_cpu_us_per_req", s.client_cpu_us, "us");
          ("bench.generator_bound", (if s.generator_bound then 1. else 0.), "flag");
        ]
    end
    else s.end_to_end
  in
  print_result ~correct:s.correct ~attempted:s.attempted ~failed:s.failed metrics;
  if not s.correct then exit 1

let () =
  try main () with
  | Client.Failed m ->
      Printf.eprintf "stratbench: %s\n" m;
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "stratbench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
