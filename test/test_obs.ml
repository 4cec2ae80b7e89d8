(* Telemetry subsystem: instrument semantics, span timing against an
   injected clock, snapshot determinism and the Engine façade's
   metrics-report agreement. *)

module Obs = Stratrec_obs
module Registry = Obs.Registry
module Snapshot = Obs.Snapshot
module Span = Obs.Span
module Trace = Obs.Trace
module Json = Stratrec_util.Json
module Model = Stratrec_model
module Engine = Stratrec.Engine
module Sim = Stratrec_crowdsim
module Resilience = Stratrec_resilience

(* Instruments *)

let test_counter_semantics () =
  let reg = Registry.create () in
  let c = Registry.counter reg "requests_total" in
  let value () = Snapshot.counter_value (Registry.snapshot reg) "requests_total" in
  Alcotest.(check int) "starts absent" 0 (value ());
  Registry.incr c;
  Registry.incr_by c 4;
  Alcotest.(check int) "accumulates" 5 (value ());
  Registry.incr_by c 0;
  Alcotest.(check int) "zero incr is a no-op on the value" 5 (value ());
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Stratrec_obs.Registry.incr_by: negative increment") (fun () ->
      Registry.incr_by c (-1))

let test_zero_incr_registers () =
  let reg = Registry.create () in
  let c = Registry.counter reg "touched_total" in
  ignore (Registry.gauge reg "untouched");
  Alcotest.(check int) "handles alone add no series" 0
    (List.length (Registry.snapshot reg));
  Registry.incr_by c 0;
  Alcotest.(check int) "appears in the snapshot at 0" 0
    (Snapshot.counter_value (Registry.snapshot reg) "touched_total");
  Alcotest.(check bool) "present" true
    (Snapshot.find (Registry.snapshot reg) "touched_total" <> None)

let test_gauge_semantics () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "workforce" in
  let value () = Snapshot.gauge_value (Registry.snapshot reg) "workforce" in
  Registry.set g 0.75;
  Alcotest.(check (float 0.)) "set" 0.75 (value ());
  Registry.add g 0.15;
  Alcotest.(check (float 1e-12)) "add accumulates" 0.9 (value ());
  Registry.set g 0.1;
  Alcotest.(check (float 0.)) "set overwrites" 0.1 (value ())

(* A handle's kept cell is the series itself: handles resolved before
   another handle's write, resolved after it, or created after it all
   reach one series. *)
let test_handle_cells_shared () =
  let reg = Registry.create () in
  let resolved = Registry.counter reg "jobs_total" in
  Registry.incr resolved;
  let unresolved = Registry.counter reg "jobs_total" in
  let level = Registry.gauge reg "level" in
  Registry.add level 1.;
  Registry.incr_by (Registry.counter reg "jobs_total") 10;
  Registry.set (Registry.gauge reg "level") 5.;
  let late = Registry.counter reg "jobs_total" in
  Registry.incr resolved;
  Registry.incr_by unresolved 100;
  Registry.incr_by late 1000;
  Registry.add level 0.5;
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "one series" 1112 (Snapshot.counter_value snap "jobs_total");
  Alcotest.(check (float 0.)) "gauge handle sees another handle's write" 5.5
    (Snapshot.gauge_value snap "level");
  Alcotest.(check int) "no duplicate series" 2 (List.length snap)

let test_histogram_buckets () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.; 2.; 4. |] reg "latency" in
  List.iter (Registry.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "count" 5 (Snapshot.histogram_count snap "latency");
  Alcotest.(check (float 1e-9)) "sum" 106.0 (Snapshot.histogram_sum snap "latency");
  match Snapshot.find snap "latency" with
  | Some (Snapshot.Histogram { buckets; min; max; _ }) ->
      Alcotest.(check (list (pair (float 0.) int)))
        "per-bucket counts with +inf overflow"
        [ (1., 2); (2., 1); (4., 1); (infinity, 1) ]
        buckets;
      Alcotest.(check (float 0.)) "min" 0.5 min;
      Alcotest.(check (float 0.)) "max" 100.0 max
  | _ -> Alcotest.fail "latency histogram missing"

let test_histogram_validation () =
  let reg = Registry.create () in
  Alcotest.check_raises "empty layout"
    (Invalid_argument "Stratrec_obs.Registry.histogram: empty bucket layout") (fun () ->
      ignore (Registry.histogram ~buckets:[||] reg "h"));
  Alcotest.check_raises "unsorted layout"
    (Invalid_argument "Stratrec_obs.Registry.histogram: bucket bounds must ascend")
    (fun () -> ignore (Registry.histogram ~buckets:[| 2.; 1. |] reg "h"))

let test_kind_mismatch () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg "x");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument "Stratrec_obs.Registry: x already registered as a counter")
    (fun () -> Registry.set (Registry.gauge reg "x") 1.)

let test_noop_registry () =
  let c = Registry.counter Registry.noop "n" in
  Registry.incr c;
  Registry.incr_by c 2;
  let g = Registry.gauge Registry.noop "g" in
  Registry.set g 1.;
  Registry.add g 1.;
  Registry.observe (Registry.histogram Registry.noop "h_seconds") 1.;
  Alcotest.(check int) "noop counter stays 0" 0
    (Snapshot.counter_value (Registry.snapshot Registry.noop) "n");
  Alcotest.(check bool) "noop disabled" false (Registry.enabled Registry.noop);
  Alcotest.(check int) "noop snapshot empty" 0
    (List.length (Registry.snapshot Registry.noop));
  let span = Span.start Registry.noop "s" in
  Alcotest.(check (float 0.)) "noop span elapses nothing" 0. (Span.finish span)

let test_disabled_span_skips_clock_and_sink () =
  let clock_calls = ref 0 in
  let reg =
    Registry.disabled
      ~clock:(fun () ->
        incr clock_calls;
        42.)
      ()
  in
  let span = Span.start reg "skipped_seconds" in
  Alcotest.(check (float 0.)) "zero elapsed" 0. (Span.finish span);
  Span.time reg "also_skipped_seconds" ignore;
  Alcotest.(check int) "the clock is never read" 0 !clock_calls;
  Alcotest.(check int) "nothing is recorded" 0 (List.length (Registry.snapshot reg))

(* The registry against the lookups it replaced (test/registry_ref.ml):
   random sequences of lookups (repeated and fresh names, with and
   without labels, default, fraction, conflicting and invalid bucket
   layouts, kind clashes) and updates, through fresh handles and kept
   ones, raise the same [Invalid_argument] messages and leave the same
   snapshot. Both registries are live: a disabled one keeps no table, so
   it checks no kind. *)

type registry_handle =
  | Counter_pair of Registry.counter * Registry_ref.counter
  | Gauge_pair of Registry.gauge * Registry_ref.gauge
  | Histogram_pair of Registry.histogram * Registry_ref.histogram

type instrument_kind = Counter_kind | Gauge_kind | Histogram_kind

type registry_op =
  | Lookup of {
      kind : instrument_kind;
      name : string;
      labels : (string * string) list;
      layout : int;
      update : (int * float) option;
    }
  | Update of { slot : int; by : int; value : float }

let layouts =
  [|
    ("default", None);
    ("duration", Some Registry.duration_buckets);
    ("fraction", Some Registry.fraction_buckets);
    ("conflicting", Some [| 1.; 2.; 4. |]);
    ("unsorted", Some [| 2.; 1. |]);
    ("empty", Some [||]);
    ("non-finite", Some [| 0.5; infinity |]);
  |]

let show_registry_op = function
  | Lookup { kind; name; labels; layout; update } ->
      Printf.sprintf "%s %S [%s] %s%s"
        (match kind with
        | Counter_kind -> "counter"
        | Gauge_kind -> "gauge"
        | Histogram_kind -> "histogram")
        name
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
        (fst layouts.(layout))
        (match update with
        | None -> ""
        | Some (by, value) -> Printf.sprintf " then %d/%g" by value)
  | Update { slot; by; value } -> Printf.sprintf "kept #%d %d/%g" slot by value

let registry_op_gen =
  let open QCheck.Gen in
  let name =
    frequency
      [
        (4, oneofl [ "a_total"; "b"; "c_seconds"; "obs.bucket_layout_conflicts_total" ]);
        (1, map (Printf.sprintf "fresh_%d") (int_bound 1_000_000));
      ]
  in
  let labels =
    frequency
      [
        (5, return []);
        ( 3,
          oneofl
            [ [ ("k", "v1") ]; [ ("k", "v2") ]; [ ("b", "x"); ("a", "y") ]; [ ("a", "y"); ("b", "x") ] ]
        );
        (1, oneofl [ [ ("le", "1") ]; [ ("1bad", "x") ]; [ ("k", "1"); ("k", "2") ] ]);
      ]
  in
  let layout =
    frequency [ (5, return 0); (1, return 1); (2, return 2); (2, return 3); (1, int_range 4 6) ]
  in
  let by_value = pair (int_range (-1) 5) (float_range (-2.) 20.) in
  frequency
    [
      ( 3,
        map
          (fun (kind, name, labels, layout, update) ->
            Lookup { kind; name; labels; layout; update })
          (tup5 (oneofl [ Counter_kind; Gauge_kind; Histogram_kind ]) name labels layout
             (opt by_value)) );
      (1, map2 (fun slot (by, value) -> Update { slot; by; value }) nat by_value);
    ]

(* Each step's outcome on both registries, as ([mine], [reference]):
   [""], or the [Invalid_argument] message. *)
let replay_registry_ops ops =
  let reg = Registry.create ~clock:(Fun.const 0.) () in
  let reference = Registry_ref.create ~clock:(Fun.const 0.) () in
  let kept = ref [||] in
  let message = function Ok _ -> "" | Error m -> m in
  let catch f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  let both mine theirs = (message (catch mine), message (catch theirs)) in
  let update (by, value) = function
    | Counter_pair (c, r) ->
        both (fun () -> Registry.incr_by c by) (fun () -> Registry_ref.incr_by r by)
    | Gauge_pair (g, r) when by mod 2 = 0 ->
        both (fun () -> Registry.set g value) (fun () -> Registry_ref.set r value)
    | Gauge_pair (g, r) -> both (fun () -> Registry.add g value) (fun () -> Registry_ref.add r value)
    | Histogram_pair (h, r) ->
        both (fun () -> Registry.observe h value) (fun () -> Registry_ref.observe r value)
  in
  let lookup kind ~labels ~buckets name =
    let pair mine theirs make =
      match (catch mine, catch theirs) with
      | Ok a, Ok b -> Ok (make a b)
      | mine, theirs -> Error (message mine, message theirs)
    in
    match kind with
    | Counter_kind ->
        pair
          (fun () -> Registry.counter ~labels reg name)
          (fun () -> Registry_ref.counter ~labels reference name)
          (fun c r -> Counter_pair (c, r))
    | Gauge_kind ->
        pair
          (fun () -> Registry.gauge ~labels reg name)
          (fun () -> Registry_ref.gauge ~labels reference name)
          (fun g r -> Gauge_pair (g, r))
    | Histogram_kind ->
        pair
          (fun () -> Registry.histogram ?buckets ~labels reg name)
          (fun () -> Registry_ref.histogram ?buckets ~labels reference name)
          (fun h r -> Histogram_pair (h, r))
  in
  let outcomes =
    List.concat_map
      (function
        | Update { slot; by; value } ->
            let n = Array.length !kept in
            if n = 0 then [] else [ update (by, value) !kept.(slot mod n) ]
        | Lookup { kind; name; labels; layout; update = then_update } -> (
            match lookup kind ~labels ~buckets:(snd layouts.(layout)) name with
            | Error outcome -> [ outcome ]
            | Ok handle ->
                kept := Array.append !kept [| handle |];
                ("", "") :: Option.to_list (Option.map (fun u -> update u handle) then_update)))
      ops
  in
  (outcomes, Registry.snapshot reg, Registry_ref.snapshot reference)

let registry_matches_reference_prop =
  QCheck.Test.make ~count:500 ~name:"registry lookups match the reference registry"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_registry_op ops))
       QCheck.Gen.(list_size (int_range 1 60) registry_op_gen))
    (fun ops ->
      let outcomes, mine, theirs = replay_registry_ops ops in
      List.for_all (fun (a, b) -> String.equal a b) outcomes && mine = theirs)

(* Recording without garbage. After its first lookup, an instrument
   looked up by name, or kept, records with no allocation: 1,000 calls
   allocate 0 minor words. The registry and window read a fixed clock,
   and the value is a float boxed once beforehand, so no call has a
   float of its own to box. *)

let minor_words_of_calls f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. before

let boxed_value = Sys.opaque_identity (float_of_string "0.25")

let test_updates_allocate_nothing () =
  let reg = Registry.create ~clock:(Fun.const 1.) () in
  let kept = Registry.histogram reg "kept_seconds" in
  let window = Obs.Window.create ~clock:(Fun.const 5.) ~window_seconds:10. () in
  let calls =
    [
      ("incr by name", fun () -> Registry.incr (Registry.counter reg "calls_total"));
      ("set by name", fun () -> Registry.set (Registry.gauge reg "level") boxed_value);
      ("Span.observe by name", fun () -> Span.observe reg "stage_seconds" boxed_value);
      ("observe on a kept histogram", fun () -> Registry.observe kept boxed_value);
      ("Window.observe", fun () -> Obs.Window.observe window boxed_value);
      ("Window.mark", fun () -> Obs.Window.mark window);
    ]
  in
  Alcotest.(check (list (pair string (float 0.))))
    "minor words of 1,000 calls"
    (List.map (fun (what, _) -> (what, 0.)) calls)
    (List.map (fun (what, f) -> (what, minor_words_of_calls f)) calls);
  Alcotest.(check int) "every call counted" 1001
    (Snapshot.counter_value (Registry.snapshot reg) "calls_total")

(* A span by name allocates its record (three fields and a header) and
   the one box its elapsed seconds travel in, to the histogram and back
   to the caller. *)
let test_span_allocates_its_value () =
  let reg = Registry.create ~clock:(Fun.const 1.) () in
  let words =
    minor_words_of_calls (fun () -> ignore (Span.finish (Span.start reg "stage_seconds")))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over 1,000 spans" words)
    true
    (words <= 1000. *. 6.)

(* Spans against an injected clock *)

let test_span_fake_clock () =
  let now = ref 10. in
  let reg = Registry.create ~clock:(fun () -> !now) () in
  let span = Span.start reg "stage_seconds" in
  now := 11.25;
  Alcotest.(check (float 1e-12)) "elapsed" 1.25 (Span.finish span);
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "recorded once" 1 (Snapshot.histogram_count snap "stage_seconds");
  Alcotest.(check (float 1e-12)) "recorded value" 1.25
    (Snapshot.histogram_sum snap "stage_seconds")

let test_span_clamps_backward_clock () =
  let now = ref 10. in
  let reg = Registry.create ~clock:(fun () -> !now) () in
  let span = Span.start reg "stage_seconds" in
  now := 3.;
  Alcotest.(check (float 0.)) "never negative" 0. (Span.finish span);
  Alcotest.(check int) "regression surfaced as a counter, not hidden" 1
    (Snapshot.counter_value (Registry.snapshot reg) "trace.clock_regressions_total");
  let forward = Span.start reg "stage_seconds" in
  now := 4.;
  ignore (Span.finish forward);
  Alcotest.(check int) "well-behaved clocks leave the counter alone" 1
    (Snapshot.counter_value (Registry.snapshot reg) "trace.clock_regressions_total")

let test_span_time_wraps_raise () =
  let now = ref 0. in
  let reg = Registry.create ~clock:(fun () -> !now) () in
  (try
     Span.time reg "failing_seconds" (fun () ->
         now := 2.;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span finished despite the raise" 1
    (Snapshot.histogram_count (Registry.snapshot reg) "failing_seconds")

(* Snapshots *)

let test_snapshot_determinism () =
  let fill order =
    let reg = Registry.create () in
    List.iter
      (fun name -> Registry.incr (Registry.counter reg name))
      order;
    Registry.set (Registry.gauge reg "m_gauge") 0.5;
    Registry.snapshot reg
  in
  let a = fill [ "b_total"; "a_total"; "z_total" ] in
  let b = fill [ "z_total"; "b_total"; "a_total" ] in
  Alcotest.(check bool) "insertion order is invisible" true (a = b);
  Alcotest.(check (list string))
    "sorted by name"
    [ "a_total"; "b_total"; "m_gauge"; "z_total" ]
    (List.map (fun e -> e.Snapshot.name) a)

let test_snapshot_json_infinity () =
  let reg = Registry.create () in
  Registry.observe (Registry.histogram ~buckets:[| 1. |] reg "h") 5.;
  let rendered = Stratrec_util.Json.to_string (Snapshot.to_json (Registry.snapshot reg)) in
  Alcotest.(check bool) "overflow bound rendered as \"+inf\"" true
    (let pattern = "+inf" in
     let rec find i =
       i + String.length pattern <= String.length rendered
       && (String.sub rendered i (String.length pattern) = pattern || find (i + 1))
     in
     find 0)

(* Hierarchical traces *)

let fake_trace () =
  let now = ref 0. in
  let t = Trace.create ~clock:(fun () -> !now) () in
  (t, now)

let test_trace_nesting () =
  let t, now = fake_trace () in
  Trace.span t "root" (fun () ->
      now := 1.;
      Trace.span t "child_a" (fun () -> now := 2.);
      Trace.span t "child_b" (fun () ->
          Trace.span t "grandchild" (fun () -> now := 3.)));
  let nodes = Trace.nodes t in
  Alcotest.(check (list string))
    "DFS pre-order"
    [ "root"; "child_a"; "child_b"; "grandchild" ]
    (List.map (fun n -> n.Trace.name) nodes);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1; 2 ]
    (List.map (fun n -> n.Trace.depth) nodes);
  match nodes with
  | [ root; a; b; g ] ->
      Alcotest.(check bool) "root has no parent" true (root.Trace.parent = None);
      Alcotest.(check bool) "child_a under root" true (a.Trace.parent = Some root.Trace.id);
      Alcotest.(check bool) "child_b under root" true (b.Trace.parent = Some root.Trace.id);
      Alcotest.(check bool) "grandchild under child_b" true (g.Trace.parent = Some b.Trace.id);
      Alcotest.(check (float 1e-12)) "root spans the whole run" 3. root.Trace.duration;
      Alcotest.(check (float 1e-12)) "child_a duration" 1. a.Trace.duration
  | _ -> Alcotest.fail "expected 4 nodes"

let test_trace_attrs () =
  let t, _ = fake_trace () in
  Trace.span t "run" ~attrs:[ ("k", Trace.Int 3) ] (fun () ->
      Trace.span t "inner" (fun () -> Trace.add_attr t "hits" (Trace.Int 7));
      Trace.add_attr t "distance" (Trace.Float 0.25));
  (* Attaching outside any open span is a silent no-op, like the noop trace. *)
  Trace.add_attr t "lost" (Trace.Bool true);
  match Trace.nodes t with
  | [ run; inner ] ->
      Alcotest.(check bool) "declared then attached, in order" true
        (run.Trace.attrs = [ ("k", Trace.Int 3); ("distance", Trace.Float 0.25) ]);
      Alcotest.(check bool) "add_attr lands on the innermost open span" true
        (inner.Trace.attrs = [ ("hits", Trace.Int 7) ])
  | _ -> Alcotest.fail "expected 2 nodes"

let test_trace_capacity () =
  let reads = ref 0 in
  let clock () =
    incr reads;
    0.
  in
  let t = Trace.create ~capacity:2 ~clock () in
  for i = 1 to 4 do
    Trace.span t (Printf.sprintf "s%d" i) ignore
  done;
  Alcotest.(check int) "retained stops at capacity" 2 (Trace.span_count t);
  Alcotest.(check int) "overflow counted" 2 (Trace.dropped t);
  Alcotest.(check int) "dropped spans read no clock" 4 !reads;
  Alcotest.(check (list string))
    "oldest spans kept" [ "s1"; "s2" ]
    (List.map (fun n -> n.Trace.name) (Trace.nodes t))

let test_trace_exception_safety () =
  let t, now = fake_trace () in
  Trace.span t "root" (fun () ->
      (try Trace.span t "thrower" (fun () -> now := 2.; failwith "boom")
       with Failure _ -> ());
      Trace.span t "after" ignore);
  match Trace.nodes t with
  | [ _root; thrower; after ] ->
      Alcotest.(check (float 1e-12)) "raising span still timed" 2. thrower.Trace.duration;
      Alcotest.(check int) "next span is a sibling, not a child of the thrower" 1
        after.Trace.depth
  | _ -> Alcotest.fail "expected 3 nodes"

let test_trace_noop () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.noop);
  Alcotest.(check int) "span passes the value through" 41
    (Trace.span Trace.noop "s" (fun () -> 41));
  Trace.decide Trace.noop ~id:0 ~label:"d" (Trace.Rejected { binding = "x" });
  Alcotest.(check int) "no nodes" 0 (List.length (Trace.nodes Trace.noop));
  Alcotest.(check int) "no decisions" 0 (List.length (Trace.decisions Trace.noop))

let test_trace_decisions () =
  let t, _ = fake_trace () in
  Trace.decide t ~id:2 ~label:"d3"
    (Trace.Satisfied { workforce = 0.8; strategies = [ "s4"; "s3" ] });
  Trace.decide t ~id:0 ~label:"d1"
    (Trace.Triaged { quality = 0.4; cost = 0.5; latency = 0.28; distance = 0.33 });
  Trace.decide t ~id:1 ~label:"d2" (Trace.Rejected { binding = "no alternative exists" });
  Alcotest.(check (list string))
    "decision order and rendering"
    [
      "d3 -> satisfied (w=0.800) [s4; s3]";
      "d1 -> triaged {q=0.400; c=0.500; l=0.280} distance 0.3300";
      "d2 -> rejected (no alternative exists)";
    ]
    (List.map (Format.asprintf "%a" Trace.pp_decision) (Trace.decisions t))

let test_trace_chrome_json () =
  let t, now = fake_trace () in
  Trace.span t "parent" (fun () ->
      now := 0.5;
      Trace.span t "child" (fun () -> now := 1.5));
  Trace.decide t ~id:4 ~label:"d5" (Trace.Rejected { binding = "b" });
  let json = Trace.to_chrome_json t in
  let events = Option.get (Json.to_list (Option.get (Json.member "traceEvents" json))) in
  Alcotest.(check int) "two spans + one decision" 3 (List.length events);
  let field name e = Option.get (Json.member name e) in
  let args = field "args" in
  (match events with
  | [ parent; child; decision ] ->
      Alcotest.(check bool) "spans are complete events" true
        (field "ph" parent = Json.String "X" && field "ph" child = Json.String "X");
      Alcotest.(check bool) "timestamps and durations in microseconds" true
        (field "ts" parent = Json.Number 0.
        && field "dur" parent = Json.Number 1.5e6
        && field "ts" child = Json.Number 0.5e6
        && field "dur" child = Json.Number 1e6);
      Alcotest.(check bool) "root parent_id is null" true
        (Json.member "parent_id" (args parent) = Some Json.Null);
      Alcotest.(check bool) "child points at its parent" true
        (Json.member "parent_id" (args child) = Json.member "span_id" (args parent));
      Alcotest.(check bool) "decision is a thread-scoped instant" true
        (field "ph" decision = Json.String "i" && field "s" decision = Json.String "t");
      Alcotest.(check bool) "decision carries the verdict" true
        (Json.member "verdict" (args decision) = Some (Json.String "rejected")
        && Json.member "binding" (args decision) = Some (Json.String "b"))
  | _ -> Alcotest.fail "unexpected event list");
  (* The document must also survive its own printer. *)
  match Json.of_string (Json.to_string ~indent:1 json) with
  | Ok reparsed -> Alcotest.(check bool) "print/parse round-trip" true (Json.equal json reparsed)
  | Error m -> Alcotest.failf "emitted JSON does not parse: %s" m

(* Engine end-to-end: the typed report and the metrics snapshot must tell
   the same story. *)

let paper_inputs () =
  ( Model.Paper_example.availability (),
    Model.Paper_example.strategies (),
    Model.Paper_example.requests () )

(* Engine.run into a registry and a trace the caller owns: the report,
   the registry's snapshot after the run, and the trace. *)
let run_observed ?(config = Engine.default_config) ?rng ~availability ~strategies ~requests
    () =
  let metrics = Registry.create () and trace = Trace.create () in
  let config = Engine.with_trace (Engine.with_metrics config metrics) trace in
  Result.map
    (fun report -> (report, Registry.snapshot metrics, trace))
    (Engine.run ~config ?rng ~availability ~strategies ~requests ())

let test_engine_counts_match_snapshot () =
  let availability, strategies, requests = paper_inputs () in
  match run_observed ~availability ~strategies ~requests () with
  | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_message e)
  | Ok (report, snap, _) ->
      let counts = report.Engine.counts in
      Alcotest.(check int) "requests" counts.Engine.requests
        (Snapshot.counter_value snap "aggregator.requests_total");
      Alcotest.(check int) "satisfied" counts.Engine.satisfied
        (Snapshot.counter_value snap "aggregator.satisfied_total");
      Alcotest.(check int) "alternatives" counts.Engine.alternatives
        (Snapshot.counter_value snap "aggregator.alternative_total");
      Alcotest.(check int) "workforce-limited" counts.Engine.workforce_limited
        (Snapshot.counter_value snap "aggregator.workforce_limited_total");
      Alcotest.(check int) "no-alternative" counts.Engine.no_alternative
        (Snapshot.counter_value snap "aggregator.no_alternative_total");
      Alcotest.(check int) "one engine run" 1
        (Snapshot.counter_value snap "engine.runs_total");
      Alcotest.(check int) "run span recorded" 1
        (Snapshot.histogram_count snap "engine.run_seconds");
      (* Example 1: d3 satisfied, d1 and d2 get alternatives. *)
      Alcotest.(check int) "paper example: 3 requests" 3 counts.Engine.requests;
      Alcotest.(check int) "paper example: 1 satisfied" 1 counts.Engine.satisfied;
      Alcotest.(check int) "paper example: 2 alternatives" 2 counts.Engine.alternatives

let test_engine_deploy_stage () =
  let availability, strategies, requests = paper_inputs () in
  let rng = Stratrec_util.Rng.create 7 in
  let platform = Sim.Platform.create rng ~population:200 in
  let config =
    Engine.with_deploy Engine.default_config
      (Some
         {
           Engine.platform;
           kind = Sim.Task_spec.Sentence_translation;
           window = Sim.Window.Weekend;
           capacity = 5;
           faults = Resilience.Fault.none;
           resilience = Resilience.Degrade.default;
         })
  in
  match run_observed ~config ~rng ~availability ~strategies ~requests () with
  | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_message e)
  | Ok (report, snap, _) ->
      Alcotest.(check int) "one deployment per satisfied request"
        report.Engine.counts.Engine.satisfied
        (List.length report.Engine.deployed);
      Alcotest.(check int) "deploys counter agrees"
        (List.length report.Engine.deployed)
        (Snapshot.counter_value snap "engine.deploys_total");
      Alcotest.(check bool) "campaign metrics recorded" true
        (Snapshot.counter_value snap "campaign.hits_deployed_total" > 0)

(* Acceptance: under faults with the resilient ladder on, every
   deploy.attempt span must nest under its deploy.request span, which in
   turn nests under the engine.deploy stage span — checked through the
   same Chrome renderer the CLI's --trace flag uses. *)

let test_engine_deploy_trace_nesting () =
  let availability, strategies, requests = paper_inputs () in
  let rng = Stratrec_util.Rng.create 11 in
  let config =
    Engine.with_deploy Engine.default_config
      (Some
         {
           Engine.platform = Sim.Platform.create rng ~population:200;
           kind = Sim.Task_spec.Sentence_translation;
           window = Sim.Window.Weekend;
           capacity = 5;
           faults = Resilience.Fault.make ~no_show:0.5 ~dropout:0.3 ();
           resilience = Resilience.Degrade.with_retries Resilience.Degrade.resilient 2;
         })
  in
  match run_observed ~config ~rng ~availability ~strategies ~requests () with
  | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_message e)
  | Ok (report, _, trace) ->
      let json = Trace.to_chrome_json trace in
      let events = Option.get (Json.to_list (Option.get (Json.member "traceEvents" json))) in
      let spans =
        List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) events
      in
      let name e = Option.get (Json.to_string_value (Option.get (Json.member "name" e))) in
      let args e = Option.get (Json.member "args" e) in
      let span_id e = Json.member "span_id" (args e) in
      let parent_id e = Json.member "parent_id" (args e) in
      let stage = List.filter (fun e -> name e = "engine.deploy") spans in
      Alcotest.(check int) "one deploy stage span" 1 (List.length stage);
      let stage = List.hd stage in
      let request_spans = List.filter (fun e -> name e = "deploy.request") spans in
      Alcotest.(check int) "one deploy.request span per satisfied request"
        report.Engine.counts.Engine.satisfied
        (List.length request_spans);
      List.iter
        (fun r ->
          Alcotest.(check bool) "deploy.request nests under engine.deploy" true
            (parent_id r = span_id stage))
        request_spans;
      let attempt_spans = List.filter (fun e -> name e = "deploy.attempt") spans in
      let total_attempts =
        List.fold_left
          (fun acc (d : Engine.deployed) -> acc + List.length d.Engine.attempts)
          0 report.Engine.deployed
      in
      Alcotest.(check bool) "attempt history is non-trivial" true (total_attempts > 0);
      Alcotest.(check int) "one deploy.attempt span per recorded attempt" total_attempts
        (List.length attempt_spans);
      List.iter
        (fun a ->
          Alcotest.(check bool) "deploy.attempt nests under a deploy.request span" true
            (List.exists (fun r -> span_id r = parent_id a) request_spans))
        attempt_spans

let test_engine_shared_registry_accumulates () =
  let availability, strategies, requests = paper_inputs () in
  let metrics = Registry.create () in
  let config = Engine.with_metrics Engine.default_config metrics in
  let run () =
    match Engine.run ~config ~availability ~strategies ~requests () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_message e)
  in
  run ();
  run ();
  Alcotest.(check int) "two runs accumulate in a shared registry" 2
    (Snapshot.counter_value (Registry.snapshot metrics) "engine.runs_total")

let test_engine_errors () =
  let availability, strategies, requests = paper_inputs () in
  (match Engine.run ~availability ~strategies:[||] ~requests () with
  | Error `Empty_catalog -> ()
  | _ -> Alcotest.fail "expected Empty_catalog");
  let dup = Array.append requests [| requests.(0) |] in
  (match Engine.run ~availability ~strategies ~requests:dup () with
  | Error (`Invalid_request message) ->
      Alcotest.(check bool) "names the duplicate id" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected Invalid_request");
  let rng = Stratrec_util.Rng.create 7 in
  let config =
    Engine.with_deploy Engine.default_config
      (Some
         {
           Engine.platform = Sim.Platform.create rng ~population:10;
           kind = Sim.Task_spec.Sentence_translation;
           window = Sim.Window.Weekend;
           capacity = 0;
           faults = Resilience.Fault.none;
           resilience = Resilience.Degrade.default;
         })
  in
  (match Engine.run ~config ~availability ~strategies ~requests () with
  | Error (`Invalid_config _) -> ()
  | _ -> Alcotest.fail "expected Invalid_config");
  match Engine.load_catalog ~path:"/nonexistent/catalog.json" with
  | Error (`Catalog _) -> ()
  | _ -> Alcotest.fail "expected Catalog error"

(* Acceptance: the CLI-emitted Chrome file must parse and carry the
   engine -> request -> algorithm-span hierarchy with one decision per
   request. Exercised here through the same renderer the CLI uses. *)

let test_engine_trace_file () =
  let availability, strategies, requests = paper_inputs () in
  match run_observed ~availability ~strategies ~requests () with
  | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_message e)
  | Ok (_, _, trace) ->
      Alcotest.(check int) "the trace holds one decision per request" 3
        (List.length (Trace.decisions trace));
      Alcotest.(check (list string))
        "decision labels (greedy acceptance first, then triage in input order)"
        [ "d3"; "d1"; "d2" ]
        (List.map (fun d -> d.Trace.label) (Trace.decisions trace));
      let path = Filename.temp_file "stratrec_trace" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string ~indent:1 (Trace.to_chrome_json trace)));
      let contents = In_channel.with_open_text path In_channel.input_all in
      let json =
        match Json.of_string contents with
        | Ok j -> j
        | Error m -> Alcotest.failf "emitted file does not parse: %s" m
      in
      let events = Option.get (Json.to_list (Option.get (Json.member "traceEvents" json))) in
      let name e = Option.get (Json.to_string_value (Option.get (Json.member "name" e))) in
      let spans = List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) events in
      let args e = Option.get (Json.member "args" e) in
      let span_id e = Json.member "span_id" (args e) in
      let parent_id e = Json.member "parent_id" (args e) in
      let root =
        match List.filter (fun e -> parent_id e = Some Json.Null) spans with
        | [ root ] -> root
        | roots -> Alcotest.failf "expected exactly one root span, got %d" (List.length roots)
      in
      Alcotest.(check string) "the root is the engine run" "engine.run" (name root);
      let batch = List.find (fun e -> name e = "aggregator.batch") spans in
      Alcotest.(check bool) "aggregator nests under the engine" true
        (parent_id batch = span_id root);
      let request_spans = List.filter (fun e -> name e = "request") spans in
      Alcotest.(check int) "one request span per request" 3 (List.length request_spans);
      List.iter
        (fun r ->
          Alcotest.(check bool) "request spans nest under the batch" true
            (parent_id r = span_id batch))
        request_spans;
      let adpar = List.filter (fun e -> name e = "adpar.exact") spans in
      Alcotest.(check int) "both triaged requests hit ADPaR" 2 (List.length adpar);
      List.iter
        (fun a ->
          Alcotest.(check bool) "adpar nests under a request span" true
            (List.exists (fun r -> span_id r = parent_id a) request_spans))
        adpar;
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true
            (List.exists (fun e -> name e = phase) spans))
        [ "batchstrat.run"; "batchstrat.prune"; "batchstrat.greedy" ];
      let decisions =
        List.filter (fun e -> Json.member "ph" e = Some (Json.String "i")) events
      in
      Alcotest.(check int) "one decision instant per request" 3 (List.length decisions)

(* Snapshot JSON: to_json renders every number in its shortest
   round-tripping form, so the parsed text gives back every value of the
   snapshot exactly. [encodes_exactly] reads each series of [snap] back
   from the parsed document, by its series key and in snapshot order. *)

let parsed snap = Json.of_string (Json.to_string (Snapshot.to_json snap))

let encodes_exactly snap doc =
  let is obj name v = Option.bind (Json.member name obj) Json.to_float = Some v in
  let bucket b (le, n) =
    is b "count" (float_of_int n)
    &&
    match Option.bind (Json.member "le" b) Json.to_string_value with
    | Some "+inf" -> le = infinity
    | Some s -> float_of_string_opt s = Some le
    | None -> false
  in
  let series ({ Snapshot.value; _ } as e) =
    match Json.member (Snapshot.series_name e) doc with
    | None -> false
    | Some v -> (
        let kind = Option.bind (Json.member "type" v) Json.to_string_value in
        match (value, Json.member "value" v) with
        | Snapshot.Counter n, _ -> kind = Some "counter" && is v "value" (float_of_int n)
        | Snapshot.Gauge g, _ -> kind = Some "gauge" && is v "value" g
        | Snapshot.Histogram h, Some hv -> (
            kind = Some "histogram"
            && is hv "count" (float_of_int h.Snapshot.count)
            && is hv "sum" h.Snapshot.sum && is hv "min" h.Snapshot.min
            && is hv "max" h.Snapshot.max
            &&
            match Option.bind (Json.member "buckets" hv) Json.to_list with
            | Some bs ->
                List.length bs = List.length h.Snapshot.buckets
                && List.for_all2 bucket bs h.Snapshot.buckets
            | None -> false)
        | Snapshot.Histogram _, None -> false)
  in
  (match doc with
  | Json.Object fields -> List.map fst fields = List.map Snapshot.series_name snap
  | _ -> false)
  && List.for_all series snap

let test_snapshot_roundtrip_inf_bucket () =
  let reg = Registry.create () in
  let h =
    Registry.histogram ~buckets:[| 0.1; 1. /. 7. |] ~labels:[ ("tenant", "acme") ] reg "h"
  in
  Registry.observe h 5.;
  Registry.observe h 0.125;
  Registry.incr (Registry.counter reg "c_total");
  Registry.set (Registry.gauge reg "g") (-0.125);
  let snap = Registry.snapshot reg in
  match parsed snap with
  | Error m -> Alcotest.failf "rendered JSON does not parse: %s" m
  | Ok doc -> (
      Alcotest.(check bool) "every value read back exactly" true (encodes_exactly snap doc);
      match Option.bind (Json.member {|h{tenant="acme"}|} doc) (Json.member "value") with
      | None -> Alcotest.fail "labeled histogram missing under its series key"
      | Some hv ->
          let field name json = Option.bind (Json.member name json) in
          let buckets = Option.value (field "buckets" hv Json.to_list) ~default:[] in
          Alcotest.(check (list (option string)))
            "bounds: shortest round-tripping, then +inf"
            [ Some "0.1"; Some "0.14285714285714285"; Some "+inf" ]
            (List.map (fun b -> field "le" b Json.to_string_value) buckets);
          Alcotest.(check (list (option int)))
            "per-bucket counts" [ Some 0; Some 1; Some 1 ]
            (List.map (fun b -> field "count" b Json.to_int) buckets);
          Alcotest.(check (list (option (float 0.))))
            "count, sum, min, max"
            [ Some 2.; Some 5.125; Some 0.125; Some 5. ]
            (List.map (fun name -> field name hv Json.to_float) [ "count"; "sum"; "min"; "max" ]))

let snapshot_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"snapshot JSON round-trips exactly"
    QCheck.(
      triple
        (small_list small_nat)
        (small_list (float_range (-1e6) 1e6))
        (small_list
           (pair (list_of_size Gen.(1 -- 5) (int_range 1 60)) (small_list (float_range 0. 12.)))))
    (fun (counters, gauges, histograms) ->
      let reg = Registry.create () in
      List.iteri
        (fun i v -> Registry.incr_by (Registry.counter reg (Printf.sprintf "c%d_total" i)) v)
        counters;
      List.iteri
        (fun i v -> Registry.set (Registry.gauge reg (Printf.sprintf "g%d" i)) v)
        gauges;
      List.iteri
        (fun i (numerators, observations) ->
          (* Sevenths are not dyadic, so the bounds only survive if the
             renderer really emits shortest-round-trip decimals. *)
          let buckets =
            Array.of_list
              (List.sort_uniq Float.compare (List.map (fun n -> float_of_int n /. 7.) numerators))
          in
          let h = Registry.histogram ~buckets reg (Printf.sprintf "h%d_seconds" i) in
          List.iter (Registry.observe h) observations)
        histograms;
      let snap = Registry.snapshot reg in
      match parsed snap with
      | Ok doc -> encodes_exactly snap doc
      | Error m -> QCheck.Test.fail_reportf "rendered JSON does not parse: %s" m)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* Wall clock, profiling hooks *)

let test_wall_clock_monotone () =
  let a = Registry.wall_clock () in
  let b = Registry.wall_clock () in
  let c = Registry.wall_clock () in
  Alcotest.(check bool) "never goes backward" true (a <= b && b <= c);
  Alcotest.(check bool) "tracks real wall time" true (abs_float (Unix.gettimeofday () -. c) < 60.)

let test_bucket_layout_conflict () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.; 2. |] reg "h_seconds" in
  Registry.observe h 1.5;
  (* Same layout: no conflict. *)
  ignore (Registry.histogram ~buckets:[| 1.; 2. |] reg "h_seconds");
  Alcotest.(check int) "same layout is silent" 0
    (Snapshot.counter_value (Registry.snapshot reg) "obs.bucket_layout_conflicts_total");
  (* Conflicting layout: counted, original layout kept. *)
  let h2 = Registry.histogram ~buckets:[| 10.; 20. |] reg "h_seconds" in
  Registry.observe h2 1.5;
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "conflict counted" 1
    (Snapshot.counter_value snap "obs.bucket_layout_conflicts_total");
  (match Snapshot.find snap "h_seconds" with
  | Some (Snapshot.Histogram { buckets; count; _ }) ->
      Alcotest.(check int) "observations land in the original layout" 2 count;
      Alcotest.(check (list (float 0.))) "original bounds kept" [ 1.; 2.; infinity ]
        (List.map fst buckets);
      Alcotest.(check (list int)) "the conflicting handle bins by the original bounds"
        [ 0; 2; 0 ] (List.map snd buckets)
  | _ -> Alcotest.fail "histogram missing");
  Registry.observe h 0.5;
  Alcotest.(check int) "both handles share one series" 3
    (Snapshot.histogram_count (Registry.snapshot reg) "h_seconds");
  (* A second conflicting registration counts again. *)
  ignore (Registry.histogram ~buckets:[| 10.; 20. |] reg "h_seconds");
  Alcotest.(check int) "repeat conflict counted" 2
    (Snapshot.counter_value (Registry.snapshot reg) "obs.bucket_layout_conflicts_total")

let test_profile_records () =
  let now = ref 100. in
  let clock () =
    now := !now +. 0.25;
    !now
  in
  let reg = Registry.create () in
  let result =
    Obs.Profile.time ~clock reg "stage" (fun () ->
        ignore (Sys.opaque_identity (List.init 1000 (fun i -> string_of_int i)));
        42)
  in
  Alcotest.(check int) "returns the value" 42 result;
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "wall histogram" 1 (Snapshot.histogram_count snap "stage.wall_seconds");
  Alcotest.(check (float 1e-9)) "wall delta from the injected clock" 0.25
    (Snapshot.histogram_sum snap "stage.wall_seconds");
  Alcotest.(check bool) "minor words counted" true
    (Snapshot.histogram_sum snap "stage.gc.minor_words" > 0.);
  List.iter
    (fun name -> Alcotest.(check int) name 1 (Snapshot.histogram_count snap name))
    [
      "stage.gc.minor_words";
      "stage.gc.major_words";
      "stage.gc.promoted_words";
      "stage.gc.major_collections";
    ];
  (* Records on raise too. *)
  (try Obs.Profile.time ~clock reg "stage" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check int) "raise still recorded" 2
    (Snapshot.histogram_count (Registry.snapshot reg) "stage.wall_seconds")

let test_profile_disabled_is_free () =
  let calls = ref 0 in
  let clock () =
    incr calls;
    0.
  in
  let result = Obs.Profile.time ~clock (Registry.disabled ()) "stage" (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 result;
  Alcotest.(check int) "no clock read on a disabled registry" 0 !calls

(* Structured log *)

module Log = Obs.Log

let buffer_log ?level ?(clock = fun () -> 1.5) () =
  let lines = ref [] in
  let log = Log.create ?level ~clock ~writer:(fun line -> lines := line :: !lines) () in
  (log, fun () -> List.rev !lines)

let test_log_shape () =
  let log, lines = buffer_log () in
  Log.info log "hello" ~fields:[ ("n", Json.Number 3.) ];
  Alcotest.(check (list string)) "deterministic key order"
    [ {|{"ts":1.5,"level":"info","msg":"hello","n":3}|} ]
    (lines ())

let test_log_span_correlation () =
  let log, lines = buffer_log () in
  let trace = Trace.create () in
  Log.info log ~trace "outside";
  Trace.span trace "root" (fun () ->
      Trace.span trace "child" (fun () -> Log.info log ~trace "inside"));
  (match lines () with
  | [ outside; inside ] ->
      Alcotest.(check bool) "no span key without an open span" false
        (contains ~needle:"span" outside);
      (* The innermost open span at emission time is the child (id 1). *)
      Alcotest.(check string) "span id of the innermost open span"
        {|{"ts":1.5,"level":"info","span":1,"msg":"inside"}|} inside
  | _ -> Alcotest.fail "expected two records")

let test_log_level_threshold () =
  let log, lines = buffer_log ~level:Log.Warn () in
  Log.debug log "dropped";
  Log.info log "dropped too";
  Log.warn log "kept";
  Log.error log "kept too";
  Alcotest.(check int) "threshold drops below warn" 2 (List.length (lines ()));
  Alcotest.(check string) "level labels" "warn" (Log.level_label Log.Warn)

let test_log_escaping () =
  let log, lines = buffer_log () in
  Log.info log "a \"quoted\"\nmessage" ~fields:[ ("path", Json.String "C:\\tmp") ];
  match lines () with
  | [ line ] -> (
      match Json.of_string line with
      | Ok json ->
          Alcotest.(check (option string)) "msg round-trips"
            (Some "a \"quoted\"\nmessage")
            (Option.bind (Json.member "msg" json) Json.to_string_value);
          Alcotest.(check (option string)) "field round-trips" (Some "C:\\tmp")
            (Option.bind (Json.member "path" json) Json.to_string_value)
      | Error m -> Alcotest.failf "record is not valid JSON: %s" m)
  | _ -> Alcotest.fail "expected one record"

(* OpenMetrics exposition *)

let test_openmetrics_empty () =
  Alcotest.(check string) "empty snapshot is just the terminator" "# EOF\n"
    (Snapshot.to_openmetrics Snapshot.empty)

let test_openmetrics_escaping () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg "aggregator.runs-total");
  Registry.set (Registry.gauge reg "9lives") 1.;
  let exposition = Snapshot.to_openmetrics (Registry.snapshot reg) in
  let has needle = contains ~needle exposition in
  Alcotest.(check bool) "dots and dashes become underscores" true
    (has "aggregator_runs_total 1");
  Alcotest.(check bool) "HELP carries the original dotted name" true
    (has "# HELP aggregator_runs_total aggregator.runs-total");
  Alcotest.(check bool) "leading digit is prefixed" true (has "_9lives 1");
  Alcotest.(check bool) "terminated" true (has "# EOF")

let test_openmetrics_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.; 2.; 4. |] reg "lat.seconds" in
  List.iter (Registry.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check string) "cumulative buckets with +Inf"
    (String.concat "\n"
       [
         "# HELP lat_seconds lat.seconds";
         "# TYPE lat_seconds histogram";
         "lat_seconds_bucket{le=\"1\"} 1";
         "lat_seconds_bucket{le=\"2\"} 2";
         "lat_seconds_bucket{le=\"4\"} 3";
         "lat_seconds_bucket{le=\"+Inf\"} 4";
         "lat_seconds_sum 105";
         "lat_seconds_count 4";
         "# EOF";
         "";
       ])
    (Snapshot.to_openmetrics (Registry.snapshot reg))

let test_histogram_quantile () =
  let reg = Registry.create () in
  let h = Registry.histogram ~buckets:[| 1.; 2.; 4. |] reg "q" in
  List.iter (Registry.observe h) [ 0.5; 1.5; 1.7; 3.0 ];
  match Snapshot.find (Registry.snapshot reg) "q" with
  | Some (Snapshot.Histogram h) ->
      Alcotest.(check (float 1e-9)) "p0 is the recorded min" 0.5
        (Snapshot.histogram_quantile h 0.);
      Alcotest.(check (float 1e-9)) "p100 is the recorded max" 3.0
        (Snapshot.histogram_quantile h 1.);
      let p50 = Snapshot.histogram_quantile h 0.5 in
      Alcotest.(check bool) "p50 inside the second bucket" true (p50 >= 1. && p50 <= 2.);
      Alcotest.(check (float 1e-9)) "empty histogram is 0" 0.
        (Snapshot.histogram_quantile
           { Snapshot.buckets = [ (1., 0); (infinity, 0) ]; count = 0; sum = 0.; min = 0.; max = 0. }
           0.5)
  | _ -> Alcotest.fail "histogram missing"

(* Every line of a generated registry's exposition is a comment or a
   sample, and the document ends in # EOF. *)
let openmetrics_shape_prop =
  QCheck.Test.make ~count:100 ~name:"openmetrics line shape"
    QCheck.(pair (small_list small_nat) (small_list (int_range 0 10)))
    (fun (counters, observations) ->
      let reg = Registry.create () in
      List.iteri
        (fun i v -> Registry.incr_by (Registry.counter reg (Printf.sprintf "c%d_total" i)) v)
        counters;
      let h = Registry.histogram ~buckets:[| 1.; 5. |] reg "h_seconds" in
      List.iter (fun v -> Registry.observe h (float_of_int v)) observations;
      let text = Snapshot.to_openmetrics (Registry.snapshot reg) in
      List.for_all
        (fun line ->
          line = ""
          || line.[0] = '#'
          || match line.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
        (String.split_on_char '\n' text)
      && contains ~needle:"# EOF" text)

(* The exposition against the Printf one it replaced, on snapshots
   written directly: families of consecutive series, names that need
   sanitizing or HELP escaping, label values that need escaping, NaN and
   infinite gauges and sums, and histograms with non-finite bounds. *)
let openmetrics_matches_printf_prop =
  let gen =
    QCheck.Gen.(
      let name =
        frequency
          [
            ( 3,
              oneofl
                [ "serve.requests_total"; "lat.seconds"; "9lives"; ""; "a-b:c"; "back\\slash\nnl"; "x" ] );
            (1, string_size ~gen:printable (0 -- 6));
          ]
      in
      let label_value =
        oneof
          [
            string_size ~gen:printable (0 -- 6);
            oneofl [ "a\\b"; "q\"uote"; "new\nline"; "\xc3\xa9"; ""; "\\\"\n" ];
          ]
      in
      let labels = list_size (0 -- 2) (pair (oneofl [ "tenant"; "reason"; "kind" ]) label_value) in
      let float =
        frequency
          [
            (3, float_range (-1e3) 1e3);
            ( 2,
              oneofl
                [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 1e15; 1e15 +. 2.; 5e-324; 0.1 ] );
          ]
      in
      let histogram =
        map3
          (fun buckets count sum ->
            Snapshot.Histogram { Snapshot.buckets; count; sum; min = 0.; max = 0. })
          (list_size (0 -- 4) (pair float (int_bound 50)))
          (int_bound 200) float
      in
      let value =
        oneof
          [
            map (fun n -> Snapshot.Counter n) (int_range (-5) 1_000_000);
            map (fun v -> Snapshot.Gauge v) float;
            histogram;
          ]
      in
      map List.concat
        (list_size (0 -- 6)
           (map2
              (fun name series ->
                List.map (fun (labels, value) -> { Snapshot.name; labels; value }) series)
              name
              (list_size (1 -- 3) (pair labels value)))))
  in
  QCheck.Test.make ~count:1000 ~name:"to_openmetrics = the Printf exposition"
    (QCheck.make ~print:Openmetrics_ref.to_openmetrics gen)
    (fun snapshot ->
      let expected = Openmetrics_ref.to_openmetrics snapshot in
      let buf = Buffer.create 16 in
      Buffer.add_string buf "before\n";
      Snapshot.add_openmetrics buf snapshot;
      Snapshot.to_openmetrics snapshot = expected && Buffer.contents buf = "before\n" ^ expected)

(* Metric labels *)

module Labels = Obs.Labels

let test_labels_canonical () =
  Alcotest.(check (list (pair string string)))
    "normalize sorts by key"
    [ ("env", "prod"); ("tenant", "acme") ]
    (Labels.normalize [ ("tenant", "acme"); ("env", "prod") ]);
  Alcotest.check_raises "le is reserved"
    (Invalid_argument
       "Stratrec_obs.Labels: label key \"le\" is reserved for histogram buckets")
    (fun () -> ignore (Labels.normalize [ ("le", "1") ]));
  Alcotest.check_raises "duplicate keys rejected"
    (Invalid_argument "Stratrec_obs.Labels: duplicate label key \"tenant\"") (fun () ->
      ignore (Labels.normalize [ ("tenant", "a"); ("tenant", "b") ]));
  Alcotest.check_raises "key syntax enforced"
    (Invalid_argument
       "Stratrec_obs.Labels: invalid label key \"bad-key\" (want [a-zA-Z_][a-zA-Z0-9_]*)")
    (fun () -> ignore (Labels.normalize [ ("bad-key", "v") ]));
  let nasty = "a\\b\"c\nd" in
  Alcotest.(check string) "backslash, quote and newline escape" "{k=\"a\\\\b\\\"c\\nd\"}"
    (Labels.render [ ("k", nasty) ]);
  let encoded = Labels.encode_series "m_total" [ ("tenant", nasty) ] in
  Alcotest.(check string) "encoded spelling" "m_total{tenant=\"a\\\\b\\\"c\\nd\"}" encoded;
  Alcotest.(check string) "unlabeled series is the bare name" "m_total"
    (Labels.encode_series "m_total" [])

let test_openmetrics_labels () =
  let reg = Registry.create () in
  Registry.incr_by (Registry.counter reg "serve.shed_total") 3;
  Registry.incr_by
    (Registry.counter ~labels:[ ("reason", "over-share") ] reg "serve.shed_total")
    2;
  Registry.incr_by
    (Registry.counter ~labels:[ ("tenant", "ac\"me\\co\nrp") ] reg "serve.shed_total")
    1;
  let h =
    Registry.histogram ~buckets:[| 1. |] ~labels:[ ("tenant", "acme") ] reg "lat.seconds"
  in
  Registry.observe h 0.5;
  Alcotest.(check string) "one HELP/TYPE per family; escaped values; le composes"
    (String.concat "\n"
       [
         "# HELP lat_seconds lat.seconds";
         "# TYPE lat_seconds histogram";
         "lat_seconds_bucket{tenant=\"acme\",le=\"1\"} 1";
         "lat_seconds_bucket{tenant=\"acme\",le=\"+Inf\"} 1";
         "lat_seconds_sum{tenant=\"acme\"} 0.5";
         "lat_seconds_count{tenant=\"acme\"} 1";
         "# HELP serve_shed_total serve.shed_total";
         "# TYPE serve_shed_total counter";
         "serve_shed_total 3";
         "serve_shed_total{reason=\"over-share\"} 2";
         "serve_shed_total{tenant=\"ac\\\"me\\\\co\\nrp\"} 1";
         "# EOF";
         "";
       ])
    (Snapshot.to_openmetrics (Registry.snapshot reg))

(* Sliding windows *)

module Window = Obs.Window
module Slo = Obs.Slo

let test_window_basics () =
  let now = ref 100. in
  let w = Window.create ~clock:(fun () -> !now) ~slots:6 ~window_seconds:60. () in
  Alcotest.(check int) "slots" 6 (Window.slots w);
  Alcotest.(check (float 0.)) "span" 60. (Window.window_seconds w);
  Alcotest.(check int) "empty count" 0 (Window.count w);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Window.quantile w 0.99);
  Alcotest.(check (float 0.)) "empty mean" 0. (Window.mean w);
  Window.observe w 0.02;
  Window.observe w 0.08;
  Window.mark w;
  Alcotest.(check int) "count" 3 (Window.count w);
  Alcotest.(check (float 1e-9)) "sum" 0.1 (Window.sum w);
  (* the window just came alive: the rate divides by the live span
     (clamped up to one slot), not the full 60s it has not covered yet *)
  Alcotest.(check (float 1e-9)) "early rate over the live span" (3. /. 10.)
    (Window.rate_per_sec w);
  (* after a full window of life the denominator is window_seconds *)
  let w2 = Window.create ~clock:(fun () -> !now) ~slots:6 ~window_seconds:60. () in
  Window.observe w2 1.;
  now := !now +. 45.;
  Window.observe w2 1.;
  Alcotest.(check (float 1e-9)) "mid-life rate over elapsed span" (2. /. 45.)
    (Window.rate_per_sec w2);
  now := !now +. 100.;
  Alcotest.(check (float 1e-9)) "rate clamps at the full window"
    (float_of_int (Window.count w2) /. 60.)
    (Window.rate_per_sec w2);
  now := 100.;
  Alcotest.(check (float 1e-9)) "mean" (0.1 /. 3.) (Window.mean w);
  Alcotest.(check (float 1e-9)) "min" 0. (Window.min_value w);
  Alcotest.(check (float 1e-9)) "max" 0.08 (Window.max_value w);
  let q50 = Window.quantile w 0.5 and q99 = Window.quantile w 0.99 in
  Alcotest.(check bool) "quantiles ordered" true (q50 <= q99);
  Alcotest.(check bool) "quantile bounded by max" true (q99 <= Window.max_value w +. 1e-9);
  Window.reset w;
  Alcotest.(check int) "reset empties" 0 (Window.count w);
  Alcotest.check_raises "span validated"
    (Invalid_argument "Stratrec_obs.Window.create: window_seconds must be positive") (fun () ->
      ignore (Window.create ~window_seconds:0. ()));
  Alcotest.check_raises "slots validated"
    (Invalid_argument "Stratrec_obs.Window.create: need at least one slot") (fun () ->
      ignore (Window.create ~slots:0 ~window_seconds:60. ()));
  Alcotest.check_raises "bounds validated"
    (Invalid_argument "Stratrec_obs.Window.create: bucket bounds must ascend") (fun () ->
      ignore (Window.create ~bounds:[| 2.; 1. |] ~window_seconds:60. ()))

let test_window_rotation () =
  let now = ref 1000. in
  let w = Window.create ~clock:(fun () -> !now) ~slots:6 ~window_seconds:60. () in
  Window.observe w 1.;
  (* half the span later the observation is still live *)
  now := 1030.;
  Window.observe w 2.;
  Alcotest.(check int) "both live" 2 (Window.count w);
  Alcotest.(check (float 1e-9)) "sum spans slots" 3. (Window.sum w);
  (* move past the first observation's slot: only the second survives *)
  now := 1065.;
  Alcotest.(check int) "old slot expired" 1 (Window.count w);
  Alcotest.(check (float 1e-9)) "survivor" 2. (Window.sum w);
  (* a full idle span later the window has decayed to empty *)
  now := 1065. +. 61.;
  Alcotest.(check int) "idle decay" 0 (Window.count w);
  Alcotest.(check (float 0.)) "empty max" 0. (Window.max_value w);
  (* the ring recycles stale slots in place on the next observation *)
  Window.observe w 5.;
  Alcotest.(check int) "recycled" 1 (Window.count w);
  Alcotest.(check (float 1e-9)) "recycled sum" 5. (Window.sum w)

let test_window_clock_regression () =
  let now = ref 1000. in
  let reg = Registry.create () in
  let w =
    Window.create ~clock:(fun () -> !now) ~metrics:reg ~slots:6 ~window_seconds:60. ()
  in
  (* fill the current slot, then step the clock backwards across the
     slot boundary: the regressed observation must land without wiping
     the live slot (the old rule reset any slot whose epoch differed) *)
  Window.observe w 1.;
  Window.observe w 2.;
  now := 940.;
  (* 940/10 = interval 94, ring position 94 mod 6 = 4 — the very slot
     holding the two live interval-100 points *)
  Window.observe w 3.;
  Alcotest.(check int) "live slot survived the regression" 3 (Window.count w);
  Alcotest.(check (float 1e-9)) "regressed point recorded" 6. (Window.sum w);
  Alcotest.(check int) "regression counted" 1 (Window.clock_regressions w);
  Alcotest.(check int) "counter mirrors Span.finish convention" 1
    (Snapshot.counter_value (Registry.snapshot reg) "obs.window.clock_regressions_total");
  (* forward progress afterwards still rotates normally *)
  now := 1005.;
  Window.observe w 4.;
  Alcotest.(check int) "forward rotation unaffected" 4 (Window.count w);
  (* a regression within the same slot is not a regression across a
     boundary — nothing counted *)
  now := 1004.;
  Window.observe w 5.;
  Alcotest.(check int) "same-interval backstep uncounted" 1 (Window.clock_regressions w)

let test_window_export () =
  let now = ref 500. in
  let w = Window.create ~clock:(fun () -> !now) ~window_seconds:60. () in
  Window.observe w 0.2;
  Window.observe w 0.4;
  let reg = Registry.create () in
  Window.export w reg ~name:"serve.e2e_seconds";
  let snap = Registry.snapshot reg in
  Alcotest.(check (float 0.)) "count gauge" 2.
    (Snapshot.gauge_value snap "serve.e2e_seconds.window.count");
  Alcotest.(check (float 1e-9)) "rate gauge over the live span" (2. /. 5.)
    (Snapshot.gauge_value snap "serve.e2e_seconds.window.rate_per_sec");
  Alcotest.(check (float 1e-9)) "mean gauge" 0.3
    (Snapshot.gauge_value snap "serve.e2e_seconds.window.mean");
  Alcotest.(check (float 1e-9)) "max gauge" 0.4
    (Snapshot.gauge_value snap "serve.e2e_seconds.window.max");
  Alcotest.(check (float 0.)) "p50 gauge matches the estimator"
    (Window.quantile w 0.5)
    (Snapshot.gauge_value snap "serve.e2e_seconds.window.p50");
  (* and re-export after more traffic overwrites, last write wins *)
  Window.observe w 0.6;
  Window.export w reg ~name:"serve.e2e_seconds";
  Alcotest.(check (float 0.)) "gauge overwritten" 3.
    (Snapshot.gauge_value (Registry.snapshot reg) "serve.e2e_seconds.window.count");
  (* no-op on the disabled registry *)
  Window.export w Registry.noop ~name:"serve.e2e_seconds";
  Alcotest.(check int) "noop registry stays empty" 0
    (List.length (Registry.snapshot Registry.noop))

(* Rotation invariants under arbitrary monotone traffic: the live count
   never exceeds what was observed, never counts anything older than the
   span, and a full idle span empties the window. *)
let window_rotation_prop =
  QCheck.Test.make ~count:200 ~name:"window rotation invariants"
    QCheck.(small_list (pair (float_bound_exclusive 30.) (float_bound_exclusive 2.)))
    (fun steps ->
      let now = ref 1000. in
      let w = Window.create ~clock:(fun () -> !now) ~slots:5 ~window_seconds:50. () in
      let observed = ref [] in
      List.iter
        (fun (dt, v) ->
          now := !now +. dt;
          Window.observe w v;
          observed := (!now, v) :: !observed)
        steps;
      let count = Window.count w in
      if count > List.length steps then
        QCheck.Test.fail_reportf "count %d exceeds %d observations" count (List.length steps);
      (* everything within the last (slots-1)/slots of the span must
         still be live: the ring never under-covers that prefix *)
      let guaranteed =
        List.length
          (List.filter (fun (at, _) -> !now -. at < 50. *. 4. /. 5.) !observed)
      in
      if count < guaranteed then
        QCheck.Test.fail_reportf "count %d drops %d guaranteed-live observations" count
          guaranteed;
      let sum = Window.sum w in
      if sum < -.1e-9 then QCheck.Test.fail_report "negative sum";
      now := !now +. 51.;
      if Window.count w <> 0 then QCheck.Test.fail_report "idle span did not empty the window";
      true)

(* Quantile estimates are monotone in q and bounded by the live
   extremes, whatever the traffic. *)
let window_quantile_prop =
  QCheck.Test.make ~count:200 ~name:"window quantiles monotone and bounded"
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 3.)) (pair pos_float pos_float))
    (fun (values, (qa, qb)) ->
      let w = Window.create ~clock:(fun () -> 1000.) ~window_seconds:60. () in
      List.iter (Window.observe w) values;
      let clamp q = Float.min 1. (Float.max 0. (Float.rem q 1.)) in
      let qa = clamp qa and qb = clamp qb in
      let lo = Float.min qa qb and hi = Float.max qa qb in
      let q_lo = Window.quantile w lo and q_hi = Window.quantile w hi in
      if q_lo > q_hi +. 1e-9 then
        QCheck.Test.fail_reportf "quantile not monotone: q(%g)=%g > q(%g)=%g" lo q_lo hi q_hi;
      if q_hi > Window.max_value w +. 1e-9 then
        QCheck.Test.fail_reportf "quantile %g exceeds max %g" q_hi (Window.max_value w);
      if q_lo < Window.min_value w -. 1e-9 then
        QCheck.Test.fail_reportf "quantile %g below min %g" q_lo (Window.min_value w);
      true)

(* SLOs *)

let test_slo_spec_codec () =
  (match Slo.spec_of_string "name=api;latency=0.25;target=0.95" with
  | Error e -> Alcotest.failf "latency spec rejected: %s" e
  | Ok s ->
      Alcotest.(check string) "name" "api" s.Slo.name;
      (match s.Slo.objective with
      | Slo.Latency { threshold_seconds; target } ->
          Alcotest.(check (float 0.)) "threshold" 0.25 threshold_seconds;
          Alcotest.(check (float 0.)) "target" 0.95 target
      | Slo.Success _ -> Alcotest.fail "expected a latency objective");
      Alcotest.(check (float 0.)) "fast default" 300. s.Slo.fast_seconds;
      Alcotest.(check (float 0.)) "slow default" 3600. s.Slo.slow_seconds;
      Alcotest.(check string)
        "canonical full form"
        "name=api;latency=0.25;target=0.95;fast=300;slow=3600;fast-burn=14;slow-burn=6"
        (Slo.spec_to_string s);
      (match Slo.spec_of_string (Slo.spec_to_string s) with
      | Ok s' -> Alcotest.(check bool) "round-trip" true (s = s')
      | Error e -> Alcotest.failf "round-trip failed: %s" e));
  (match Slo.spec_of_string "name=uptime;target=0.99;fast=60;slow=600" with
  | Error e -> Alcotest.failf "success spec rejected: %s" e
  | Ok s -> (
      match s.Slo.objective with
      | Slo.Success { target } -> Alcotest.(check (float 0.)) "success target" 0.99 target
      | Slo.Latency _ -> Alcotest.fail "latency= omitted means success objective"));
  let rejected input =
    match Slo.spec_of_string input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" input
  in
  rejected "";
  rejected "target=0.9";
  rejected "name=x";
  rejected "name=x;target=1.5";
  rejected "name=x;target=0.9;surprise=1";
  rejected "name=x;target=0.9;target=0.8";
  rejected "name=x;target=0.9;fast=600;slow=300";
  rejected "name=x;target=nope"

let test_slo_latency_classification () =
  let t =
    Slo.create
      ~clock:(fun () -> 1000.)
      (Slo.spec ~name:"lat" (Slo.Latency { threshold_seconds = 0.25; target = 0.9 }))
  in
  Slo.record t ~ok:true ~latency_seconds:0.2;
  (* within threshold: good *)
  Slo.record t ~ok:true ~latency_seconds:0.3;
  (* too slow: bad despite ok *)
  Slo.record t ~ok:true;
  (* ok without a latency reading: conservatively bad *)
  Slo.record t ~ok:false ~latency_seconds:0.1;
  (* failed: bad regardless of latency *)
  let e = Slo.evaluate t in
  Alcotest.(check int) "good" 1 e.Slo.good_total;
  Alcotest.(check int) "bad" 3 e.Slo.bad_total

(* Burn-rate behaviour on a fake clock: all-bad traffic burns at
   1/(1-target) — 4x with target 0.75, chosen so the arithmetic is exact
   in floating point — aging the bad window out resolves, and only the
   two transitions reach the log. *)
let test_slo_burn_golden () =
  let now = ref 1000. in
  let log, lines = buffer_log () in
  let spec =
    match Slo.spec_of_string "name=api;target=0.75;fast-burn=3;slow-burn=2" with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let t = Slo.create ~clock:(fun () -> !now) spec in
  let e0 = Slo.evaluate ~log t in
  Alcotest.(check bool) "quiet at rest" false e0.Slo.burning;
  Alcotest.(check (float 0.)) "budget untouched" 1. e0.Slo.budget_remaining;
  for _ = 1 to 5 do
    Slo.record t ~ok:false
  done;
  let e1 = Slo.evaluate ~log t in
  Alcotest.(check bool) "firing" true e1.Slo.burning;
  Alcotest.(check bool) "transition" true e1.Slo.changed;
  Alcotest.(check (float 0.)) "fast burn 4x" 4. e1.Slo.fast_burn_rate;
  Alcotest.(check (float 0.)) "slow burn 4x" 4. e1.Slo.slow_burn_rate;
  Alcotest.(check (float 0.)) "budget overspent" (-3.) e1.Slo.budget_remaining;
  let e2 = Slo.evaluate ~log t in
  Alcotest.(check bool) "still firing" true e2.Slo.burning;
  Alcotest.(check bool) "no re-transition" false e2.Slo.changed;
  Alcotest.(check bool) "burning reads last evaluation" true (Slo.burning t);
  (* both windows age out over an idle hour-plus: resolved *)
  now := !now +. 4000.;
  let e3 = Slo.evaluate ~log t in
  Alcotest.(check bool) "resolved" false e3.Slo.burning;
  Alcotest.(check bool) "transition back" true e3.Slo.changed;
  Alcotest.(check (list string))
    "only the two transitions logged"
    [
      {|{"ts":1.5,"level":"warn","msg":"slo alert firing","slo":"api","fast_burn_rate":4,"slow_burn_rate":4,"budget_remaining":-3}|};
      {|{"ts":1.5,"level":"info","msg":"slo alert resolved","slo":"api","fast_burn_rate":0,"slow_burn_rate":0,"budget_remaining":-3}|};
    ]
    (lines ())

let test_slo_export_gauges () =
  let now = ref 1000. in
  let t =
    Slo.create ~clock:(fun () -> !now)
      (match Slo.spec_of_string "name=api;target=0.95" with
      | Ok s -> s
      | Error e -> Alcotest.failf "spec: %s" e)
  in
  let reg = Registry.create () in
  Slo.record t ~ok:true;
  Slo.export t reg;
  let snap = Registry.snapshot reg in
  Alcotest.(check (float 0.)) "quiet burn gauge" 0.
    (Snapshot.gauge_value snap "obs.slo.api.fast_burn_rate");
  Alcotest.(check (float 0.)) "full budget gauge" 1.
    (Snapshot.gauge_value snap "obs.slo.api.budget_remaining");
  Alcotest.(check (float 0.)) "not burning" 0. (Snapshot.gauge_value snap "obs.slo.api.burning");
  for _ = 1 to 9 do
    Slo.record t ~ok:false
  done;
  Slo.export t reg;
  let snap = Registry.snapshot reg in
  Alcotest.(check (float 1e-9)) "burn gauge updated" 18.
    (Snapshot.gauge_value snap "obs.slo.api.fast_burn_rate");
  Alcotest.(check (float 0.)) "burning flag set" 1.
    (Snapshot.gauge_value snap "obs.slo.api.burning")

let () =
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "zero incr registers" `Quick test_zero_incr_registers;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "handle cells shared" `Quick test_handle_cells_shared;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "noop registry" `Quick test_noop_registry;
          Tq.to_alcotest registry_matches_reference_prop;
          Alcotest.test_case "kept updates allocate nothing" `Quick test_updates_allocate_nothing;
          Alcotest.test_case "a span allocates its value only" `Quick test_span_allocates_its_value;
        ] );
      ( "spans",
        [
          Alcotest.test_case "fake clock" `Quick test_span_fake_clock;
          Alcotest.test_case "clamps backward clock" `Quick test_span_clamps_backward_clock;
          Alcotest.test_case "time wraps raise" `Quick test_span_time_wraps_raise;
          Alcotest.test_case "disabled spans skip clock and sink" `Quick
            test_disabled_span_skips_clock_and_sink;
        ] );
      ( "traces",
        [
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "attributes" `Quick test_trace_attrs;
          Alcotest.test_case "bounded buffer" `Quick test_trace_capacity;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_safety;
          Alcotest.test_case "noop" `Quick test_trace_noop;
          Alcotest.test_case "decision records" `Quick test_trace_decisions;
          Alcotest.test_case "chrome trace events" `Quick test_trace_chrome_json;
          Alcotest.test_case "engine trace file hierarchy" `Quick test_engine_trace_file;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "determinism" `Quick test_snapshot_determinism;
          Alcotest.test_case "json +inf" `Quick test_snapshot_json_infinity;
          Alcotest.test_case "json round-trip with +inf bucket" `Quick
            test_snapshot_roundtrip_inf_bucket;
          Tq.to_alcotest snapshot_roundtrip_prop;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "wall clock monotone" `Quick test_wall_clock_monotone;
          Alcotest.test_case "bucket layout conflict" `Quick test_bucket_layout_conflict;
          Alcotest.test_case "profile records wall and gc" `Quick test_profile_records;
          Alcotest.test_case "disabled profile reads no clock" `Quick
            test_profile_disabled_is_free;
        ] );
      ( "log",
        [
          Alcotest.test_case "record shape" `Quick test_log_shape;
          Alcotest.test_case "span correlation" `Quick test_log_span_correlation;
          Alcotest.test_case "level threshold" `Quick test_log_level_threshold;
          Alcotest.test_case "escaping" `Quick test_log_escaping;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "empty snapshot" `Quick test_openmetrics_empty;
          Alcotest.test_case "name and help escaping" `Quick test_openmetrics_escaping;
          Alcotest.test_case "cumulative histogram with +Inf" `Quick
            test_openmetrics_histogram;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Tq.to_alcotest openmetrics_shape_prop;
          Tq.to_alcotest openmetrics_matches_printf_prop;
        ] );
      ( "labels",
        [
          Alcotest.test_case "canonical form and escaping" `Quick test_labels_canonical;
          Alcotest.test_case "labeled exposition golden" `Quick test_openmetrics_labels;
        ] );
      ( "windows",
        [
          Alcotest.test_case "basics and validation" `Quick test_window_basics;
          Alcotest.test_case "ring rotation and idle decay" `Quick test_window_rotation;
          Alcotest.test_case "clock regression keeps live slots" `Quick
            test_window_clock_regression;
          Alcotest.test_case "export gauge family" `Quick test_window_export;
          Tq.to_alcotest window_rotation_prop;
          Tq.to_alcotest window_quantile_prop;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec codec" `Quick test_slo_spec_codec;
          Alcotest.test_case "latency classification" `Quick test_slo_latency_classification;
          Alcotest.test_case "burn-rate transitions on a fake clock" `Quick
            test_slo_burn_golden;
          Alcotest.test_case "export gauges" `Quick test_slo_export_gauges;
        ] );
      ( "engine",
        [
          Alcotest.test_case "counts match snapshot" `Quick test_engine_counts_match_snapshot;
          Alcotest.test_case "deploy stage" `Quick test_engine_deploy_stage;
          Alcotest.test_case "deploy trace nesting" `Quick test_engine_deploy_trace_nesting;
          Alcotest.test_case "shared registry accumulates" `Quick
            test_engine_shared_registry_accumulates;
          Alcotest.test_case "typed errors" `Quick test_engine_errors;
        ] );
    ]
