(* Unit tests for the sweep-line event structure of ADPaR-Exact. *)

module Sweep = Stratrec_geom.Sweep

let test_sorting () =
  let s = Sweep.of_events [ (0.3, "a"); (0.1, "b"); (0.2, "c") ] in
  Alcotest.(check int) "length" 3 (Sweep.length s);
  Alcotest.(check (float 0.)) "key 0" 0.1 (Sweep.key s 0);
  Alcotest.(check string) "payload 0" "b" (Sweep.payload s 0);
  Alcotest.(check (float 0.)) "key 2" 0.3 (Sweep.key s 2);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Sweep: index 3 out of bounds")
    (fun () -> ignore (Sweep.key s 3))

let test_stability () =
  (* Equal keys keep insertion order (the paper's Table 4 tie handling). *)
  let s = Sweep.of_events [ (0., "first"); (0., "second"); (0., "third") ] in
  Alcotest.(check string) "first" "first" (Sweep.payload s 0);
  Alcotest.(check string) "second" "second" (Sweep.payload s 1);
  Alcotest.(check string) "third" "third" (Sweep.payload s 2)

let test_empty () =
  let s = Sweep.of_events ([] : (float * int) list) in
  Alcotest.(check int) "length" 0 (Sweep.length s);
  Alcotest.check_raises "no index 0" (Invalid_argument "Sweep: index 0 out of bounds")
    (fun () -> ignore (Sweep.key s 0))

let prop_sorted =
  QCheck.Test.make ~count:300 ~name:"events come out key-sorted"
    QCheck.(list (pair (float_range 0. 1.) small_int))
    (fun events ->
      let s = Sweep.of_events events in
      let rec ascending i =
        i + 1 >= Sweep.length s || (Sweep.key s i <= Sweep.key s (i + 1) && ascending (i + 1))
      in
      Sweep.length s = List.length events && ascending 0)

let () =
  Alcotest.run "sweep"
    [
      ( "sweep",
        [
          Alcotest.test_case "sorting" `Quick test_sorting;
          Alcotest.test_case "stability" `Quick test_stability;
          Alcotest.test_case "empty" `Quick test_empty;
          Tq.to_alcotest prop_sorted;
        ] );
    ]
