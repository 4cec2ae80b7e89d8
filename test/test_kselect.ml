(* Unit and property tests for the test-local k-smallest reference that
   the ADPaR and workforce oracles compare against. *)

module Kselect = Kselect_ref

let test_basic () =
  let arr = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (list (float 0.)))
    "k=3" [ 1.; 2.; 3. ]
    (Kselect.k_smallest ~cmp:compare 3 arr);
  Alcotest.(check (list (float 0.)))
    "k > n returns all sorted" [ 1.; 2.; 3.; 4.; 5. ]
    (Kselect.k_smallest ~cmp:compare 10 arr);
  Alcotest.(check (list (float 0.))) "k=0" [] (Kselect.k_smallest ~cmp:compare 0 arr)

let test_kth_smallest () =
  let arr = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (option (float 0.))) "1st" (Some 1.) (Kselect.kth_smallest ~cmp:compare 1 arr);
  Alcotest.(check (option (float 0.))) "5th" (Some 5.) (Kselect.kth_smallest ~cmp:compare 5 arr);
  Alcotest.(check (option (float 0.))) "6th" None (Kselect.kth_smallest ~cmp:compare 6 arr);
  Alcotest.(check (option (float 0.))) "0th" None (Kselect.kth_smallest ~cmp:compare 0 arr)

let test_indices () =
  let arr = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (list int)) "indices of 2 smallest" [ 1; 3 ]
    (Kselect.k_smallest_indices ~cmp:compare 2 arr)

let test_indices_ties () =
  let arr = [| 2.; 1.; 1.; 1. |] in
  (* Ties broken by index. *)
  Alcotest.(check (list int)) "tie order" [ 1; 2 ] (Kselect.k_smallest_indices ~cmp:compare 2 arr)

let test_tracker () =
  let t = Kselect.Tracker.create ~cmp:compare 3 in
  Alcotest.(check (option int)) "empty" None (Kselect.Tracker.kth t);
  Kselect.Tracker.add t 5;
  Kselect.Tracker.add t 1;
  Alcotest.(check (option int)) "two elements" None (Kselect.Tracker.kth t);
  Kselect.Tracker.add t 4;
  Alcotest.(check (option int)) "kth of {5,1,4}" (Some 5) (Kselect.Tracker.kth t);
  Kselect.Tracker.add t 2;
  Alcotest.(check (option int)) "kth of {5,1,4,2}" (Some 4) (Kselect.Tracker.kth t);
  Kselect.Tracker.add t 0;
  Alcotest.(check (option int)) "kth of {5,1,4,2,0}" (Some 2) (Kselect.Tracker.kth t);
  Alcotest.(check int) "count" 5 (Kselect.Tracker.count t)

let test_invalid () =
  Alcotest.check_raises "negative k" (Invalid_argument "Kselect_ref.k_smallest: negative k")
    (fun () -> ignore (Kselect.k_smallest ~cmp:compare (-1) [| 1 |]));
  Alcotest.check_raises "tracker k=0"
    (Invalid_argument "Kselect_ref.Tracker.create: k must be >= 1") (fun () ->
      ignore (Kselect.Tracker.create ~cmp:compare 0))

let prop_matches_sort =
  QCheck.Test.make ~count:500 ~name:"k_smallest equals sorted prefix"
    QCheck.(pair (int_bound 20) (list small_int))
    (fun (k, l) ->
      let arr = Array.of_list l in
      let expected =
        List.filteri (fun i _ -> i < k) (List.sort compare l)
      in
      Kselect.k_smallest ~cmp:compare k arr = expected)

let test_tracker_contents () =
  let t = Kselect.Tracker.create ~cmp:compare 3 in
  List.iter (Kselect.Tracker.add t) [ 9; 2; 7; 1; 8 ];
  Alcotest.(check (list int)) "three smallest ascending" [ 1; 2; 7 ]
    (Kselect.Tracker.contents t);
  Alcotest.(check (option int)) "tracker unchanged" (Some 7) (Kselect.Tracker.kth t)

let prop_tracker_contents_match_sort =
  QCheck.Test.make ~count:300 ~name:"tracker contents equal sorted prefix"
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (k, l) ->
      let t = Kselect.Tracker.create ~cmp:compare k in
      List.iter (Kselect.Tracker.add t) l;
      Kselect.Tracker.contents t = List.filteri (fun i _ -> i < k) (List.sort compare l))

let prop_tracker_matches_offline =
  QCheck.Test.make ~count:500 ~name:"tracker kth equals offline kth"
    QCheck.(pair (int_range 1 10) (list small_int))
    (fun (k, l) ->
      let t = Kselect.Tracker.create ~cmp:compare k in
      List.iter (Kselect.Tracker.add t) l;
      Kselect.Tracker.kth t = Kselect.kth_smallest ~cmp:compare k (Array.of_list l))

let () =
  Alcotest.run "kselect"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "kth smallest" `Quick test_kth_smallest;
          Alcotest.test_case "indices" `Quick test_indices;
          Alcotest.test_case "indices ties" `Quick test_indices_ties;
          Alcotest.test_case "tracker" `Quick test_tracker;
          Alcotest.test_case "tracker contents" `Quick test_tracker_contents;
          Alcotest.test_case "invalid args" `Quick test_invalid;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [ prop_matches_sort; prop_tracker_matches_offline; prop_tracker_contents_match_sort ]
      );
    ]
