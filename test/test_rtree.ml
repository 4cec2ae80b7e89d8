(* Unit and property tests for the R-tree substrate behind Baseline3. *)

module P = Stratrec_geom.Point3
module B = Stratrec_geom.Box3
module R = Stratrec_geom.Rtree
module Rng = Stratrec_util.Rng

let random_points seed n =
  let rng = Rng.create seed in
  List.init n (fun i -> (P.make (Rng.float rng 1.) (Rng.float rng 1.) (Rng.float rng 1.), i))

let linear_scan entries box =
  List.filter (fun (p, _) -> B.contains_point box p) entries
  |> List.map snd |> List.sort compare

let tree_search tree box = R.search tree box |> List.map snd |> List.sort compare

let test_empty () =
  let t = R.empty () in
  Alcotest.(check int) "size" 0 (R.size t);
  Alcotest.(check (list int)) "search" []
    (tree_search t (B.anchored (P.make 1. 1. 1.)));
  Alcotest.(check bool) "invariants" true (R.check_invariants t = Ok ())

let test_insert_small () =
  let entries = random_points 1 20 in
  let t = List.fold_left (fun t (p, v) -> R.insert t p v) (R.empty ()) entries in
  Alcotest.(check int) "size" 20 (R.size t);
  Alcotest.(check bool) "invariants" true (R.check_invariants t = Ok ());
  let box = B.make ~lo:(P.make 0. 0. 0.) ~hi:(P.make 0.5 0.5 0.5) in
  Alcotest.(check (list int)) "query matches scan" (linear_scan entries box)
    (tree_search t box)

let test_bulk_load_matches_scan () =
  let entries = random_points 2 500 in
  let t = R.bulk_load entries in
  Alcotest.(check int) "size" 500 (R.size t);
  Alcotest.(check bool) "invariants" true (R.check_invariants t = Ok ());
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let lo = P.make (Rng.float rng 0.5) (Rng.float rng 0.5) (Rng.float rng 0.5) in
      let hi =
        P.make
          (P.coord lo 0 +. Rng.float rng 0.5)
          (P.coord lo 1 +. Rng.float rng 0.5)
          (P.coord lo 2 +. Rng.float rng 0.5)
      in
      let box = B.make ~lo ~hi in
      Alcotest.(check (list int)) "query matches scan" (linear_scan entries box)
        (tree_search t box))
    [ 10; 11; 12; 13; 14 ]

let test_persistence () =
  let t0 = R.empty () in
  let t1 = R.insert t0 (P.make 0.5 0.5 0.5) 1 in
  Alcotest.(check int) "old tree unchanged" 0 (R.size t0);
  Alcotest.(check int) "new tree grown" 1 (R.size t1)

let test_nodes_counts () =
  let entries = random_points 4 64 in
  let t = R.bulk_load entries in
  let nodes = R.nodes t in
  Alcotest.(check bool) "has nodes" true (List.length nodes > 1);
  (* Root (first in pre-order) counts everything. *)
  (match nodes with
  | (root_box, root_count) :: _ ->
      Alcotest.(check int) "root count" 64 root_count;
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool) "root MBB covers all" true (B.contains_point root_box p))
        entries
  | [] -> Alcotest.fail "no nodes");
  (* Node counts never exceed the root's and are at least 1. *)
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "count in range" true (c >= 1 && c <= 64))
    nodes

let test_duplicates () =
  let p = P.make 0.5 0.5 0.5 in
  let entries = List.init 30 (fun i -> (p, i)) in
  let t = R.bulk_load entries in
  Alcotest.(check int) "all duplicates stored" 30 (List.length (R.search t (B.of_point p)));
  Alcotest.(check bool) "invariants" true (R.check_invariants t = Ok ())

let prop_insert_search_equivalence =
  QCheck.Test.make ~count:60 ~name:"insert-built tree equals linear scan"
    QCheck.(list_of_size Gen.(0 -- 120) (triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.)))
    (fun coords ->
      let entries = List.mapi (fun i (x, y, z) -> (P.make x y z, i)) coords in
      let t = List.fold_left (fun t (p, v) -> R.insert t p v) (R.empty ()) entries in
      let box = B.make ~lo:(P.make 0.2 0.2 0.2) ~hi:(P.make 0.8 0.8 0.8) in
      R.check_invariants t = Ok () && tree_search t box = linear_scan entries box)

let prop_bulk_load_equivalence =
  QCheck.Test.make ~count:60 ~name:"bulk-loaded tree equals linear scan"
    QCheck.(list_of_size Gen.(0 -- 200) (triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.)))
    (fun coords ->
      let entries = List.mapi (fun i (x, y, z) -> (P.make x y z, i)) coords in
      let t = R.bulk_load entries in
      let box = B.make ~lo:(P.make 0. 0. 0.) ~hi:(P.make 0.5 1. 1.) in
      R.check_invariants t = Ok () && tree_search t box = linear_scan entries box)

let () =
  Alcotest.run "rtree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert small" `Quick test_insert_small;
          Alcotest.test_case "bulk load matches scan" `Quick test_bulk_load_matches_scan;
          Alcotest.test_case "persistence" `Quick test_persistence;
          Alcotest.test_case "nodes counts" `Quick test_nodes_counts;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [ prop_insert_search_equivalence; prop_bulk_load_equivalence ] );
    ]
