(* Unit and property tests for Point3 and Box3. *)

module P = Stratrec_geom.Point3
module B = Stratrec_geom.Box3

let point = Alcotest.testable P.pp P.equal

let test_coords () =
  let p = P.make 1. 2. 3. in
  Alcotest.(check (float 0.)) "x" 1. (P.coord p 0);
  Alcotest.(check (float 0.)) "y" 2. (P.coord p 1);
  Alcotest.(check (float 0.)) "z" 3. (P.coord p 2);
  Alcotest.check_raises "axis 3" (Invalid_argument "Point3.coord: axis 3") (fun () ->
      ignore (P.coord p 3))

let test_dominance () =
  let a = P.make 0.1 0.2 0.3 and b = P.make 0.2 0.2 0.4 in
  Alcotest.(check bool) "a dominates b" true (P.weakly_dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (P.weakly_dominates b a);
  Alcotest.(check bool) "weak self domination" true (P.weakly_dominates a a);
  let c = P.make 0.05 0.5 0.3 in
  Alcotest.(check bool) "incomparable 1" false (P.weakly_dominates a c);
  Alcotest.(check bool) "incomparable 2" false (P.weakly_dominates c a)

let test_distance () =
  let a = P.make 0. 0. 0. and b = P.make 1. 2. 2. in
  Alcotest.(check (float 1e-9)) "l2" 3. (P.l2_distance a b);
  Alcotest.(check (float 1e-9)) "squared" 9. (P.squared_distance a b);
  Alcotest.(check (float 1e-9)) "symmetric" (P.l2_distance b a) (P.l2_distance a b)

let test_componentwise () =
  let a = P.make 1. 5. 3. and b = P.make 2. 4. 3. in
  Alcotest.check point "max" (P.make 2. 5. 3.) (P.componentwise_max a b);
  Alcotest.check point "min" (P.make 1. 4. 3.) (P.componentwise_min a b)

let test_compare_lexicographic () =
  Alcotest.(check bool) "x first" true (P.compare (P.make 0. 9. 9.) (P.make 1. 0. 0.) < 0);
  Alcotest.(check bool) "then y" true (P.compare (P.make 1. 0. 9.) (P.make 1. 1. 0.) < 0);
  Alcotest.(check bool) "then z" true (P.compare (P.make 1. 1. 0.) (P.make 1. 1. 1.) < 0);
  Alcotest.(check int) "equal" 0 (P.compare (P.make 1. 1. 1.) (P.make 1. 1. 1.))

let test_box_basics () =
  let box = B.make ~lo:(P.make 0. 0. 0.) ~hi:(P.make 2. 3. 4.) in
  Alcotest.(check (float 1e-9)) "volume" 24. (B.volume box);
  Alcotest.(check bool) "contains corner" true (B.contains_point box (P.make 2. 3. 4.));
  Alcotest.(check bool) "contains interior" true (B.contains_point box (P.make 1. 1. 1.));
  Alcotest.(check bool) "excludes outside" false (B.contains_point box (P.make 2.1 0. 0.));
  Alcotest.check_raises "inverted box" (Invalid_argument "Box3.make: lo must dominate hi")
    (fun () -> ignore (B.make ~lo:(P.make 1. 0. 0.) ~hi:(P.make 0. 1. 1.)))

let test_box_union_enlargement () =
  let a = B.of_point (P.make 0. 0. 0.) in
  let b = B.of_point (P.make 1. 1. 1.) in
  let u = B.union a b in
  Alcotest.(check (float 1e-9)) "union volume" 1. (B.volume u);
  Alcotest.(check (float 1e-9)) "enlargement" 1. (B.enlargement a b);
  Alcotest.(check bool) "union contains both" true
    (B.contains_point u (P.make 0. 0. 0.) && B.contains_point u (P.make 1. 1. 1.))

let test_box_intersects () =
  let a = B.make ~lo:(P.make 0. 0. 0.) ~hi:(P.make 1. 1. 1.) in
  let b = B.make ~lo:(P.make 0.5 0.5 0.5) ~hi:(P.make 2. 2. 2.) in
  let c = B.make ~lo:(P.make 1.5 1.5 1.5) ~hi:(P.make 2. 2. 2.) in
  Alcotest.(check bool) "overlap" true (B.intersects a b);
  Alcotest.(check bool) "touching is intersecting" true (B.intersects b c);
  Alcotest.(check bool) "disjoint" false (B.intersects a c)

let test_anchored () =
  let box = B.anchored (P.make 0.3 0.4 0.5) in
  Alcotest.(check bool) "origin inside" true (B.contains_point box P.zero);
  Alcotest.check point "top right" (P.make 0.3 0.4 0.5) (B.top_right box)

let pt_gen = QCheck.(triple (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.))
let mk (x, y, z) = P.make x y z

let prop_dominance_transitive =
  QCheck.Test.make ~count:500 ~name:"weak dominance is transitive"
    QCheck.(triple pt_gen pt_gen pt_gen)
    (fun (a, b, c) ->
      let a = mk a and b = mk b and c = mk c in
      (not (P.weakly_dominates a b && P.weakly_dominates b c)) || P.weakly_dominates a c)

let prop_union_contains =
  QCheck.Test.make ~count:500 ~name:"union contains both points"
    QCheck.(pair pt_gen pt_gen)
    (fun (a, b) ->
      let a = mk a and b = mk b in
      let u = B.union (B.of_point a) (B.of_point b) in
      B.contains_point u a && B.contains_point u b)

let prop_triangle_inequality =
  QCheck.Test.make ~count:500 ~name:"l2 triangle inequality"
    QCheck.(triple pt_gen pt_gen pt_gen)
    (fun (a, b, c) ->
      let a = mk a and b = mk b and c = mk c in
      P.l2_distance a c <= P.l2_distance a b +. P.l2_distance b c +. 1e-9)

let () =
  Alcotest.run "geom"
    [
      ( "point3",
        [
          Alcotest.test_case "coords" `Quick test_coords;
          Alcotest.test_case "dominance" `Quick test_dominance;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "componentwise" `Quick test_componentwise;
          Alcotest.test_case "lexicographic compare" `Quick test_compare_lexicographic;
        ] );
      ( "box3",
        [
          Alcotest.test_case "basics" `Quick test_box_basics;
          Alcotest.test_case "union/enlargement" `Quick test_box_union_enlargement;
          Alcotest.test_case "intersects" `Quick test_box_intersects;
          Alcotest.test_case "anchored" `Quick test_anchored;
        ] );
      ( "properties",
        List.map Tq.to_alcotest
          [ prop_dominance_transitive; prop_union_contains; prop_triangle_inequality ] );
    ]
