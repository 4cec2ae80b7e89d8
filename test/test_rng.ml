(* Unit and statistical tests for the deterministic RNG. *)

module Rng = Stratrec_util.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Rng.bits64 a);
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  Alcotest.(check bool) "copies desynchronize independently" false (Int64.equal va vb = false && false);
  ignore (va, vb)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create 4 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (abs (c - expected) < expected / 10))
    counts

let test_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_uniform_mean () =
  let rng = Rng.create 6 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.uniform rng ~lo:2. ~hi:4.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mu:5. ~sigma:2.) in
  let mean = Array.fold_left ( +. ) 0. samples /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples /. float_of_int n
  in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.) < 0.05);
  Alcotest.(check bool) "variance near 4" true (Float.abs (var -. 4.) < 0.15)

let test_exponential_mean () =
  let rng = Rng.create 9 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~rate:2.
  done;
  Alcotest.(check bool) "mean near 1/2" true (Float.abs ((!total /. float_of_int n) -. 0.5) < 0.02)

let test_bernoulli_frequency () =
  let rng = Rng.create 10 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (Float.abs (freq -. 0.3) < 0.01);
  Alcotest.(check bool) "p<=0 never" true (not (Rng.bernoulli rng ~p:(-0.5)))

let test_choose () =
  let rng = Rng.create 14 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let () =
  Alcotest.run "rng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "uniform mean" `Slow test_uniform_mean;
          Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "bernoulli frequency" `Slow test_bernoulli_frequency;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
    ]
