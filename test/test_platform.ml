(* Unit tests for the simulated platform's recruitment pipeline. *)

module Rng = Stratrec_util.Rng
module Sim = Stratrec_crowdsim

let platform seed = Sim.Platform.create (Rng.create seed) ~population:600

let test_create () =
  let p = platform 1 in
  Alcotest.(check int) "population" 600 (Sim.Platform.population p);
  Alcotest.(check int) "workers array" 600 (Array.length (Sim.Platform.workers p));
  Alcotest.check_raises "bad population"
    (Invalid_argument "Platform.create: population must be positive") (fun () ->
      ignore (Sim.Platform.create (Rng.create 2) ~population:0))

let test_qualified_pool_respects_filters () =
  let p = platform 3 in
  let rng = Rng.create 4 in
  let pool = Sim.Platform.qualified_pool p rng Sim.Task_spec.Text_creation in
  Alcotest.(check bool) "non-empty pool" true (List.length pool > 0);
  List.iter
    (fun w ->
      Alcotest.(check bool) "meets filters" true
        (Sim.Worker.meets_recruitment_filters w Sim.Task_spec.Text_creation))
    pool

let test_recruit_bounds () =
  let p = platform 5 in
  let rng = Rng.create 6 in
  for _ = 1 to 30 do
    let r =
      Sim.Platform.recruit p rng ~kind:Sim.Task_spec.Sentence_translation
        ~window:Sim.Window.Early_week ~capacity:10
    in
    Alcotest.(check bool) "hired within capacity" true (List.length r.Sim.Platform.hired <= 10);
    Alcotest.(check bool) "availability in [0,1]" true
      (r.Sim.Platform.availability >= 0. && r.Sim.Platform.availability <= 1.);
    Alcotest.(check (float 1e-9)) "ratio consistent"
      (float_of_int (List.length r.Sim.Platform.hired) /. 10.)
      r.Sim.Platform.availability
  done;
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Platform.recruit: capacity must be positive") (fun () ->
      ignore
        (Sim.Platform.recruit p rng ~kind:Sim.Task_spec.Sentence_translation
           ~window:Sim.Window.Early_week ~capacity:0))

let test_window_effect () =
  (* Averaged over many recruitments, the busy window yields availability
     at least as high as the quiet one. *)
  let p = platform 7 in
  let rng = Rng.create 8 in
  let mean window =
    let total = ref 0. in
    for _ = 1 to 150 do
      let r =
        Sim.Platform.recruit p rng ~kind:Sim.Task_spec.Sentence_translation ~window ~capacity:10
      in
      total := !total +. r.Sim.Platform.availability
    done;
    !total /. 150.
  in
  let early = mean Sim.Window.Early_week and late = mean Sim.Window.Late_week in
  Alcotest.(check bool) "early-week busier" true (early > late)

let () =
  Alcotest.run "platform"
    [
      ( "platform",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "qualified pool" `Quick test_qualified_pool_respects_filters;
          Alcotest.test_case "recruit bounds" `Quick test_recruit_bounds;
          Alcotest.test_case "window effect" `Slow test_window_effect;
        ] );
    ]
