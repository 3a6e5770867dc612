(* Differential suite: the importance-sampling oracle against the exact
   product semantics, and against its own crude Monte-Carlo special case,
   on a fixed population of randomly generated small models.

   Every model is small enough for [Sdft_product.solve] to give the exact
   Section III-C probability, so the importance-sampling estimator — a
   completely independent computation path (sampling + likelihood
   reweighting vs uniformized transient analysis) — must bracket it with
   its confidence interval. Seeds are fixed, so these are deterministic
   regression tests, not flaky statistical ones: the tolerances below were
   chosen once against the expected 99% coverage and then frozen. *)

let horizon = 8.0

let trials = 20_000

(* 20 fixed generator seeds; a model whose product chain is too large for
   the exact solver is skipped (the bound protects the oracle, not us). *)
let seeds = [ 3; 7; 11; 19; 23; 31; 42; 57; 64; 71; 88; 99; 104; 123; 151; 208; 313; 404; 512; 777 ]

let exact_of sd =
  match Sdft_product.solve sd ~horizon with
  | exact -> Some exact
  | exception Sdft_product.Too_many_states _ -> None

let is_options seed =
  { Rare_event.default_options with trials; batch = 1024; seed }

(* IS 99% confidence interval (plus one extra standard error of slack for
   the expected handful of >2.58-sigma draws among 20 models) contains the
   exact product probability. *)
let test_is_ci_contains_exact () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let sd = Gen_sdft.sd seed in
      match exact_of sd with
      | None -> ()
      | Some exact ->
        incr checked;
        let e = Rare_event.run ~options:(is_options seed) sd ~horizon in
        let lo, hi = Rare_event.confidence ~z:Rare_event.z99 e in
        let slack = e.Rare_event.std_error +. 1e-9 in
        if exact < lo -. slack || exact > hi +. slack then
          Alcotest.failf
            "seed %d: exact %.6e outside IS 99%% CI [%.6e, %.6e] (se %.2e)"
            seed exact lo hi e.Rare_event.std_error)
    seeds;
  if !checked < 15 then
    Alcotest.failf "only %d/20 models were solvable exactly" !checked

(* On these non-rare models crude Monte-Carlo also observes failures, so
   the two estimators must agree within their combined standard errors. *)
let test_is_agrees_with_crude () =
  List.iter
    (fun seed ->
      let sd = Gen_sdft.sd seed in
      let opts = is_options seed in
      let is = Rare_event.run ~options:opts sd ~horizon in
      let crude = Rare_event.run ~options:(Rare_event.crude opts) sd ~horizon in
      let se =
        sqrt
          ((is.Rare_event.std_error *. is.Rare_event.std_error)
          +. (crude.Rare_event.std_error *. crude.Rare_event.std_error))
      in
      let diff = Float.abs (is.Rare_event.estimate -. crude.Rare_event.estimate) in
      if diff > (4.0 *. se) +. 1e-9 then
        Alcotest.failf
          "seed %d: IS %.6e vs crude %.6e differ by %.2e > 4 x combined se %.2e"
          seed is.Rare_event.estimate crude.Rare_event.estimate diff se)
    seeds

(* The crude special case of the weighted estimator must agree with the
   original [Simulator] (same sampling measure, independent streams). *)
let test_crude_agrees_with_simulator () =
  let sd = Gen_sdft.sd 42 in
  let crude =
    Rare_event.run ~options:(Rare_event.crude (is_options 5)) sd ~horizon
  in
  let stats = Simulator.unreliability ~seed:6 sd ~horizon ~trials in
  let se =
    sqrt
      ((crude.Rare_event.std_error *. crude.Rare_event.std_error)
      +. (stats.Simulator.std_error *. stats.Simulator.std_error))
  in
  let diff = Float.abs (crude.Rare_event.estimate -. stats.Simulator.estimate) in
  if diff > 4.0 *. se then
    Alcotest.failf "crude %.6e vs simulator %.6e (> 4 sigma)"
      crude.Rare_event.estimate stats.Simulator.estimate

(* End-to-end: an importance-sampling 99% interval checked against the
   analytic pipeline's certified budget interval, as [simulate] does, holds
   on the running example. *)
let test_verify_pumps_overlaps () =
  let sd = Pumps.sd_tree () in
  let result = Sdft_analysis.analyze sd in
  let options = { Rare_event.default_options with trials = 50_000; seed = 13 } in
  let e = Rare_event.run ~options sd ~horizon:24.0 in
  let check =
    Sdft_analysis.verify_sim result
      ~sim_ci:(Rare_event.confidence ~z:Rare_event.z99 e)
  in
  Alcotest.(check bool) "overlaps" true check.Sdft_analysis.overlaps;
  Alcotest.(check bool) "not vacuous" false check.Sdft_analysis.vacuous_budget;
  Alcotest.(check (float 1e-12)) "no gap" 0.0 check.Sdft_analysis.gap

let () =
  Alcotest.run "differential"
    [
      ( "is-vs-exact",
        [
          Alcotest.test_case "IS CI contains exact" `Slow test_is_ci_contains_exact;
          Alcotest.test_case "IS agrees with crude" `Slow test_is_agrees_with_crude;
          Alcotest.test_case "crude agrees with Simulator" `Slow
            test_crude_agrees_with_simulator;
          Alcotest.test_case "verify on pumps" `Slow test_verify_pumps_overlaps;
        ] );
    ]
