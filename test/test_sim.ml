(* Tests for the Monte-Carlo simulator: statistical agreement with the exact
   product semantics and with closed forms. *)

let check_within_sigma ?(sigma = 4.0) exact (stats : Simulator.stats) =
  let err = Float.abs (stats.Simulator.estimate -. exact) in
  let bound = sigma *. Float.max stats.Simulator.std_error 1e-9 in
  if err > bound then
    Alcotest.failf "estimate %.5f vs exact %.5f (>%g sigma)"
      stats.Simulator.estimate exact sigma

let test_static_tree_estimate () =
  (* Static tree: simulation is just Bernoulli sampling of the scenarios. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.3 "x" in
  let y = Fault_tree.Builder.basic b ~prob:0.4 "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd = Sdft.static_only tree in
  let stats = Simulator.unreliability ~seed:1 sd ~horizon:1.0 ~trials:100_000 in
  check_within_sigma (1.0 -. (0.7 *. 0.6)) stats

let test_exponential_event () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd = Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:0.1 ()) ] ~triggers:[] in
  let t = 8.0 in
  let stats = Simulator.unreliability ~seed:2 sd ~horizon:t ~trials:100_000 in
  check_within_sigma (1.0 -. exp (-0.1 *. t)) stats

let test_simulator_vs_product_with_triggers () =
  (* A model that exercises triggering, untriggering after repair, and
     re-triggering: top = AND(x, y), y triggered by x's wrapper, x
     repairable. Scaled-up rates so failures are frequent enough to
     estimate. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let wrap = Fault_tree.Builder.gate b "wrap" Fault_tree.Or [ x ] in
  ignore wrap;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x", Dbe.exponential ~lambda:0.3 ~mu:0.5 ());
          ("y", Dbe.triggered_exponential ~lambda:0.4 ~mu:0.2 ~passive_factor:0.01 ());
        ]
      ~triggers:[ ("wrap", "y") ]
  in
  let horizon = 10.0 in
  let exact = Sdft_product.solve sd ~horizon in
  let stats = Simulator.unreliability ~seed:3 sd ~horizon ~trials:60_000 in
  check_within_sigma exact stats

let test_simulator_pumps_running_example () =
  let sd = Pumps.sd_tree () in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  let stats = Simulator.unreliability ~seed:42 sd ~horizon:24.0 ~trials:300_000 in
  check_within_sigma exact stats

let test_simulator_deterministic () =
  let sd = Pumps.sd_tree () in
  let a = Simulator.unreliability ~seed:9 sd ~horizon:24.0 ~trials:20_000 in
  let b = Simulator.unreliability ~seed:9 sd ~horizon:24.0 ~trials:20_000 in
  Alcotest.(check int) "same failures" a.Simulator.failures b.Simulator.failures

let test_simulator_rejects_zero_trials () =
  let sd = Pumps.sd_tree () in
  Alcotest.check_raises "trials" (Invalid_argument "Simulator: need at least one trial")
    (fun () -> ignore (Simulator.unreliability sd ~horizon:1.0 ~trials:0))

(* ------------------------------------------------------------------ *)
(* Wilson score intervals: the degenerate 0-failure and all-failure runs
   must still produce informative (non-point) intervals. *)

let test_wilson_zero_failures () =
  (* An effectively impossible event: no failures in any finite run. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:1e-12 ()) ] ~triggers:[]
  in
  let stats = Simulator.unreliability ~seed:5 sd ~horizon:1.0 ~trials:1000 in
  Alcotest.(check int) "no failures" 0 stats.Simulator.failures;
  let lo, hi = Simulator.confidence_95 stats in
  Alcotest.(check (float 0.0)) "lower is 0" 0.0 lo;
  if hi <= 0.0 || hi >= 0.01 then
    Alcotest.failf "0-failure Wilson upper %.4e not in (0, 0.01)" hi

let test_wilson_all_failures () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:1.0 "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd = Sdft.static_only tree in
  let stats = Simulator.unreliability ~seed:5 sd ~horizon:1.0 ~trials:1000 in
  Alcotest.(check int) "all failures" 1000 stats.Simulator.failures;
  let lo, hi = Simulator.confidence_95 stats in
  Alcotest.(check (float 0.0)) "upper is 1" 1.0 hi;
  if lo >= 1.0 || lo <= 0.99 then
    Alcotest.failf "all-failure Wilson lower %.6f not in (0.99, 1)" lo

(* ------------------------------------------------------------------ *)
(* The truncated-exponential sampler against its analytic CDF: bin 20_000
   draws into 20 equiprobable bins of F(x) = (1-e^{-rate x})/(1-e^{-rate b})
   and chi-square the counts. Fixed seed; the 50.0 threshold corresponds to
   p ~ 1e-4 at 19 degrees of freedom, so a pass is stable, and a fail means
   the sampler, not the luck, is wrong. *)

let test_truncated_exponential_chi_square () =
  let rng = Sdft_util.Rng.create 2024 in
  let rate = 0.7 and bound = 3.0 in
  let n = 20_000 and bins = 20 in
  let counts = Array.make bins 0 in
  let norm = -.expm1 (-.rate *. bound) in
  for _ = 1 to n do
    let x = Sdft_util.Rng.truncated_exponential rng rate ~bound in
    if x <= 0.0 || x > bound then
      Alcotest.failf "sample %.6f outside (0, %.1f]" x bound;
    let u = -.expm1 (-.rate *. x) /. norm in
    let k = min (bins - 1) (int_of_float (u *. float_of_int bins)) in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = float_of_int n /. float_of_int bins in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  if chi2 > 50.0 then
    Alcotest.failf "chi-square %.2f > 50.0 (df 19): sampler disagrees with CDF"
      chi2

(* ------------------------------------------------------------------ *)
(* Rare_event: the importance-sampling estimator. *)

(* Closed form: AND of a static p = 1e-3 and an exponential lambda = 1e-3
   over 24h fails with probability p * (1 - e^{-0.024}) = 2.3714e-5.
   Exercises both measure changes (static biasing and forcing) at once. *)
let closed_form_and () =
  let b = Fault_tree.Builder.create () in
  let s = Fault_tree.Builder.basic b ~prob:1e-3 "s" in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ s; x ] in
  let tree = Fault_tree.Builder.build b ~top in
  Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:1e-3 ()) ] ~triggers:[]

let test_rare_event_closed_form () =
  let sd = closed_form_and () in
  let exact = 1e-3 *. (1.0 -. exp (-0.024)) in
  let options = { Rare_event.default_options with trials = 50_000; seed = 17 } in
  let e = Rare_event.run ~options sd ~horizon:24.0 in
  let err = Float.abs (e.Rare_event.estimate -. exact) in
  if err > 4.0 *. e.Rare_event.std_error then
    Alcotest.failf "IS estimate %.6e vs closed form %.6e (> 4 sigma, se %.2e)"
      e.Rare_event.estimate exact e.Rare_event.std_error;
  (* The measure change must actually be doing something: crude Monte-Carlo
     at this probability would see ~1 hit, IS should see thousands. *)
  if e.Rare_event.hits < 1000 then
    Alcotest.failf "only %d hits — the biasing is not engaged" e.Rare_event.hits

let test_rare_event_weights_average_to_one () =
  (* Static biasing alone (forcing off) is a likelihood-ratio measure
     change with E[w] = 1 exactly — the standard calibration check. *)
  let sd = Pumps.sd_tree () in
  let options =
    { Rare_event.default_options with trials = 50_000; seed = 23; forcing = false }
  in
  let e = Rare_event.run ~options sd ~horizon:24.0 in
  if Float.abs (e.Rare_event.mean_weight -. 1.0) > 0.02 then
    Alcotest.failf "mean likelihood weight %.5f should be ~1.0"
      e.Rare_event.mean_weight

let test_rare_event_parallel_deterministic () =
  (* Same seed => bit-identical estimate regardless of the domain count:
     streams are pre-split per batch and merged in index order. *)
  let sd = Pumps.sd_tree () in
  let base = { Rare_event.default_options with trials = 20_000; batch = 1024; seed = 31 } in
  let reference = Rare_event.run ~options:base sd ~horizon:24.0 in
  List.iter
    (fun domains ->
      let e = Rare_event.run ~options:{ base with domains } sd ~horizon:24.0 in
      Alcotest.(check bool) "identical estimate" true
        (e.Rare_event.estimate = reference.Rare_event.estimate);
      Alcotest.(check bool) "identical variance" true
        (e.Rare_event.variance = reference.Rare_event.variance);
      Alcotest.(check bool) "identical mean weight" true
        (e.Rare_event.mean_weight = reference.Rare_event.mean_weight);
      Alcotest.(check int) "identical hits" reference.Rare_event.hits
        e.Rare_event.hits)
    [ 2; 3; 8 ]

let test_rare_event_early_stopping_deterministic () =
  (* The stopping rule fires at fixed wave boundaries, so early-stopped
     runs are domain-independent too — and really do stop early. *)
  let sd = Pumps.sd_tree () in
  let base =
    {
      Rare_event.default_options with
      trials = 200_000;
      batch = 1024;
      seed = 7;
      target_rel_error = Some 0.05;
    }
  in
  let a = Rare_event.run ~options:base sd ~horizon:24.0 in
  let b = Rare_event.run ~options:{ base with domains = 4 } sd ~horizon:24.0 in
  Alcotest.(check int) "same trial count" a.Rare_event.trials b.Rare_event.trials;
  Alcotest.(check bool) "identical estimate" true
    (a.Rare_event.estimate = b.Rare_event.estimate);
  if a.Rare_event.trials >= 200_000 then
    Alcotest.fail "expected the 5% relative-error target to stop the run early";
  if a.Rare_event.rel_error > 0.05 then
    Alcotest.failf "stopped at rel error %.3f > target 0.05" a.Rare_event.rel_error

let test_rare_event_rejects_bad_options () =
  let sd = Pumps.sd_tree () in
  Alcotest.check_raises "trials" (Invalid_argument "Rare_event: need at least one trial")
    (fun () ->
      ignore
        (Rare_event.run
           ~options:{ Rare_event.default_options with trials = 0 }
           sd ~horizon:1.0));
  Alcotest.check_raises "cap"
    (Invalid_argument "Rare_event: static_bias_cap must lie in (0, 1)")
    (fun () ->
      ignore
        (Rare_event.run
           ~options:{ Rare_event.default_options with static_bias_cap = 1.0 }
           sd ~horizon:1.0))

(* ------------------------------------------------------------------ *)
(* Pinned draws: every estimator's value, bit for bit, at fixed seeds. The
   samplers consume one uniform per categorical draw and per jump, so any
   change to the component layout, the initial-state order, the closure or
   the transition order moves these hex strings. *)

let hex = Printf.sprintf "%h"

let pinned_models () =
  [ ("pumps", Pumps.sd_tree ()); ("bwr", Bwr.build Bwr.default_config) ]

(* (model, seed, IS estimate, IS std error, crude estimate, simulator
   estimate) at 30,000 trials over 24 h. *)
let pinned =
  [
    ("pumps", 1, "0x1.6f20f0ef525acp-12", "0x1.676fc793344bap-17",
     "0x1.5d867c3ece2a5p-13", "0x1.e955e124ba3b4p-13");
    ("pumps", 2, "0x1.708b216166e29p-12", "0x1.6b24859794711p-17",
     "0x1.5d867c3ece2a5p-13", "0x1.179ec9cbd821ep-12");
    ("bwr", 1, "0x1.c2780ef22601dp-23", "0x1.18d1c0170e4afp-23", "0x0p+0",
     "0x0p+0");
    ("bwr", 2, "0x1.b42ad6a825a5ep-26", "0x1.4f9355b2fb47cp-28", "0x0p+0",
     "0x0p+0");
  ]

let test_pinned_estimates () =
  let models = pinned_models () in
  List.iter
    (fun (name, seed, is, se, crude, sim) ->
      let sd = List.assoc name models in
      let options = { Rare_event.default_options with trials = 30_000; seed } in
      let e = Rare_event.run ~options sd ~horizon:24.0 in
      let c =
        Rare_event.run ~options:(Rare_event.crude options) sd ~horizon:24.0
      in
      let s = Simulator.unreliability ~seed sd ~horizon:24.0 ~trials:30_000 in
      let label what = Printf.sprintf "%s seed %d %s" name seed what in
      Alcotest.(check string) (label "IS") is (hex e.Rare_event.estimate);
      Alcotest.(check string) (label "IS se") se (hex e.Rare_event.std_error);
      Alcotest.(check string) (label "crude") crude (hex c.Rare_event.estimate);
      Alcotest.(check string) (label "simulator") sim
        (hex s.Simulator.estimate))
    pinned

(* IS estimates on random models with two triggers, 5,000 trials, the
   model's generator seed doubling as the sampling seed. *)
let pinned_triggered =
  [
    (11, "0x1.acdc2f513e6a8p-1");
    (12, "0x1.ad77c96e2d438p-1");
    (13, "0x1.a02547d2acb0fp-3");
    (14, "0x1.b5fa42fc26b4dp-3");
    (15, "0x1.3e9f4af321b9dp-5");
  ]

let test_pinned_triggered () =
  List.iter
    (fun (seed, expected) ->
      let sd = Gen_sdft.sd ~n_triggers:2 seed in
      let options = { Rare_event.default_options with trials = 5_000; seed } in
      let e = Rare_event.run ~options sd ~horizon:24.0 in
      Alcotest.(check string)
        (Printf.sprintf "model %d IS" seed)
        expected (hex e.Rare_event.estimate))
    pinned_triggered

let () =
  Alcotest.run "sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "static tree" `Slow test_static_tree_estimate;
          Alcotest.test_case "exponential" `Slow test_exponential_event;
          Alcotest.test_case "triggers vs product" `Slow test_simulator_vs_product_with_triggers;
          Alcotest.test_case "pumps example" `Slow test_simulator_pumps_running_example;
          Alcotest.test_case "deterministic" `Quick test_simulator_deterministic;
          Alcotest.test_case "zero trials" `Quick test_simulator_rejects_zero_trials;
          Alcotest.test_case "Wilson: zero failures" `Quick test_wilson_zero_failures;
          Alcotest.test_case "Wilson: all failures" `Quick test_wilson_all_failures;
        ] );
      ( "rare-event",
        [
          Alcotest.test_case "truncated exponential chi-square" `Slow
            test_truncated_exponential_chi_square;
          Alcotest.test_case "closed form" `Slow test_rare_event_closed_form;
          Alcotest.test_case "weights average to 1" `Slow
            test_rare_event_weights_average_to_one;
          Alcotest.test_case "parallel deterministic" `Slow
            test_rare_event_parallel_deterministic;
          Alcotest.test_case "early stopping deterministic" `Slow
            test_rare_event_early_stopping_deterministic;
          Alcotest.test_case "bad options" `Quick test_rare_event_rejects_bad_options;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "estimates at fixed seeds" `Slow
            test_pinned_estimates;
          Alcotest.test_case "triggered random models" `Quick
            test_pinned_triggered;
        ] );
    ]
