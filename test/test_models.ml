(* Tests for the bundled models: the running example, the BWR safety study,
   the industrial generator and the importance-driven dynamization. *)

module Int_set = Sdft_util.Int_set

(* Pumps *)

let test_pumps_mcs_count () =
  let mcs = Mocus.minimal_cutsets (Pumps.static_tree ()) in
  Alcotest.(check int) "five MCS" 5 (List.length mcs)

let test_pumps_sd_valid () =
  let sd = Pumps.sd_tree () in
  Alcotest.(check int) "2 dynamic" 2 (List.length (Sdft.dynamic_basics sd));
  Alcotest.(check int) "1 trigger" 1 (List.length (Sdft.trigger_edges sd))

(* BWR *)

let test_bwr_structure () =
  let tree = Bwr.static_tree () in
  let s = Fault_tree.stats tree in
  Alcotest.(check bool) "dozens of basics" true (s.Fault_tree.n_basic >= 40);
  Alcotest.(check bool) "gates" true (s.Fault_tree.n_gate >= 20);
  (* All five systems with two trains present. *)
  List.iter
    (fun name ->
      if Fault_tree.gate_index tree name = None then
        Alcotest.failf "missing gate %s" name)
    [ "ECC.T1"; "ECC.T2"; "EFW.T1"; "RHR.T2"; "CCW.T1"; "SWS.T2"; "RHR.fail"; "FB.fail" ]

let test_bwr_ccf_flag () =
  let without = Bwr.static_tree () in
  let with_ccf = Bwr.static_tree ~include_ccf:true () in
  Alcotest.(check bool) "ccf adds events" true
    (Fault_tree.n_basics with_ccf > Fault_tree.n_basics without);
  Alcotest.(check bool) "ccf event present" true
    (Fault_tree.basic_index with_ccf "ECC.ccf" <> None)

let test_bwr_ccf_defeats_redundancy () =
  (* With CCF included, a single support-system CCF event plus the
     initiator forms a dominant order-2 cutset. *)
  let tree = Bwr.static_tree ~include_ccf:true () in
  let mcs = Mocus.minimal_cutsets tree in
  let ie = Option.get (Fault_tree.basic_index tree "IE.loss_of_feedwater") in
  let ccf = Option.get (Fault_tree.basic_index tree "CCW.ccf") in
  Alcotest.(check bool) "{IE, CCW.ccf} is an MCS" true
    (List.exists (Int_set.equal (Int_set.of_list [ ie; ccf ])) mcs);
  let rea_ccf, _ = Sdft_analysis.static_rare_event tree in
  let rea_plain, _ = Sdft_analysis.static_rare_event (Bwr.static_tree ()) in
  Alcotest.(check bool) "CCF dominates" true (rea_ccf > 2.0 *. rea_plain)

let test_bwr_static_equals_dynamic_norepair () =
  (* Without repairs or triggers, the worst-case translation equals the
     static study: same REA. *)
  let static_rea, _ = Sdft_analysis.static_rare_event (Bwr.static_tree ()) in
  let sd = Bwr.build Bwr.default_config in
  let r = Sdft_analysis.analyze sd in
  if Float.abs (static_rea -. r.Sdft_analysis.total) > 1e-3 *. static_rea then
    Alcotest.failf "static %.6e vs dynamic-norepair %.6e" static_rea
      r.Sdft_analysis.total

let test_bwr_repairs_reduce_frequency () =
  let freq config =
    (Sdft_analysis.analyze (Bwr.build config)).Sdft_analysis.total
  in
  let no_repair = freq Bwr.default_config in
  let slow = freq { Bwr.default_config with repair_rate = Some 0.01 } in
  let fast = freq { Bwr.default_config with repair_rate = Some 0.1 } in
  Alcotest.(check bool) "slow repair helps" true (slow < no_repair);
  Alcotest.(check bool) "fast repair helps more" true (fast < slow)

let test_bwr_triggers_reduce_frequency () =
  let base = { Bwr.default_config with repair_rate = Some 0.1 } in
  let freq config =
    (Sdft_analysis.analyze (Bwr.build config)).Sdft_analysis.total
  in
  let without = freq base in
  let with_all = freq { base with triggers = Bwr.all_trigger_sites } in
  Alcotest.(check bool) "triggers reduce" true (with_all < without)

let test_bwr_trigger_classes () =
  let sd =
    Bwr.build
      { Bwr.default_config with repair_rate = Some 0.1; triggers = Bwr.all_trigger_sites }
  in
  let report = Sdft_classify.report sd in
  (* RHR.T1, SWS.T1 and RHR.fail (whose subtrees have at most one dynamic
     child per OR gate) have static branching; the ECC/EFW/CCW train gates
     see two dynamic subtrees under an OR (their own pump and the support
     chain), hence static joins. Nothing is general: the BWR structure is
     exactly the "efficient" shape of Section V-A. *)
  Alcotest.(check int) "no general gate" 0 report.Sdft_classify.n_general;
  Alcotest.(check int) "three static branching" 3 report.Sdft_classify.n_static_branching;
  Alcotest.(check int) "three static joins" 3
    (report.Sdft_classify.n_static_joins_other
    + report.Sdft_classify.n_static_joins_uniform)

(* Industrial generator *)

let test_industrial_deterministic () =
  let a = Industrial.generate Industrial.small in
  let b = Industrial.generate Industrial.small in
  Alcotest.(check int) "same basics" (Fault_tree.n_basics a) (Fault_tree.n_basics b);
  Alcotest.(check int) "same gates" (Fault_tree.n_gates a) (Fault_tree.n_gates b);
  Alcotest.(check string) "same name" (Fault_tree.basic_name a 17) (Fault_tree.basic_name b 17)

let test_industrial_seed_changes_model () =
  let a = Industrial.generate Industrial.small in
  let b = Industrial.generate { Industrial.small with seed = 99 } in
  (* Structures generally differ; at minimum some probability differs. *)
  let differs = ref (Fault_tree.n_basics a <> Fault_tree.n_basics b) in
  if not !differs then
    for i = 0 to Fault_tree.n_basics a - 1 do
      if Fault_tree.prob a i <> Fault_tree.prob b i then differs := true
    done;
  Alcotest.(check bool) "different model" true !differs

let test_industrial_run_events () =
  let tree = Industrial.generate Industrial.small in
  let runs = Industrial.run_events tree in
  Alcotest.(check bool) "found run events" true (List.length runs > 5);
  List.iter
    (fun i ->
      let name = Fault_tree.basic_name tree i in
      let n = String.length name in
      Alcotest.(check string) "suffix" ".run" (String.sub name (n - 4) 4))
    runs

let test_industrial_engines_agree_small () =
  let tree = Industrial.generate Industrial.small in
  let sound =
    Mocus.minimal_cutsets
      ~options:{ Mocus.default_options with cutoff = 1e-12 }
      tree
  in
  let bdd = Minsol.fault_tree_cutsets_above tree ~cutoff:1e-12 in
  Alcotest.(check bool) "MOCUS = BDD above cutoff" true
    (List.sort Int_set.compare sound = List.sort Int_set.compare bdd)

(* Dynamize *)

let test_dynamize_counts () =
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.15;
      trigger_fraction = 0.03;
      candidates = Some (Industrial.run_events tree);
    }
  in
  let r = Dynamize.run ~config tree in
  Alcotest.(check bool) "some dynamic" true (r.Dynamize.n_dynamic > 0);
  Alcotest.(check bool) "triggered <= dynamic" true
    (r.Dynamize.n_triggered <= r.Dynamize.n_dynamic);
  Alcotest.(check int) "sdft dynamic count" r.Dynamize.n_dynamic
    (List.length (Sdft.dynamic_basics r.Dynamize.sd))

let test_dynamize_zero_fraction () =
  let tree = Industrial.generate Industrial.small in
  let config = { Dynamize.default_config with dynamic_fraction = 0.0; trigger_fraction = 0.0 } in
  let r = Dynamize.run ~config tree in
  Alcotest.(check int) "no dynamic" 0 r.Dynamize.n_dynamic;
  Alcotest.(check int) "no triggers" 0 r.Dynamize.n_triggered

let test_dynamize_triggers_have_static_branching () =
  (* Chains use single-event wrapper gates, the simplest static-branching
     pattern of Figure 1. *)
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.2;
      trigger_fraction = 0.05;
      candidates = Some (Industrial.run_events tree);
    }
  in
  let r = Dynamize.run ~config tree in
  let sd = r.Dynamize.sd in
  List.iter
    (fun (g, _) ->
      match Sdft_classify.classify sd g with
      | Sdft_classify.Static_branching -> ()
      | c ->
        Alcotest.failf "wrapper gate %s is %a"
          (Fault_tree.gate_name (Sdft.tree sd) g)
          Sdft_classify.pp_class c)
    (Sdft.trigger_edges sd)

let test_dynamize_mission_probability_calibration () =
  (* With the mission-probability calibration and no repairs, the
     worst-case failure probability of every dynamized event within the
     mission must equal its original static probability, whatever k. *)
  let tree = Industrial.generate Industrial.small in
  List.iter
    (fun phases ->
      let config =
        {
          Dynamize.default_config with
          dynamic_fraction = 0.1;
          trigger_fraction = 0.0;
          phases;
          calibration = Dynamize.Mission_probability;
        }
      in
      let r = Dynamize.run ~config tree in
      let sd = r.Dynamize.sd in
      let wrapped = Sdft.tree sd in
      List.iter
        (fun b ->
          let p_static =
            Fault_tree.prob tree
              (Option.get
                 (Fault_tree.basic_index tree (Fault_tree.basic_name wrapped b)))
          in
          let p_dyn =
            Dbe.worst_case_failure_probability (Sdft.dbe sd b) ~horizon:24.0
          in
          if Float.abs (p_static -. p_dyn) > 1e-9 *. Float.max p_static 1e-12
          then
            Alcotest.failf "k=%d %s: static %.6e vs dynamic %.6e" phases
              (Fault_tree.basic_name wrapped b)
              p_static p_dyn)
        (Sdft.dynamic_basics sd))
    [ 1; 2; 3 ]

let test_dynamize_preserves_static_rea () =
  (* The wrapper gates hang off the DAG, so the static cutsets and REA of
     the wrapped tree must be unchanged. *)
  let tree = Industrial.generate Industrial.small in
  let config =
    { Dynamize.default_config with dynamic_fraction = 0.2; trigger_fraction = 0.05 }
  in
  let r = Dynamize.run ~config tree in
  let rea_before, n_before = Sdft_analysis.static_rare_event tree in
  let rea_after, n_after = Sdft_analysis.static_rare_event (Sdft.tree r.Dynamize.sd) in
  Alcotest.(check int) "same cutset count" n_before n_after;
  if Float.abs (rea_before -. rea_after) > 1e-15 then
    Alcotest.failf "REA changed: %.6e vs %.6e" rea_before rea_after

let test_dynamize_model_1_pinned () =
  (* Model-1 as the end-to-end benchmark builds it, pinned byte for byte:
     the importance ranking behind the choice of dynamic events runs on the
     ZDD engine, and any change to its cutsets would move that choice. *)
  let tree = Industrial.generate Industrial.small in
  List.iter
    (fun (phases, digest) ->
      let config =
        {
          Dynamize.default_config with
          dynamic_fraction = 0.6;
          trigger_fraction = 0.06;
          phases;
          repair_rate = Some 0.05;
          chain_groups = Some (Industrial.run_event_groups tree);
          calibration = Dynamize.Mission_probability;
        }
      in
      let r = Dynamize.run ~config tree in
      Alcotest.(check int) "dynamic events" 70 r.Dynamize.n_dynamic;
      Alcotest.(check int) "triggered events" 7 r.Dynamize.n_triggered;
      Alcotest.(check string)
        (Printf.sprintf "Erlang-%d model text" phases)
        digest
        (Digest.to_hex (Digest.string (Sdft_format.to_string r.Dynamize.sd))))
    [
      (4, "99c920400949c78ee3f5f0e2cc549710");
      (2, "289de82568b8eb94d1cf4b91df45ed7d");
    ]

(* CCF beta-factor rewriting *)

let redundant_pair_tree p =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:p "x" in
  let y = Fault_tree.Builder.basic b ~prob:p "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  Fault_tree.Builder.build b ~top

let test_ccf_beta_zero_is_identity () =
  let tree = redundant_pair_tree 0.01 in
  let tree' = Ccf.apply tree [ { Ccf.name = "xy"; members = [ "x"; "y" ]; beta = 0.0 } ] in
  let p = Fault_tree.exact_top_probability_enumerate tree in
  let p' = Fault_tree.exact_top_probability_enumerate tree' in
  if Float.abs (p -. p') > 1e-15 then Alcotest.failf "beta=0 changed: %g vs %g" p p'

let test_ccf_beta_one_collapses () =
  (* With beta = 1 all failures are common: AND(x,y) fails with probability
     p instead of p^2. *)
  let p = 0.01 in
  let tree = redundant_pair_tree p in
  let tree' = Ccf.apply tree [ { Ccf.name = "xy"; members = [ "x"; "y" ]; beta = 1.0 } ] in
  let got = Fault_tree.exact_top_probability_enumerate tree' in
  if Float.abs (got -. p) > 1e-12 then Alcotest.failf "beta=1: %g vs %g" got p

let test_ccf_intermediate_beta () =
  (* Closed form: 1 - (1 - beta p)(1 - ((1-beta) p)^2 (1 - beta p)) ... or
     simply: top fails iff ccf, or both independents. *)
  let p = 0.02 and beta = 0.1 in
  let tree = redundant_pair_tree p in
  let tree' = Ccf.apply tree [ { Ccf.name = "xy"; members = [ "x"; "y" ]; beta } ] in
  let pi = (1.0 -. beta) *. p and pc = beta *. p in
  let expected = pc +. ((1.0 -. pc) *. pi *. pi) in
  let got = Fault_tree.exact_top_probability_enumerate tree' in
  if Float.abs (got -. expected) > 1e-12 then
    Alcotest.failf "beta=0.1: %g vs %g" got expected;
  (* The CCF makes the pair markedly less reliable than independence. *)
  Alcotest.(check bool) "dominates independent" true
    (got > Fault_tree.exact_top_probability_enumerate tree *. 5.0)

let test_ccf_mcs_include_ccf_event () =
  let tree = redundant_pair_tree 0.01 in
  let tree' = Ccf.apply tree [ { Ccf.name = "xy"; members = [ "x"; "y" ]; beta = 0.05 } ] in
  let mcs =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 } tree'
  in
  Alcotest.(check int) "two cutsets" 2 (List.length mcs);
  let ccf = Option.get (Fault_tree.basic_index tree' "CCF:xy") in
  Alcotest.(check bool) "singleton CCF cutset" true
    (List.exists (Int_set.equal (Int_set.singleton ccf)) mcs)

let test_ccf_validation () =
  let tree = redundant_pair_tree 0.01 in
  let fails groups =
    match Ccf.apply tree groups with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "one member" true
    (fails [ { Ccf.name = "g"; members = [ "x" ]; beta = 0.1 } ]);
  Alcotest.(check bool) "unknown member" true
    (fails [ { Ccf.name = "g"; members = [ "x"; "zz" ]; beta = 0.1 } ]);
  Alcotest.(check bool) "bad beta" true
    (fails [ { Ccf.name = "g"; members = [ "x"; "y" ]; beta = 1.5 } ]);
  Alcotest.(check bool) "overlapping groups" true
    (fails
       [
         { Ccf.name = "g1"; members = [ "x"; "y" ]; beta = 0.1 };
         { Ccf.name = "g2"; members = [ "y"; "x" ]; beta = 0.1 };
       ])

(* Templates *)

let test_templates_standby_pair () =
  let builder = Fault_tree.Builder.create () in
  let gate, pending =
    Templates.standby_pair builder ~name:"pumps" ~p_start:1e-3 ~lambda:1e-3
      ~mu:0.05 ()
  in
  let sd = Templates.make_sdft builder ~top:gate pending in
  let tree = Sdft.tree sd in
  Alcotest.(check int) "four basics" 4 (Fault_tree.n_basics tree);
  Alcotest.(check int) "two dynamic" 2 (List.length (Sdft.dynamic_basics sd));
  Alcotest.(check int) "one trigger" 1 (List.length (Sdft.trigger_edges sd));
  (* The standby's run event is triggered by the running train's gate. *)
  let b_run = Option.get (Fault_tree.basic_index tree "pumps.B.run") in
  let a_gate = Option.get (Fault_tree.gate_index tree "pumps.A") in
  Alcotest.(check (option int)) "trigger source" (Some a_gate)
    (Sdft.trigger_of sd b_run);
  (* And the analysis pipeline runs end to end on it. *)
  let r = Sdft_analysis.analyze sd in
  Alcotest.(check bool) "sane probability" true
    (r.Sdft_analysis.total > 0.0 && r.Sdft_analysis.total < 1.0)

let test_templates_component_untriggered () =
  let builder = Fault_tree.Builder.create () in
  let gate, pending =
    Templates.component builder ~name:"fan" ~p_start:1e-2 ~lambda:1e-3 ()
  in
  let sd = Templates.make_sdft builder ~top:gate pending in
  Alcotest.(check int) "one dynamic" 1 (List.length (Sdft.dynamic_basics sd));
  Alcotest.(check (list (pair int int))) "no triggers" [] (Sdft.trigger_edges sd)

(* Random trees *)

let test_random_tree_all_basics_relevant () =
  let rng = Sdft_util.Rng.create 3 in
  let tree = Random_tree.tree rng ~n_basics:6 ~n_gates:5 in
  (* Failing everything must fail the top (coherence + top covers all). *)
  Alcotest.(check bool) "all fail => top fails" true
    (Fault_tree.fails_top tree ~failed:(fun _ -> true));
  Alcotest.(check bool) "none fail => top ok" false
    (Fault_tree.fails_top tree ~failed:(fun _ -> false))

let test_random_sd_valid () =
  for seed = 0 to 30 do
    let rng = Sdft_util.Rng.create seed in
    let sd = Random_tree.sd rng ~n_basics:6 ~n_gates:5 ~n_dynamic:3 ~n_triggers:2 in
    (* Validation is internal to Sdft.make; just touch the accessors. *)
    ignore (Sdft.dynamic_basics sd);
    ignore (Sdft.trigger_edges sd)
  done

let () =
  Alcotest.run "models"
    [
      ( "pumps",
        [
          Alcotest.test_case "mcs count" `Quick test_pumps_mcs_count;
          Alcotest.test_case "sd valid" `Quick test_pumps_sd_valid;
        ] );
      ( "bwr",
        [
          Alcotest.test_case "structure" `Quick test_bwr_structure;
          Alcotest.test_case "ccf flag" `Quick test_bwr_ccf_flag;
          Alcotest.test_case "ccf defeats redundancy" `Quick test_bwr_ccf_defeats_redundancy;
          Alcotest.test_case "static = no-repair dynamic" `Slow
            test_bwr_static_equals_dynamic_norepair;
          Alcotest.test_case "repairs reduce" `Slow test_bwr_repairs_reduce_frequency;
          Alcotest.test_case "triggers reduce" `Slow test_bwr_triggers_reduce_frequency;
          Alcotest.test_case "trigger classes" `Quick test_bwr_trigger_classes;
        ] );
      ( "industrial",
        [
          Alcotest.test_case "deterministic" `Quick test_industrial_deterministic;
          Alcotest.test_case "seed changes model" `Quick test_industrial_seed_changes_model;
          Alcotest.test_case "run events" `Quick test_industrial_run_events;
          Alcotest.test_case "engines agree" `Slow test_industrial_engines_agree_small;
        ] );
      ( "dynamize",
        [
          Alcotest.test_case "counts" `Slow test_dynamize_counts;
          Alcotest.test_case "zero fraction" `Quick test_dynamize_zero_fraction;
          Alcotest.test_case "static branching chains" `Slow
            test_dynamize_triggers_have_static_branching;
          Alcotest.test_case "preserves static REA" `Slow test_dynamize_preserves_static_rea;
          Alcotest.test_case "mission-probability calibration" `Slow
            test_dynamize_mission_probability_calibration;
          Alcotest.test_case "model-1 pinned" `Quick test_dynamize_model_1_pinned;
        ] );
      ( "ccf",
        [
          Alcotest.test_case "beta 0" `Quick test_ccf_beta_zero_is_identity;
          Alcotest.test_case "beta 1" `Quick test_ccf_beta_one_collapses;
          Alcotest.test_case "intermediate beta" `Quick test_ccf_intermediate_beta;
          Alcotest.test_case "mcs" `Quick test_ccf_mcs_include_ccf_event;
          Alcotest.test_case "validation" `Quick test_ccf_validation;
        ] );
      ( "templates",
        [
          Alcotest.test_case "standby pair" `Quick test_templates_standby_pair;
          Alcotest.test_case "component" `Quick test_templates_component_untriggered;
        ] );
      ( "random",
        [
          Alcotest.test_case "relevance" `Quick test_random_tree_all_basics_relevant;
          Alcotest.test_case "sd valid" `Quick test_random_sd_valid;
        ] );
    ]
