(* Tests for the core SD fault tree library: dynamic basic events, model
   validation, trigger-gate classification, the static translation, product
   semantics, per-cutset models and the full analysis pipeline.

   The deepest checks compare the paper's decomposed analysis against the
   exact full-product semantics and against closed-form solutions of
   hand-built models. *)

module Int_set = Sdft_util.Int_set

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Dbe *)

let test_dbe_init_must_sum_to_one () =
  Alcotest.check_raises "bad init"
    (Invalid_argument "Dbe.make: initial distribution must sum to 1") (fun () ->
      ignore (Dbe.make ~n_states:2 ~init:[ (0, 0.5) ] ~transitions:[] ~failed:[ 1 ] ()))

let test_dbe_needs_failed_state () =
  Alcotest.check_raises "no failed"
    (Invalid_argument "Dbe.make: a dynamic event needs at least one failed state")
    (fun () ->
      ignore (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[] ()))

let test_dbe_failed_must_be_on () =
  (* 2 states: 0 off, 1 on; partner swaps; failed = 0 (off) is illegal. *)
  Alcotest.check_raises "failed off"
    (Invalid_argument "Dbe.make: failed states must be switched on") (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[ 0 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 1; 0 |])
           ()))

let test_dbe_triggered_starts_off () =
  Alcotest.check_raises "init on"
    (Invalid_argument "Dbe.make: triggered events must start switched off")
    (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (1, 1.0) ] ~transitions:[] ~failed:[ 1 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 1; 0 |])
           ()))

let test_dbe_partner_opposite_mode () =
  Alcotest.check_raises "partner same mode"
    (Invalid_argument "Dbe.make: switch partner must be in the opposite mode")
    (fun () ->
      ignore
        (Dbe.make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions:[] ~failed:[ 1 ]
           ~switch:([| Dbe.Off; Dbe.On |], [| 0; 1 |])
           ()))

let test_dbe_exponential_worst_case () =
  (* With the failed state absorbing, repairs are irrelevant for the first
     failure: P = 1 - exp(-lambda t). *)
  let lambda = 0.05 and t = 24.0 in
  List.iter
    (fun mu ->
      let d = Dbe.exponential ~lambda ?mu () in
      check_close ~eps:1e-10 "worst case"
        (1.0 -. exp (-.lambda *. t))
        (Dbe.worst_case_failure_probability d ~horizon:t))
    [ None; Some 0.5 ]

let test_dbe_erlang_worst_case () =
  (* Erlang-2 with per-phase rate 2*lambda: CDF 1 - e^{-2lt}(1 + 2lt). *)
  let lambda = 0.02 and t = 10.0 in
  let d = Dbe.erlang ~phases:2 ~lambda () in
  let r = 2.0 *. lambda in
  check_close ~eps:1e-10 "erlang-2 cdf"
    (1.0 -. (exp (-.r *. t) *. (1.0 +. (r *. t))))
    (Dbe.worst_case_failure_probability d ~horizon:t)

let test_dbe_triggered_equals_untriggered_worst_case () =
  (* The worst case of a triggered event is "on from time zero", which for
     the constructors matches the untriggered chain. *)
  let lambda = 0.03 in
  let plain = Dbe.erlang ~phases:3 ~lambda ~mu:0.2 () in
  let triggered =
    Dbe.triggered_erlang ~phases:3 ~lambda ~mu:0.2 ~passive_factor:0.01 ()
  in
  check_close ~eps:1e-10 "same worst case"
    (Dbe.worst_case_failure_probability plain ~horizon:24.0)
    (Dbe.worst_case_failure_probability triggered ~horizon:24.0)

let test_dbe_triggered_structure () =
  let d = Dbe.triggered_erlang ~phases:2 ~lambda:0.1 ~mu:0.5 () in
  Alcotest.(check int) "states" 6 (Dbe.n_states d);
  Alcotest.(check bool) "is triggered" true (Dbe.is_triggered_model d);
  (* off-phases 0..2, on-phases 3..5 *)
  Alcotest.(check bool) "0 is off" true (Dbe.mode_of d 0 = Dbe.Off);
  Alcotest.(check bool) "3 is on" true (Dbe.mode_of d 3 = Dbe.On);
  Alcotest.(check int) "on(0)" 3 (Dbe.switch_on d 0);
  Alcotest.(check int) "off(5)" 2 (Dbe.switch_off d 5);
  Alcotest.(check bool) "failed on-phase" true (Dbe.is_failed d 5);
  Alcotest.(check bool) "broken off-phase not failed" false (Dbe.is_failed d 2);
  Alcotest.(check (list (pair int (float 0.0)))) "initial on" [ (3, 1.0) ]
    (Dbe.initial_on d)

let test_dbe_repair_only_when_on () =
  let d = Dbe.triggered_erlang ~phases:1 ~lambda:0.1 ~mu:0.5 () in
  let chain = Dbe.chain d in
  (* on-failed is state 3, on-ok is 2, off-failed is 1, off-ok is 0. *)
  check_close "repair from on-failed" 0.5 (Ctmc.rate chain 3 2);
  check_close "no repair off" 0.0 (Ctmc.rate chain 1 0)

let test_dbe_repair_when_off () =
  let d =
    Dbe.triggered_erlang ~phases:1 ~lambda:0.1 ~mu:0.5 ~repair_when_off:true ()
  in
  let chain = Dbe.chain d in
  check_close "repair when off too" 0.5 (Ctmc.rate chain 1 0)

(* ------------------------------------------------------------------ *)
(* Sdft validation *)

let simple_dyn () = Dbe.exponential ~lambda:0.1 ()

let triggered_dyn () =
  Dbe.triggered_exponential ~lambda:0.1 ~passive_factor:0.0 ()

let test_sdft_unknown_names () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "unknown basic"
    (Invalid_argument "Sdft.make: unknown basic event \"zz\"") (fun () ->
      ignore (Sdft.make tree ~dynamic:[ ("zz", simple_dyn ()) ] ~triggers:[]));
  Alcotest.check_raises "unknown gate"
    (Invalid_argument "Sdft.make: unknown gate \"gg\"") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("b", triggered_dyn ()) ]
           ~triggers:[ ("gg", "b") ]))

let test_sdft_trigger_requires_switch () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "no switch"
    (Invalid_argument
       "Sdft.of_indexed: d is triggered but has no on/off structure") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", simple_dyn ()) ]
           ~triggers:[ ("pump1", "d") ]))

let test_sdft_double_trigger_rejected () =
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "two triggers"
    (Invalid_argument "Sdft.of_indexed: d triggered by two gates") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", triggered_dyn ()) ]
           ~triggers:[ ("pump1", "d"); ("pumps", "d") ]))

let test_sdft_cyclic_trigger_rejected () =
  (* d is under pump2; pump2 triggering d closes a cycle. *)
  let tree = Pumps.static_tree () in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Sdft.make: cyclic trigger structure") (fun () ->
      ignore
        (Sdft.make tree
           ~dynamic:[ ("d", triggered_dyn ()) ]
           ~triggers:[ ("pump2", "d") ]))

let test_sdft_accessors () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let b = Option.get (Fault_tree.basic_index tree "b") in
  let d = Option.get (Fault_tree.basic_index tree "d") in
  let pump1 = Option.get (Fault_tree.gate_index tree "pump1") in
  Alcotest.(check bool) "b dynamic" true (Sdft.is_dynamic sd b);
  Alcotest.(check bool) "a static" false (Sdft.is_dynamic sd 0);
  Alcotest.(check (list int)) "dynamic list" [ b; d ] (Sdft.dynamic_basics sd);
  Alcotest.(check (option int)) "trigger of d" (Some pump1) (Sdft.trigger_of sd d);
  Alcotest.(check (option int)) "trigger of b" None (Sdft.trigger_of sd b);
  Alcotest.(check (list int)) "triggered by pump1" [ d ] (Sdft.triggered_by sd pump1);
  Alcotest.(check (list (pair int int))) "edges" [ (pump1, d) ] (Sdft.trigger_edges sd)

(* ------------------------------------------------------------------ *)
(* Classification (Section V-A shapes of Figure 1) *)

(* Helper: tree with a trigger gate of a chosen shape. The triggered event
   [tgt] sits beside the shape under the top AND. *)
let classified_shape build_shape =
  let b = Fault_tree.Builder.create () in
  let tgt = Fault_tree.Builder.basic b "tgt" in
  let shape, dynamic = build_shape b in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ shape; tgt ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:(("tgt", triggered_dyn ()) :: dynamic)
      ~triggers:
        [ ((match shape with
           | Fault_tree.G g -> Fault_tree.gate_name tree g
           | Fault_tree.B _ -> assert false),
           "tgt") ]
  in
  let g =
    match shape with Fault_tree.G g -> g | Fault_tree.B _ -> assert false
  in
  (sd, g)

let test_classify_static_branching () =
  (* OR(dyn, static): one dynamic child per OR gate. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let s = Fault_tree.Builder.basic b ~prob:0.1 "s" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; s ] in
        (gate, [ ("x", simple_dyn ()) ]))
  in
  Alcotest.(check bool) "SB" true
    (Sdft_classify.classify sd g = Sdft_classify.Static_branching)

let test_classify_static_joins () =
  (* OR(dyn1, dyn2): two dynamic children under an OR, no AND with dynamic
     children — the simplest static-joins shape. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; y ] in
        (gate, [ ("x", simple_dyn ()); ("y", simple_dyn ()) ]))
  in
  match Sdft_classify.classify sd g with
  | Sdft_classify.Static_joins _ -> ()
  | other ->
    Alcotest.failf "expected static joins, got %s"
      (Format.asprintf "%a" Sdft_classify.pp_class other)

let test_classify_and_only_is_static_branching () =
  (* AND(dyn1, dyn2): no OR gate in the subtree, so the static-branching
     condition holds vacuously (the paper's condition constrains OR gates
     only — Figure 1 left, case 3). *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.And [ x; y ] in
        (gate, [ ("x", simple_dyn ()); ("y", simple_dyn ()) ]))
  in
  Alcotest.(check bool) "vacuous SB" true
    (Sdft_classify.classify sd g = Sdft_classify.Static_branching)

let test_classify_general () =
  (* AND(OR(dyn1, dyn2), dyn3): the OR violates static branching and the
     AND (with dynamic children) violates static joins. *)
  let sd, g =
    classified_shape (fun b ->
        let x = Fault_tree.Builder.basic b "x" in
        let y = Fault_tree.Builder.basic b "y" in
        let z = Fault_tree.Builder.basic b "z" in
        let o = Fault_tree.Builder.gate b "o" Fault_tree.Or [ x; y ] in
        let gate = Fault_tree.Builder.gate b "g" Fault_tree.And [ o; z ] in
        ( gate,
          [ ("x", simple_dyn ()); ("y", simple_dyn ()); ("z", simple_dyn ()) ]
        ))
  in
  Alcotest.(check bool) "general" true
    (Sdft_classify.classify sd g = Sdft_classify.General)

let test_classify_pumps_running_example () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let pump1 = Option.get (Fault_tree.gate_index tree "pump1") in
  Alcotest.(check bool) "pump1 SB" true
    (Sdft_classify.classify sd pump1 = Sdft_classify.Static_branching);
  let r = Sdft_classify.report sd in
  Alcotest.(check int) "one trigger gate" 1 (List.length r.Sdft_classify.per_trigger_gate);
  Alcotest.(check int) "SB count" 1 r.Sdft_classify.n_static_branching

let test_classify_uniform_triggering () =
  (* Two triggered events under one OR, both triggered by the same external
     gate: static joins with uniform triggering. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let s = Fault_tree.Builder.basic b ~prob:0.2 "s" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ s ] in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; y ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ src; g ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("x", triggered_dyn ()); ("y", triggered_dyn ()) ]
      ~triggers:[ ("src", "x"); ("src", "y") ]
  in
  let g_id = Option.get (Fault_tree.gate_index tree "g") in
  Alcotest.(check bool) "SJ uniform" true
    (Sdft_classify.classify sd g_id
    = Sdft_classify.Static_joins { uniform = true });
  Alcotest.(check bool) "uniform check" true (Sdft_classify.has_uniform_triggering sd g_id)

(* ------------------------------------------------------------------ *)
(* Translation (Section V-B) *)

let test_translate_pumps_preserves_mcs () =
  let sd = Pumps.sd_tree () in
  let tree = Sdft.tree sd in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let mcs_sd =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      translation.Sdft_translate.static_tree
  in
  let expected =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      tree
  in
  (* Basic-event indices are preserved by the translation. *)
  Alcotest.(check int) "same count" (List.length expected) (List.length mcs_sd);
  Alcotest.(check bool) "same sets" true
    (List.sort Int_set.compare mcs_sd = List.sort Int_set.compare expected)

let test_translate_worst_case_values () =
  let sd = Pumps.sd_tree () in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let tree = Sdft.tree sd in
  let b = Option.get (Fault_tree.basic_index tree "b") in
  let a = Option.get (Fault_tree.basic_index tree "a") in
  check_close ~eps:1e-10 "dynamic got worst case"
    (1.0 -. exp (-.Pumps.failure_rate *. 24.0))
    translation.Sdft_translate.worst_case.(b);
  check_close ~eps:1e-15 "static kept" 3e-3 translation.Sdft_translate.worst_case.(a)

let test_translate_adds_trigger_and () =
  let sd = Pumps.sd_tree () in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let t = translation.Sdft_translate.static_tree in
  Alcotest.(check bool) "wrapper gate exists" true
    (Fault_tree.gate_index t "d@trig" <> None);
  (* One extra gate compared to the original. *)
  Alcotest.(check int) "gate count" 5 (Fault_tree.n_gates t)

let test_translate_triggered_event_mcs_includes_trigger () =
  (* top = OR(d); d triggered by gate over a static z: the MCS must include
     z because d alone cannot fail. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.3 "z" in
  let d = Fault_tree.Builder.basic b "d" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ d; src ] in
  ignore src;
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree ~dynamic:[ ("d", triggered_dyn ()) ] ~triggers:[ ("src", "d") ]
  in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let mcs =
    Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 }
      translation.Sdft_translate.static_tree
  in
  (* MCS: {z} alone (src fails top through OR). {d} is NOT an MCS; {d,z} is
     subsumed by {z}. *)
  Alcotest.(check (list (Alcotest.testable Int_set.pp Int_set.equal)))
    "only {z}"
    [ Int_set.singleton 0 ]
    mcs

(* ------------------------------------------------------------------ *)
(* Product semantics (Section III-C) *)

let test_product_static_tree_matches_exact () =
  let tree = Pumps.static_tree () in
  let sd = Sdft.static_only tree in
  let p = Sdft_product.solve sd ~horizon:5.0 in
  check_close ~eps:1e-12 "static product = enumeration"
    (Fault_tree.exact_top_probability_enumerate tree)
    p

let test_product_trigger_sequence_is_erlang () =
  (* top = AND(x, y), y triggered by a wrapper around x, both Exp(lambda)
     with no repairs and no passive failures: the top fails exactly when
     x fails and then y fails — an Erlang-2 time. *)
  let lambda = 0.2 in
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
          ("x", Dbe.exponential ~lambda ());
          ("y", Dbe.triggered_exponential ~lambda ~passive_factor:0.0 ());
        ]
      ~triggers:[ ("wrap", "y") ]
  in
  List.iter
    (fun t ->
      let p = Sdft_product.solve sd ~horizon:t in
      let lt = lambda *. t in
      check_close ~eps:1e-9 "erlang-2" (1.0 -. (exp (-.lt) *. (1.0 +. lt))) p)
    [ 1.0; 5.0; 20.0 ]

let test_product_untriggered_spare_never_fails () =
  (* A triggered event whose trigger never fires (source probability 0)
     cannot fail. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.0 "z" in
  let y = Fault_tree.Builder.basic b "y" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  ignore src;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("y", Dbe.triggered_exponential ~lambda:5.0 ~passive_factor:0.0 ()) ]
      ~triggers:[ ("src", "y") ]
  in
  check_close ~eps:1e-12 "never" 0.0 (Sdft_product.solve sd ~horizon:100.0)

let test_product_passive_failures_do_count () =
  (* With passive failures enabled, the off-copy degrades too, but the
     event only *counts* as failed once triggered; with a never-failing
     trigger the top never fails. *)
  let b = Fault_tree.Builder.create () in
  let z = Fault_tree.Builder.basic b ~prob:0.0 "z" in
  let y = Fault_tree.Builder.basic b "y" in
  let src = Fault_tree.Builder.gate b "src" Fault_tree.Or [ z ] in
  ignore src;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("y", Dbe.triggered_exponential ~lambda:5.0 ~passive_factor:1.0 ()) ]
      ~triggers:[ ("src", "y") ]
  in
  check_close ~eps:1e-12 "broken but off is not failed" 0.0
    (Sdft_product.solve sd ~horizon:100.0)

let test_product_max_states_guard () =
  let sd = Pumps.sd_tree () in
  Alcotest.(check bool) "raises" true
    (match Sdft_product.build ~max_states:2 sd with
    | exception Sdft_product.Too_many_states _ -> true
    | _ -> false)

let test_product_pumps_value () =
  (* Golden value cross-checked against the Monte-Carlo simulator and the
     rare-event approximation. *)
  let sd = Pumps.sd_tree () in
  let p = Sdft_product.solve sd ~horizon:24.0 in
  check_close ~eps:1e-8 "pumps 24h" 3.505477e-4 p

(* ------------------------------------------------------------------ *)
(* Cutset models (Section V-C) *)

let pumps_sd = Pumps.sd_tree ()

let pumps_tree = Sdft.tree pumps_sd

let pidx name = Option.get (Fault_tree.basic_index pumps_tree name)

let pset names = Int_set.of_list (List.map pidx names)

let test_cutset_model_static_only () =
  let m = Cutset_model.build pumps_sd (pset [ "a"; "c" ]) in
  Alcotest.(check bool) "no model" true (m.Cutset_model.model = None);
  check_close ~eps:1e-15 "multiplier" 9e-6 m.Cutset_model.static_multiplier;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:1e-15 "prob" 9e-6 q.Cutset_model.probability;
  Alcotest.(check int) "no chain" 0 q.Cutset_model.product_states

let test_cutset_model_dynamic_pair () =
  let m = Cutset_model.build pumps_sd (pset [ "b"; "d" ]) in
  Alcotest.(check int) "2 dynamic" 2 m.Cutset_model.n_dynamic_in_cutset;
  Alcotest.(check int) "0 added" 0 m.Cutset_model.n_added_dynamic;
  check_close ~eps:1e-15 "multiplier 1" 1.0 m.Cutset_model.static_multiplier;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  Alcotest.(check bool) "chain built" true (q.Cutset_model.product_states > 0);
  Alcotest.(check bool) "nontrivial prob" true
    (q.Cutset_model.probability > 0.0 && q.Cutset_model.probability < 1.0)

let test_cutset_model_impossible () =
  (* {d} alone: d is triggered by pump1 but nothing of pump1 is in the
     cutset, so under static branching the trigger can never fire. *)
  let m = Cutset_model.build pumps_sd (pset [ "d" ]) in
  Alcotest.(check bool) "impossible" true m.Cutset_model.impossible;
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:0.0 "zero" 0.0 q.Cutset_model.probability

let test_cutset_model_always_triggered () =
  (* {a, d}: a (static, in C) fails pump1, so d is triggered from time 0;
     p~ = p(a) * P(d fails within t | on from 0). *)
  let m = Cutset_model.build pumps_sd (pset [ "a"; "d" ]) in
  Alcotest.(check bool) "has model" true (m.Cutset_model.model <> None);
  let q = Cutset_model.quantify m ~horizon:24.0 in
  let d_worst =
    Dbe.worst_case_failure_probability
      (Sdft.dbe pumps_sd (pidx "d"))
      ~horizon:24.0
  in
  check_close ~eps:1e-9 "p(a) * worst(d)" (3e-3 *. d_worst) q.Cutset_model.probability

let test_cutset_model_rea_matches_exact_pumps () =
  (* Sum of p~ over the five MCS vs the exact product semantics: the REA
     over-approximates but stays within a percent on this model. *)
  let r = Sdft_analysis.analyze pumps_sd in
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "REA >= exact" true
    (r.Sdft_analysis.total >= exact -. 1e-12);
  Alcotest.(check bool) "REA within 1%" true
    (r.Sdft_analysis.total -. exact < 0.01 *. exact)

(* Static joins: the added event f must appear in FT_C, and the single-MCS
   rare-event approximation must equal the exact value. *)
let static_joins_model () =
  let b = Fault_tree.Builder.create () in
  let y = Fault_tree.Builder.basic b "y" in
  let f = Fault_tree.Builder.basic b "f" in
  let j = Fault_tree.Builder.basic b "j" in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.Or [ y; f ] in
  ignore g;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ y; j ] in
  let tree = Fault_tree.Builder.build b ~top in
  Sdft.make tree
    ~dynamic:
      [
        ("y", Dbe.exponential ~lambda:0.08 ~mu:0.3 ());
        ("f", Dbe.exponential ~lambda:0.05 ~mu:0.4 ());
        ("j", Dbe.triggered_exponential ~lambda:0.1 ~mu:0.2 ~passive_factor:0.0 ());
      ]
    ~triggers:[ ("g", "j") ]

let test_cutset_model_static_joins_adds_events () =
  let sd = static_joins_model () in
  let tree = Sdft.tree sd in
  let y = Option.get (Fault_tree.basic_index tree "y") in
  let j = Option.get (Fault_tree.basic_index tree "j") in
  let g = Option.get (Fault_tree.gate_index tree "g") in
  (match Sdft_classify.classify sd g with
  | Sdft_classify.Static_joins _ -> ()
  | c -> Alcotest.failf "expected SJ, got %a" Sdft_classify.pp_class c);
  let m = Cutset_model.build sd (Int_set.of_list [ y; j ]) in
  Alcotest.(check int) "f added" 1 m.Cutset_model.n_added_dynamic;
  (* Exactness: {y, j} is the only MCS, and Failed({y,j}) is exactly the
     top-failure set, so p~ must equal the full product probability. *)
  let q = Cutset_model.quantify m ~horizon:24.0 in
  let exact = Sdft_product.solve sd ~horizon:24.0 in
  check_close ~eps:1e-9 "p~ = exact" exact q.Cutset_model.probability

(* The same comparison on a general-case trigger: the trigger gate is an
   AND over an OR of two dynamic events and a static guard that is not in
   the cutset, forcing the general Rel rule to pull the guard in. *)
let test_cutset_model_general_trigger_exact () =
  let b = Fault_tree.Builder.create () in
  let x1 = Fault_tree.Builder.basic b "x1" in
  let x2 = Fault_tree.Builder.basic b "x2" in
  let s = Fault_tree.Builder.basic b ~prob:0.6 "s" in
  let j = Fault_tree.Builder.basic b "j" in
  let o = Fault_tree.Builder.gate b "o" Fault_tree.Or [ x1; x2 ] in
  let g = Fault_tree.Builder.gate b "g" Fault_tree.And [ o; s ] in
  ignore g;
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x1; j ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x1", Dbe.exponential ~lambda:0.07 ~mu:0.25 ());
          ("x2", Dbe.exponential ~lambda:0.09 ~mu:0.35 ());
          ("j", Dbe.triggered_exponential ~lambda:0.2 ~mu:0.1 ~passive_factor:0.0 ());
        ]
      ~triggers:[ ("g", "j") ]
  in
  let g_id = Option.get (Fault_tree.gate_index tree "g") in
  Alcotest.(check bool) "general" true
    (Sdft_classify.classify sd g_id = Sdft_classify.General);
  let ids names = List.map (fun n -> Option.get (Fault_tree.basic_index tree n)) names in
  let m = Cutset_model.build sd (Int_set.of_list (ids [ "x1"; "j" ])) in
  (* x2 (dynamic) and s (static, not in C) are both pulled into FT_C. *)
  Alcotest.(check int) "x2 added" 1 m.Cutset_model.n_added_dynamic;
  Alcotest.(check int) "s added" 1 m.Cutset_model.n_added_static;
  let q = Cutset_model.quantify m ~horizon:12.0 in
  let exact = Sdft_product.solve sd ~horizon:12.0 in
  check_close ~eps:1e-9 "p~ = exact" exact q.Cutset_model.probability

(* ------------------------------------------------------------------ *)
(* Full analysis pipeline *)

let test_analysis_pumps_summary () =
  let r = Sdft_analysis.analyze pumps_sd in
  Alcotest.(check int) "5 cutsets" 5 r.Sdft_analysis.n_cutsets;
  Alcotest.(check int) "3 dynamic cutsets" 3 r.Sdft_analysis.n_dynamic_cutsets;
  check_close ~eps:1e-7 "golden total" 3.522e-4 r.Sdft_analysis.total;
  let h = Sdft_analysis.dynamic_histogram r in
  Alcotest.(check (array int)) "histogram" [| 2; 2; 1 |] h;
  check_close ~eps:1e-12 "no added events" 0.0 (Sdft_analysis.mean_added_dynamic r)

let test_analysis_cutoff_excludes () =
  let options =
    { Sdft_analysis.default_options with cutoff = 1e-4 }
  in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  (* Only {b,d} (1.98e-4) survives a 1e-4 cutoff in the final sum. *)
  Alcotest.(check bool) "total ~ 1.98e-4" true
    (Float.abs (r.Sdft_analysis.total -. 1.979e-4) < 1e-6)

let test_analysis_static_rare_event () =
  let tree = Pumps.static_tree () in
  let rea, n = Sdft_analysis.static_rare_event tree in
  Alcotest.(check int) "5 relevant" 5 n;
  check_close ~eps:1e-12 "rea" 1.9e-5 rea

let test_analysis_parallel_matches_sequential () =
  let sequential = Sdft_analysis.analyze pumps_sd in
  let options = { Sdft_analysis.default_options with domains = 3 } in
  let parallel = Sdft_analysis.analyze ~options pumps_sd in
  check_close ~eps:1e-15 "same total" sequential.Sdft_analysis.total
    parallel.Sdft_analysis.total;
  Alcotest.(check int) "same cutsets" sequential.Sdft_analysis.n_cutsets
    parallel.Sdft_analysis.n_cutsets

let test_analysis_engines_agree () =
  let total engine =
    let options = { Sdft_analysis.default_options with engine } in
    (Sdft_analysis.analyze ~options pumps_sd).Sdft_analysis.total
  in
  let reference = total Sdft_analysis.Mocus_sound in
  check_close ~eps:1e-12 "zdd" reference (total Sdft_analysis.Zdd_engine);
  check_close ~eps:1e-12 "auto" reference (total Sdft_analysis.Auto)

let test_analysis_engine_spellings () =
  Alcotest.(check (list string))
    "one spelling per engine" [ "mocus"; "zdd"; "auto" ]
    (List.map fst Sdft_analysis.engines);
  List.iter
    (fun (name, engine) ->
      Alcotest.(check string)
        "engine_name round-trips" name
        (Sdft_analysis.engine_name engine))
    Sdft_analysis.engines;
  Alcotest.(check string)
    "default is auto" "auto"
    (Sdft_analysis.engine_name Sdft_analysis.default_options.engine)

let test_analysis_parallel_4_identical_probabilities () =
  let seq = Sdft_analysis.analyze pumps_sd in
  let options = { Sdft_analysis.default_options with domains = 4 } in
  let par = Sdft_analysis.analyze ~options pumps_sd in
  let key (i : Sdft_analysis.cutset_info) = (i.cutset, i.probability) in
  Alcotest.(check int) "same count" seq.Sdft_analysis.n_cutsets
    par.Sdft_analysis.n_cutsets;
  (* Per-cutset probabilities must be bit-identical, not merely close:
     the work distribution cannot change any numerical path. *)
  List.iter2
    (fun a b ->
      let ca, pa = key a and cb, pb = key b in
      Alcotest.(check bool) "same cutset" true (Int_set.equal ca cb);
      Alcotest.(check bool) "identical probability" true (pa = pb))
    seq.Sdft_analysis.cutsets par.Sdft_analysis.cutsets;
  (* The cost-descending schedule reorders work internally; the results
     must come back in input order, so the Kahan total sums identically. *)
  Alcotest.(check bool) "identical total" true
    (seq.Sdft_analysis.total = par.Sdft_analysis.total)

(* Error budget *)

let test_budget_certifies_pumps () =
  let r = Sdft_analysis.analyze pumps_sd in
  let b = r.Sdft_analysis.budget in
  Alcotest.(check bool) "not vacuous" false b.Sdft_analysis.vacuous;
  Alcotest.(check bool) "lower <= total" true (b.Sdft_analysis.lower <= r.Sdft_analysis.total);
  Alcotest.(check bool) "total <= upper" true (r.Sdft_analysis.total <= b.Sdft_analysis.upper);
  (* The certificate itself: the exact product-chain probability must lie
     inside the interval (pumps is small enough to solve exactly). *)
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "lower <= exact" true (b.Sdft_analysis.lower <= exact +. 1e-12);
  Alcotest.(check bool) "exact <= upper" true (exact <= b.Sdft_analysis.upper +. 1e-12);
  (* Term structure: nothing pruned at the default cutoff, a positive but
     tiny solver budget, slack = total - lower. *)
  check_close ~eps:1e-15 "no pruned mass" 0.0 b.Sdft_analysis.pruned_mass;
  check_close ~eps:1e-15 "no below-cutoff mass" 0.0 b.Sdft_analysis.below_cutoff_mass;
  Alcotest.(check bool) "solver budget positive" true (b.Sdft_analysis.solver_error_total > 0.0);
  Alcotest.(check bool) "solver budget tiny" true (b.Sdft_analysis.solver_error_total < 1e-9);
  check_close ~eps:1e-15 "slack = total - lower"
    (r.Sdft_analysis.total -. b.Sdft_analysis.lower)
    b.Sdft_analysis.rare_event_slack;
  check_close ~eps:1e-15 "upper = total + terms"
    (r.Sdft_analysis.total +. b.Sdft_analysis.pruned_mass
    +. b.Sdft_analysis.below_cutoff_mass +. b.Sdft_analysis.solver_error_total)
    b.Sdft_analysis.upper

let test_budget_below_cutoff_mass () =
  (* Generation prunes on worst-case probabilities, the relevance filter on
     the (smaller) time-aware p~. Cutoff 3e-4 sits between the two for
     {b,d} (worst case 5.6e-4, p~ 1.98e-4): the cutset survives generation,
     is quantified, then excluded from [total] — and must show up, in full,
     as below-cutoff mass in the upper bound. *)
  let options = { Sdft_analysis.default_options with cutoff = 3e-4 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  let b = r.Sdft_analysis.budget in
  let excluded =
    List.filter
      (fun (i : Sdft_analysis.cutset_info) -> i.probability <= 3e-4)
      r.Sdft_analysis.cutsets
  in
  Alcotest.(check bool) "some quantified cutsets excluded" true
    (excluded <> []);
  let mass =
    List.fold_left (fun acc (i : Sdft_analysis.cutset_info) -> acc +. i.probability) 0.0 excluded
  in
  check_close ~eps:1e-15 "below-cutoff mass accounted" mass
    b.Sdft_analysis.below_cutoff_mass;
  (* The widened interval still contains the full-precision answer. *)
  let full = Sdft_analysis.analyze pumps_sd in
  Alcotest.(check bool) "upper covers the unfiltered total" true
    (full.Sdft_analysis.total <= b.Sdft_analysis.upper)

let test_budget_pruned_mass_from_generation () =
  (* A generation-time cutoff (not just the relevance filter) must surface
     as pruned mass and keep the interval sound. MOCUS prunes on worst-case
     translated probabilities, so use a cutoff between the smallest and
     largest cutset contributions. *)
  let options = { Sdft_analysis.default_options with cutoff = 1e-5 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  let b = r.Sdft_analysis.budget in
  Alcotest.(check bool) "not vacuous" false b.Sdft_analysis.vacuous;
  Alcotest.(check bool) "something pruned at generation" true
    (r.Sdft_analysis.generation.Mocus.pruned_by_cutoff > 0);
  Alcotest.(check bool) "pruned mass positive" true (b.Sdft_analysis.pruned_mass > 0.0);
  let exact = Sdft_product.solve pumps_sd ~horizon:24.0 in
  Alcotest.(check bool) "interval still contains exact" true
    (b.Sdft_analysis.lower <= exact +. 1e-12
    && exact <= b.Sdft_analysis.upper +. 1e-12)

let test_budget_fallback_excluded_from_lower () =
  (* Starve the state bound so every dynamic cutset falls back to its
     worst-case product: those over-approximations must not anchor the
     lower bound, which falls to the best purely static cutset. *)
  let options = { Sdft_analysis.default_options with max_product_states = 1 } in
  let r = Sdft_analysis.analyze ~options pumps_sd in
  Alcotest.(check bool) "fallbacks happened" true (r.Sdft_analysis.n_fallbacks > 0);
  let best_static =
    List.fold_left
      (fun acc (i : Sdft_analysis.cutset_info) ->
        if i.used_fallback then acc else Float.max acc i.probability)
      0.0 r.Sdft_analysis.cutsets
  in
  Alcotest.(check bool) "lower anchored by non-fallback cutsets" true
    (r.Sdft_analysis.budget.Sdft_analysis.lower <= best_static)

let test_trace_does_not_change_results () =
  (* Bit-identical analytic output with tracing on and off — tracing only
     observes. *)
  let sink = Sdft_util.Trace.default in
  Sdft_util.Trace.reset_in sink;
  let off = Sdft_analysis.analyze pumps_sd in
  Sdft_util.Trace.set_enabled_in sink true;
  let on =
    Fun.protect
      ~finally:(fun () ->
        Sdft_util.Trace.set_enabled_in sink false;
        Sdft_util.Trace.reset_in sink)
      (fun () -> Sdft_analysis.analyze pumps_sd)
  in
  Alcotest.(check bool) "identical total" true
    (off.Sdft_analysis.total = on.Sdft_analysis.total);
  Alcotest.(check bool) "identical bounds" true
    (off.Sdft_analysis.budget.Sdft_analysis.lower
     = on.Sdft_analysis.budget.Sdft_analysis.lower
    && off.Sdft_analysis.budget.Sdft_analysis.upper
       = on.Sdft_analysis.budget.Sdft_analysis.upper);
  List.iter2
    (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
      Alcotest.(check bool) "identical p~" true (a.probability = b.probability))
    off.Sdft_analysis.cutsets on.Sdft_analysis.cutsets

(* Quantification cache *)

let sweep_options_for horizon =
  { Sdft_analysis.default_options with horizon }

let test_cache_sweep_second_pass_hits () =
  let option_sets = List.map sweep_options_for [ 12.0; 24.0 ] in
  let cache = Quant_cache.create () in
  let first, _ = Sdft_analysis.sweep ~cache pumps_sd option_sets in
  let misses_after_first = Quant_cache.misses cache in
  Alcotest.(check bool) "first pass misses" true (misses_after_first > 0);
  let second, _ = Sdft_analysis.sweep ~cache pumps_sd option_sets in
  Alcotest.(check int) "second pass: no new misses" misses_after_first
    (Quant_cache.misses cache);
  Alcotest.(check bool) "second pass: hits" true
    (List.for_all (fun (p : Sdft_analysis.sweep_point) -> p.cache_hits > 0) second);
  (* Cached results must match independent uncached runs to 1e-12. *)
  List.iter2
    (fun (p : Sdft_analysis.sweep_point) opts ->
      let uncached = Sdft_analysis.analyze ~options:opts pumps_sd in
      check_close ~eps:1e-12 "cached total = uncached total"
        uncached.Sdft_analysis.total p.sweep_result.Sdft_analysis.total;
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true (Int_set.equal a.cutset b.cutset);
          check_close ~eps:1e-12 "cached p~ = uncached p~" a.probability b.probability)
        uncached.Sdft_analysis.cutsets p.sweep_result.Sdft_analysis.cutsets)
    (first @ second) (option_sets @ option_sets)

let test_cache_isomorphic_cutsets_share () =
  (* OR(AND(x1,y1), AND(x2,y2)) with identical DBE descriptors: the two
     cutsets build isomorphic FT_C models, so one analyze call needs only
     one transient solve. *)
  let b = Fault_tree.Builder.create () in
  let mk name = Fault_tree.Builder.basic b name in
  let x1 = mk "x1" and y1 = mk "y1" and x2 = mk "x2" and y2 = mk "y2" in
  let a1 = Fault_tree.Builder.gate b "a1" Fault_tree.And [ x1; y1 ] in
  let a2 = Fault_tree.Builder.gate b "a2" Fault_tree.And [ x2; y2 ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ a1; a2 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let dbe () = Dbe.erlang ~phases:2 ~lambda:1e-3 ~mu:0.05 () in
  let sd =
    Sdft.make tree
      ~dynamic:[ ("x1", dbe ()); ("y1", dbe ()); ("x2", dbe ()); ("y2", dbe ()) ]
      ~triggers:[]
  in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~cache sd in
  Alcotest.(check int) "two cutsets" 2 r.Sdft_analysis.n_cutsets;
  Alcotest.(check int) "one miss" 1 (Quant_cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Quant_cache.hits cache);
  let uncached = Sdft_analysis.analyze sd in
  check_close ~eps:1e-12 "total matches uncached" uncached.Sdft_analysis.total
    r.Sdft_analysis.total

let test_cache_industrial_sweep_matches_uncached () =
  (* The acceptance scenario: a ≥3-horizon sweep on the (dynamized)
     industrial model must hit the cache and agree with independent
     uncached runs to 1e-12. *)
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.3;
      trigger_fraction = 0.03;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
    }
  in
  let sd = (Dynamize.run ~config tree).Dynamize.sd in
  let option_sets =
    List.map
      (fun horizon ->
        {
          Sdft_analysis.default_options with
          engine = Sdft_analysis.Zdd_engine;
          horizon;
        })
      [ 8.0; 24.0; 72.0 ]
  in
  let points, cache = Sdft_analysis.sweep sd option_sets in
  Alcotest.(check bool) "nonzero hit rate" true (Quant_cache.hits cache > 0);
  List.iter2
    (fun (p : Sdft_analysis.sweep_point) opts ->
      let uncached = Sdft_analysis.analyze ~options:opts sd in
      check_close ~eps:1e-12 "total matches uncached"
        uncached.Sdft_analysis.total p.sweep_result.Sdft_analysis.total;
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true (Int_set.equal a.cutset b.cutset);
          check_close ~eps:1e-12 "p~ matches uncached" a.probability b.probability)
        uncached.Sdft_analysis.cutsets p.sweep_result.Sdft_analysis.cutsets)
    points option_sets

(* A result's interval and every cutset's probability, product size and
   fallback flag, as bits. *)
let result_bits (r : Sdft_analysis.result) =
  let bits = Int64.bits_of_float in
  ( bits r.Sdft_analysis.total,
    bits r.budget.Sdft_analysis.lower,
    bits r.budget.Sdft_analysis.upper,
    List.map
      (fun (c : Sdft_analysis.cutset_info) ->
        ( Int_set.to_list c.cutset,
          bits c.probability,
          c.product_states,
          c.used_fallback ))
      r.cutsets )

let counter obs name =
  Sdft_util.Metrics.counter_value
    (Sdft_util.Metrics.counter_in obs.Sdft_util.Obs.metrics name)

let bwr_sd () = Sdft_format.of_file "../models/bwr.sdft"

(* Model-1 as the end-to-end benchmark builds it: the small industrial
   preset, 60% of its events Erlang-[phases] and repairable, 6% triggered
   along the run-event chains. *)
let model_1 ~phases =
  let tree = Industrial.generate Industrial.small in
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
  (Dynamize.run ~config tree).Dynamize.sd

let horizon_options ?(domains = Sdft_analysis.default_options.domains)
    horizons =
  List.map
    (fun horizon -> { Sdft_analysis.default_options with horizon; domains })
    horizons

(* A sweep runs the plans of all its points before one shared solve pass,
   yet each point must equal a standalone analysis of its options, bit for
   bit, at one domain and at two. *)
let check_sweep_points_standalone label sd horizons =
  List.iter
    (fun domains ->
      let option_sets = horizon_options ~domains horizons in
      let points, _ = Sdft_analysis.sweep sd option_sets in
      List.iter2
        (fun (p : Sdft_analysis.sweep_point) options ->
          let standalone = Sdft_analysis.analyze ~options sd in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d domain(s), %g h: sweep point = analyze"
               label domains options.Sdft_analysis.horizon)
            true
            (result_bits p.sweep_result = result_bits standalone))
        points option_sets)
    [ 1; 2 ]

let test_sweep_points_match_analyze () =
  check_sweep_points_standalone "BWR" (bwr_sd ()) [ 12.0; 24.0; 48.0; 72.0 ];
  check_sweep_points_standalone "model-1 Erlang-2" (model_1 ~phases:2)
    [ 12.0; 24.0 ]

(* A crash contained in one cutset's plan degrades that cutset only: the
   point that owns it records one Worker_crash fallback, on the cutset the
   crashing hit reached, and equals a standalone analysis that crashes on
   the same cutset; every other point equals its clean standalone
   analysis. *)
let test_sweep_worker_crash_stays_in_its_point () =
  let sd = bwr_sd () in
  let option_sets = horizon_options [ 12.0; 24.0 ] in
  let crashing nth =
    let obs = Sdft_util.Obs.create () in
    Sdft_util.Failpoint.set_in obs.Sdft_util.Obs.failpoints "parallel.worker"
      ~trigger:(Sdft_util.Failpoint.Nth nth) Sdft_util.Failpoint.Raise;
    obs
  in
  let clean =
    List.map (fun options -> Sdft_analysis.analyze ~options sd) option_sets
  in
  let first_count = (List.hd clean).Sdft_analysis.n_cutsets in
  List.iter
    (fun (domains, crashed, nth) ->
      let points, _ =
        Sdft_analysis.sweep ~obs:(crashing nth) sd
          (List.map
             (fun (o : Sdft_analysis.options) -> { o with domains })
             option_sets)
      in
      List.iteri
        (fun k ((p : Sdft_analysis.sweep_point), alone) ->
          let label =
            Printf.sprintf "%d domain(s), hit %d, point %d: " domains nth k
          in
          let r = p.sweep_result in
          if k <> crashed then
            Alcotest.(check bool) (label ^ "equals analyze") true
              (result_bits r = result_bits alone)
          else begin
            let index = if k = 0 then nth - 1 else nth - 1 - first_count in
            let crashes =
              List.filter
                (fun (c : Sdft_analysis.cutset_info) ->
                  c.degraded = Some Sdft_util.Guard.Worker_crash)
                r.Sdft_analysis.cutsets
            in
            Alcotest.(check (list (list int)))
              (label ^ "one crash, on the hit cutset")
              [ Int_set.to_list
                  (List.nth r.Sdft_analysis.generation.Mocus.cutsets index) ]
              (List.map
                 (fun (c : Sdft_analysis.cutset_info) ->
                   Int_set.to_list c.cutset)
                 crashes);
            let crashed_alone =
              Sdft_analysis.analyze ~obs:(crashing (index + 1))
                ~options:p.sweep_options sd
            in
            Alcotest.(check bool) (label ^ "equals a crashing analyze") true
              (result_bits r = result_bits crashed_alone)
          end)
        (List.combine points clean))
    [ (1, 0, 5); (1, 1, first_count + 3); (2, 1, first_count + 3) ]

let span_count obs name =
  match
    List.assoc_opt name
      (Sdft_util.Metrics.snapshot_in obs.Sdft_util.Obs.metrics)
        .Sdft_util.Metrics.histograms
  with
  | Some h -> h.Sdft_util.Metrics.count
  | None -> 0

(* A sweep's results, per-point and total cache traffic, shape explorations
   and trigger-gate classifications at [domains] domains. *)
let sweep_traffic sd horizons domains =
  let obs = Sdft_util.Obs.create () in
  let cache = Quant_cache.create () in
  let points, _ =
    Sdft_analysis.sweep ~cache ~obs sd (horizon_options ~domains horizons)
  in
  ( List.map
      (fun (p : Sdft_analysis.sweep_point) -> result_bits p.sweep_result)
      points,
    List.map
      (fun (p : Sdft_analysis.sweep_point) -> (p.cache_hits, p.cache_misses))
      points,
    (Quant_cache.misses cache, Quant_cache.hits cache),
    counter obs "product.explorations",
    span_count obs "classify.gate" )

(* Phase 2 solves each missed key once, by its first cutset in input order,
   so the cache traffic and every result bit are those of one domain at any
   domain count, the default one included. Concurrent workers used to miss
   on isomorphic sub-models side by side (86-98 misses at two domains in
   three runs). The sweep's points share one solve pass, grouped by shape,
   so [d] domains explore each shape at most [d] times. The plan fills the
   call's one FT_C context and the solve pass only reads it, so the gates
   classified are those of one domain too (a context per domain used to
   classify again, 15-18 times on BWR at two domains). Returns the
   one-domain traffic. *)
let check_traffic_any_domains label sd horizons =
  let (intervals, traffic, totals, explorations, classified) as one =
    sweep_traffic sd horizons 1
  in
  Alcotest.(check bool) (label ^ ": trigger gates classified") true
    (classified > 0);
  List.iter
    (fun domains ->
      let label = Printf.sprintf "%s, %d domains: " label domains in
      let intervals', traffic', totals', explorations', classified' =
        sweep_traffic sd horizons domains
      in
      Alcotest.(check bool) (label ^ "bit-identical intervals") true
        (intervals = intervals');
      Alcotest.(check (pair int int)) (label ^ "same misses and hits") totals
        totals';
      Alcotest.(check (list (pair int int)))
        (label ^ "per-point hits and misses") traffic traffic';
      Alcotest.(check int) (label ^ "same classify.gate count") classified
        classified';
      if explorations' > domains * explorations then
        Alcotest.failf "%s%d explorations, more than %d" label explorations'
          (domains * explorations))
    (List.sort_uniq compare [ 2; 4; Sdft_analysis.default_options.domains ]);
  one

let test_cache_sweep_traffic_any_domains () =
  let _, traffic, (misses, _), explorations, _ =
    check_traffic_any_domains "BWR" (bwr_sd ()) [ 12.0; 24.0; 48.0; 72.0 ]
  in
  (* BWR has the same 21 shapes at every horizon. *)
  Alcotest.(check int) "BWR, one domain: 84 misses" 84 misses;
  Alcotest.(check int) "BWR, one domain: 21 explorations" 21 explorations;
  Alcotest.(check (list (pair int int)))
    "BWR, one domain: per-point hits and misses"
    [ (271, 21); (301, 21); (313, 21); (343, 21) ]
    traffic;
  ignore
    (check_traffic_any_domains "model-1 Erlang-2" (model_1 ~phases:2)
       [ 12.0; 24.0 ])

(* Every point through one prepared model equals the same point prepared
   afresh, bit for bit, with the same cache traffic: the ZDD structure
   compiled at one horizon enumerates the others with their own
   probabilities, and the plan memo answers each rel-rule with its own
   entries. Points run in shuffled order, each an [analyze] over a cache
   shared across the points of its run, and the rel-rules one after
   the other through the same prepared model. All-events chains are capped
   at 2,000 states, so some of its cutsets take the fallback: BWR's largest
   take seconds each. *)
let check_prepared_equals_fresh label sd horizons =
  let rng = Random.State.make [| 35 |] in
  let shuffled l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  let prepared = Sdft_analysis.prepare sd in
  let obs = Sdft_util.Obs.create () in
  List.iter
    (fun (rule, rel_rule, max_product_states) ->
      let option_sets =
        List.map
          (fun horizon ->
            {
              Sdft_analysis.default_options with
              horizon;
              rel_rule;
              max_product_states;
            })
          (shuffled horizons)
      in
      let run ?obs ?prepared () =
        let cache = Quant_cache.create () in
        List.map
          (fun options ->
            let hits = Quant_cache.hits cache
            and misses = Quant_cache.misses cache in
            let r = Sdft_analysis.analyze ?obs ?prepared ~options ~cache sd in
            ( result_bits r,
              ( Quant_cache.hits cache - hits,
                Quant_cache.misses cache - misses ) ))
          option_sets
      in
      let through = run ~obs ~prepared () and fresh = run () in
      List.iter2
        (fun (options : Sdft_analysis.options) ((r, traffic), (r', traffic')) ->
          let label =
            Printf.sprintf "%s, %s, %g h: " label rule options.horizon
          in
          Alcotest.(check bool) (label ^ "prepared = fresh") true (r = r');
          Alcotest.(check (pair int int))
            (label ^ "same hits and misses") traffic' traffic)
        option_sets
        (List.combine through fresh))
    [
      ("paper", Cutset_model.Paper, 1_000_000);
      ("all events", Cutset_model.All_events, 2_000);
    ];
  Alcotest.(check int) (label ^ ": one ZDD compilation") 1
    (counter obs "zdd.compilations");
  Alcotest.(check bool) (label ^ ": the plan memo answered") true
    (counter obs "analysis.plan_memo_hits" > 0)

let test_prepared_equals_fresh () =
  check_prepared_equals_fresh "BWR" (bwr_sd ())
    [ 6.0; 12.0; 24.0; 48.0; 72.0; 96.0 ];
  check_prepared_equals_fresh "model-1 Erlang-2" (model_1 ~phases:2)
    [ 1.0; 8.0; 24.0 ]

(* A guard trip leaves nothing behind in a prepared model: after an
   analysis that trips on the model's first use, in the middle of its ZDD
   compilation or during the plan, the next unlimited analysis through the
   same prepared model equals a fresh one. *)
let test_prepared_after_guard_trips () =
  let sd = bwr_sd () in
  let options = { Sdft_analysis.default_options with engine = Zdd_engine } in
  let fresh = result_bits (Sdft_analysis.analyze ~options sd) in
  let after label ?(obs = Sdft_util.Obs.create ()) ~deadline check =
    let prepared = Sdft_analysis.prepare sd in
    let r =
      Sdft_analysis.analyze ~obs ~prepared
        ~options:{ options with deadline = Some deadline }
        sd
    in
    check r.Sdft_analysis.degradation;
    Alcotest.(check bool) (label ^ ": then prepared = fresh") true
      (result_bits (Sdft_analysis.analyze ~options ~prepared sd) = fresh)
  in
  let failing site trigger action =
    let obs = Sdft_util.Obs.create () in
    Sdft_util.Failpoint.set_in obs.Sdft_util.Obs.failpoints site ~trigger
      action;
    obs
  in
  let generation_stopped label (d : Sdft_analysis.degradation) =
    Alcotest.(check bool) (label ^ ": generation stopped") true
      (d.generation_limit = Some Sdft_util.Guard.Deadline)
  in
  after "first use" ~deadline:0.0 (generation_stopped "first use");
  after "ZDD compilation"
    ~obs:
      (failing "zdd.module" (Sdft_util.Failpoint.Nth 2)
         (Sdft_util.Failpoint.Limit Sdft_util.Guard.Deadline))
    ~deadline:60.0
    (generation_stopped "ZDD compilation");
  (* The fifth cutset's plan sleeps past the deadline: the first four are
     planned, the rest fall back. *)
  after "plan"
    ~obs:
      (failing "parallel.worker" (Sdft_util.Failpoint.Nth 5)
         (Sdft_util.Failpoint.Delay 0.6))
    ~deadline:0.5
    (fun d ->
      Alcotest.(check bool) "plan: generation completed" true
        (d.generation_limit = None);
      Alcotest.(check bool) "plan: cutsets fell back" true
        (List.mem_assoc Sdft_util.Guard.Deadline d.degraded_cutsets))

(* The solve pass builds through a read-only view of the plan's context.
   Through a sealed fresh context every BWR cutset builds the FT_C an
   ordinary build gives, and nothing is stored: building a triggered
   cutset twice classifies its trigger gates twice. A sealed view of a
   filled context classifies nothing. *)
let test_read_only_context () =
  let sd = bwr_sd () in
  let cutsets =
    (Sdft_analysis.phase1 Sdft_analysis.default_options sd)
      .Sdft_analysis.generation.Mocus.cutsets
  in
  let fingerprint (m : Cutset_model.t) =
    Option.map Quant_cache.fingerprint m.Cutset_model.model
  in
  let classified context cutset =
    let obs = Sdft_util.Obs.create () in
    let m = Cutset_model.build ~context ~obs sd cutset in
    (fingerprint m, span_count obs "classify.gate")
  in
  List.iter
    (fun cutset ->
      let plain = fingerprint (Cutset_model.build sd cutset) in
      let sealed = Cutset_model.read_only (Cutset_model.context sd) in
      Alcotest.(check (option string)) "sealed build = ordinary build" plain
        (fst (classified sealed cutset)))
    cutsets;
  let triggered =
    List.find
      (fun cutset ->
        snd (classified (Cutset_model.context sd) cutset) > 0)
      cutsets
  in
  let sealed = Cutset_model.read_only (Cutset_model.context sd) in
  let fp, first = classified sealed triggered in
  let fp', second = classified sealed triggered in
  Alcotest.(check bool) "a sealed context classifies" true (first > 0);
  Alcotest.(check (option string)) "same FT_C twice" fp fp';
  Alcotest.(check int) "a sealed context stores nothing" first second;
  let context = Cutset_model.context sd in
  ignore (classified context triggered);
  Alcotest.(check int) "a filled context classifies once" 0
    (snd (classified context triggered));
  Alcotest.(check int) "its sealed view reads it" 0
    (snd (classified (Cutset_model.read_only context) triggered))

let test_cache_fingerprint_name_independent () =
  let model names =
    let b = Fault_tree.Builder.create () in
    let leaves = List.map (fun n -> Fault_tree.Builder.basic b n) names in
    let top = Fault_tree.Builder.gate b "g" Fault_tree.And leaves in
    let tree = Fault_tree.Builder.build b ~top in
    Sdft.make tree
      ~dynamic:(List.map (fun n -> (n, Dbe.exponential ~lambda:2e-3 ())) names)
      ~triggers:[]
  in
  Alcotest.(check string) "renaming preserves the fingerprint"
    (Quant_cache.fingerprint (model [ "u"; "v" ]))
    (Quant_cache.fingerprint (model [ "p"; "q" ]));
  Alcotest.(check bool) "different rates change it" true
    (Quant_cache.fingerprint (model [ "u"; "v" ])
    <> Quant_cache.fingerprint
         (let b = Fault_tree.Builder.create () in
          let leaves = [ Fault_tree.Builder.basic b "u"; Fault_tree.Builder.basic b "v" ] in
          let top = Fault_tree.Builder.gate b "g" Fault_tree.And leaves in
          let tree = Fault_tree.Builder.build b ~top in
          Sdft.make tree
            ~dynamic:[ ("u", Dbe.exponential ~lambda:2e-3 ());
                       ("v", Dbe.exponential ~lambda:3e-3 ()) ]
            ~triggers:[]))

(* Fingerprint properties on random SD fault trees. *)

(* Nodes in the order the fingerprint's DFS first visits them: from the top
   gate, reaching trigger gates through their dynamic events. This is what
   the encoding covers. *)
let dfs_order sd =
  let tree = Sdft.tree sd in
  let seen_b = Array.make (Fault_tree.n_basics tree) false in
  let seen_g = Array.make (Fault_tree.n_gates tree) false in
  let order = ref [] in
  let rec basic b =
    if not seen_b.(b) then begin
      seen_b.(b) <- true;
      order := Fault_tree.B b :: !order;
      if Sdft.is_dynamic sd b then Option.iter gate (Sdft.trigger_of sd b)
    end
  and gate g =
    if not seen_g.(g) then begin
      seen_g.(g) <- true;
      order := Fault_tree.G g :: !order;
      Array.iter
        (function Fault_tree.B b -> basic b | Fault_tree.G g -> gate g)
        (Fault_tree.gate_inputs tree g)
    end
  in
  gate (Fault_tree.top tree);
  List.rev !order

(* [sd] with the given parts replaced. With [rng], every basic event is
   also declared in a seeded order, every gate in a seeded topological
   order, and all of them named by a seeded permutation. *)
let rebuild ?rng ?prob ?kind ?dbe ?trigger sd =
  let tree = Sdft.tree sd in
  let nb = Fault_tree.n_basics tree and ng = Fault_tree.n_gates tree in
  let prob = Option.value prob ~default:(Fault_tree.prob tree) in
  let kind = Option.value kind ~default:(Fault_tree.gate_kind tree) in
  let dbe = Option.value dbe ~default:(Sdft.dbe sd) in
  let trigger = Option.value trigger ~default:(Sdft.trigger_of sd) in
  let shuffle a = Option.iter (fun r -> Sdft_util.Rng.shuffle r a) rng in
  let basic_order = Array.init nb Fun.id in
  shuffle basic_order;
  let names = Array.init (nb + ng) Fun.id in
  shuffle names;
  let name i = Printf.sprintf "n%d" names.(i) in
  let declared = Array.make ng false in
  let ready g =
    (not declared.(g))
    && Array.for_all
         (function Fault_tree.G g' -> declared.(g') | Fault_tree.B _ -> true)
         (Fault_tree.gate_inputs tree g)
  in
  let gate_order =
    List.init ng (fun _ ->
        let ready = Array.of_list (List.filter ready (List.init ng Fun.id)) in
        shuffle ready;
        declared.(ready.(0)) <- true;
        ready.(0))
  in
  let b = Fault_tree.Builder.create () in
  let basics = Array.make nb (Fault_tree.B 0) in
  Array.iter
    (fun e -> basics.(e) <- Fault_tree.Builder.basic b ~prob:(prob e) (name e))
    basic_order;
  let gates = Array.make ng (Fault_tree.B 0) in
  List.iter
    (fun g ->
      let input = function
        | Fault_tree.B e -> basics.(e)
        | Fault_tree.G g' -> gates.(g')
      in
      gates.(g) <-
        Fault_tree.Builder.gate b (name (nb + g)) (kind g)
          (Array.to_list (Array.map input (Fault_tree.gate_inputs tree g))))
    gate_order;
  let tree' = Fault_tree.Builder.build b ~top:gates.(Fault_tree.top tree) in
  let new_b e = Option.get (Fault_tree.basic_index tree' (name e)) in
  let new_g g = Option.get (Fault_tree.gate_index tree' (name (nb + g))) in
  let dynamic = Sdft.dynamic_basics sd in
  Sdft.of_indexed tree'
    ~dynamic:(List.map (fun e -> (new_b e, dbe e)) dynamic)
    ~triggers:
      (List.filter_map
         (fun e -> Option.map (fun g -> (new_g g, new_b e)) (trigger e))
         dynamic)

(* [d] with the given parts replaced; [rate k r] maps the rate of the
   [k]-th transition. *)
let dbe_with ?(rate = fun _ r -> r) ?failed ?partner d =
  let n = Dbe.n_states d in
  let failed = Option.value failed ~default:(Dbe.is_failed d) in
  let k = ref 0 and transitions = ref [] in
  Ctmc.iter_transitions (Dbe.chain d) (fun src dst r ->
      transitions := (src, dst, rate !k r) :: !transitions;
      incr k);
  let switch =
    if not (Dbe.is_triggered_model d) then None
    else
      let image s =
        match Dbe.mode_of d s with
        | Dbe.Off -> Dbe.switch_on d s
        | Dbe.On -> Dbe.switch_off d s
      in
      Some
        ( Array.init n (Dbe.mode_of d),
          Option.value partner ~default:(Array.init n image) )
  in
  Dbe.make ~n_states:n ~init:(Dbe.init d) ~transitions:(List.rev !transitions)
    ~failed:(List.filter failed (List.init n Fun.id))
    ?switch ()

let replace x v f y = if y = x then v else f y

(* Each single mutation of a node the DFS reaches, as a pair of models that
   differ only by it (the model and its mutant, or for [Atleast k] two
   values of [k]); [None] when no reached node admits the mutation. *)
let mutations sd =
  let tree = Sdft.tree sd in
  let order = dfs_order sd in
  let basics =
    List.filter_map (function Fault_tree.B b -> Some b | _ -> None) order
  in
  let gates =
    List.filter_map (function Fault_tree.G g -> Some g | _ -> None) order
  in
  let dynamic = List.filter (Sdft.is_dynamic sd) basics in
  let first l f = List.find_map f l in
  let mutant m = Some (sd, m) in
  let with_dbe b d = mutant (rebuild ~dbe:(replace b d (Sdft.dbe sd)) sd) in
  let kind g k = rebuild ~kind:(replace g k (Fault_tree.gate_kind tree)) sd in
  let states d = List.init (Dbe.n_states d) Fun.id in
  [
    ( "rate",
      first dynamic (fun b ->
          with_dbe b
            (dbe_with (Sdft.dbe sd b) ~rate:(fun k r ->
                 if k = 0 then Float.succ r else r))) );
    ( "static probability",
      first basics (fun b ->
          if Sdft.is_dynamic sd b then None
          else
            let p = Fault_tree.prob tree b in
            let p' = if p < 1.0 then Float.succ p else Float.pred p in
            mutant (rebuild ~prob:(replace b p' (Fault_tree.prob tree)) sd)) );
    ( "failed state",
      first dynamic (fun b ->
          let d = Sdft.dbe sd b in
          match List.filter (Dbe.is_failed d) (states d) with
          | s :: _ :: _ ->
            with_dbe b (dbe_with d ~failed:(fun x -> x <> s && Dbe.is_failed d x))
          | _ ->
            Option.bind
              (List.find_opt
                 (fun s -> (not (Dbe.is_failed d s)) && Dbe.mode_of d s = Dbe.On)
                 (states d))
              (fun s ->
                with_dbe b
                  (dbe_with d ~failed:(fun x -> x = s || Dbe.is_failed d x)))) );
    ( "switch partner",
      first dynamic (fun b ->
          let d = Sdft.dbe sd b in
          if not (Dbe.is_triggered_model d) then None
          else
            match List.filter (fun s -> Dbe.mode_of d s = Dbe.Off) (states d) with
            | s1 :: s2 :: _ when Dbe.switch_on d s1 <> Dbe.switch_on d s2 ->
              let partner =
                Array.init (Dbe.n_states d) (fun s ->
                    if s = s1 then Dbe.switch_on d s2
                    else if s = s2 then Dbe.switch_on d s1
                    else if Dbe.mode_of d s = Dbe.Off then Dbe.switch_on d s
                    else Dbe.switch_off d s)
              in
              with_dbe b (dbe_with d ~partner)
            | _ -> None) );
    ( "atleast k",
      first gates (fun g ->
          if Array.length (Fault_tree.gate_inputs tree g) < 2 then None
          else Some (kind g (Fault_tree.Atleast 1), kind g (Fault_tree.Atleast 2)))
    );
    ( "gate kind",
      first gates (fun g ->
          mutant
            (kind g
               (match Fault_tree.gate_kind tree g with
               | Fault_tree.And -> Fault_tree.Or
               | Fault_tree.Or | Fault_tree.Atleast _ -> Fault_tree.And))) );
    ( "trigger gate",
      first dynamic (fun b ->
          match Sdft.trigger_of sd b with
          | None -> None
          | Some g ->
            (* A gate the DFS entered before [b] already has an id when
               [b]'s trigger is written, so that token must change. *)
            let rec entered_before = function
              | Fault_tree.G g' :: rest -> g' :: entered_before rest
              | Fault_tree.B b' :: rest when b' <> b -> entered_before rest
              | _ -> []
            in
            first (entered_before order) (fun g' ->
                if g' = g then None
                else
                  match
                    rebuild ~trigger:(replace b (Some g') (Sdft.trigger_of sd)) sd
                  with
                  | m -> mutant m
                  | exception Invalid_argument _ -> None)) );
  ]

let fingerprint_seeds = List.init 300 Fun.id

let test_fingerprint_renaming_invariant () =
  List.iter
    (fun seed ->
      let sd = Gen_sdft.sd ~n_dynamic:3 ~n_triggers:2 seed in
      let fp = Quant_cache.fingerprint sd in
      Alcotest.(check string) "rebuilt unchanged" fp
        (Quant_cache.fingerprint (rebuild sd));
      let rng = Sdft_util.Rng.create (seed + 1) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: renamed and reordered" seed)
        fp
        (Quant_cache.fingerprint (rebuild ~rng sd)))
    fingerprint_seeds

(* Every mutation kind must change the fingerprint wherever it applies, and
   must apply on enough of the seeds to mean something. *)
let test_fingerprint_mutations () =
  let applied = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let sd = Gen_sdft.sd ~n_dynamic:3 ~n_triggers:2 seed in
      List.iter
        (fun (name, pair) ->
          if not (Hashtbl.mem applied name) then Hashtbl.replace applied name 0;
          match pair with
          | None -> ()
          | Some (a, b) ->
            Hashtbl.replace applied name (Hashtbl.find applied name + 1);
            if Quant_cache.fingerprint a = Quant_cache.fingerprint b then
              Alcotest.failf "seed %d: %s leaves the fingerprint unchanged" seed
                name)
        (mutations sd))
    fingerprint_seeds;
  Hashtbl.iter
    (fun name n ->
      if n < 20 then
        Alcotest.failf "mutation %s applied on only %d of %d seeds" name n
          (List.length fingerprint_seeds))
    applied

let test_point_key_inputs () =
  let sd = Gen_sdft.sd ~n_dynamic:3 ~n_triggers:2 0 in
  let o = Sdft_analysis.default_options in
  let variants =
    [
      ("base", sd, o);
      ("horizon", sd, { o with horizon = Float.succ o.horizon });
      ("cutoff", sd, { o with cutoff = Float.succ o.cutoff });
      ("epsilon", sd, { o with transient_epsilon = Float.succ o.transient_epsilon });
      ("max states", sd, { o with max_product_states = o.max_product_states + 1 });
      ("max order", sd, { o with max_cutset_order = Some 3 });
      ("max order 4", sd, { o with max_cutset_order = Some 4 });
      ("rel rule", sd, { o with rel_rule = Cutset_model.All_events });
      ("deadline", sd, { o with deadline = Some 10.0 });
      ("mem limit", sd, { o with mem_limit_mb = Some 512 });
    ]
    @ List.map
        (fun (name, engine) -> ("engine " ^ name, sd, { o with engine }))
        (List.filter (fun (_, e) -> e <> o.engine) Sdft_analysis.engines)
    @ List.filter_map
        (fun (name, pair) ->
          Option.map (fun (_, m) -> ("model " ^ name, m, o)) pair)
        (List.filter (fun (name, _) -> name <> "atleast k") (mutations sd))
  in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (name, sd, o) ->
      let key = Sdft_analysis.point_key sd o in
      (match Hashtbl.find_opt keys key with
      | Some other -> Alcotest.failf "%s and %s share a point key" name other
      | None -> ());
      Hashtbl.replace keys key name)
    variants;
  Alcotest.(check string) "domains do not change the key"
    (Sdft_analysis.point_key sd o)
    (Sdft_analysis.point_key sd { o with domains = 4 })

(* Soundness properties on random SD fault trees (cutoff 0):

   - with the exact [All_events] relevant sets, the rare-event sum
     upper-bounds the exact product probability (property (i) of Section V:
     the failed runs are covered by the per-cutset reach events);
   - the paper's reduced relevant sets never yield more than the exact
     rule (they model a subset of the triggering paths);
   - untriggered models need no trigger logic at all, so there the paper
     rule itself upper-bounds the exact value. *)
let random_sd ?(n_triggers = 1) seed = Gen_sdft.sd ~n_triggers seed

let analyze_with ?(rel_rule = Cutset_model.Paper) sd =
  let options =
    { Sdft_analysis.default_options with cutoff = 0.0; horizon = 8.0; rel_rule }
  in
  (Sdft_analysis.analyze ~options sd).Sdft_analysis.total

let prop_analysis_bounds_exact_untriggered =
  QCheck.Test.make ~name:"REA >= exact (untriggered models)" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd ~n_triggers:0 seed in
      match Sdft_product.solve sd ~horizon:8.0 with
      | exact -> analyze_with sd >= exact -. 1e-7
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ())

let prop_analysis_all_events_bounds_exact =
  QCheck.Test.make ~name:"REA (All_events rule) >= exact" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      match Sdft_product.solve sd ~horizon:8.0 with
      | exact ->
        analyze_with ~rel_rule:Cutset_model.All_events sd >= exact -. 1e-7
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ())

let prop_paper_rule_below_exact_rule =
  QCheck.Test.make ~name:"paper rule <= All_events rule" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      analyze_with sd <= analyze_with ~rel_rule:Cutset_model.All_events sd +. 1e-9)

let test_analysis_parallel_reordered_schedule_identical () =
  (* A model with heterogeneous cutset costs (0/1/2 dynamic events across
     cutsets) so the load-balancing sort genuinely permutes the schedule;
     every per-cutset field must still match the sequential run exactly. *)
  let sd = random_sd 4242 in
  let base = { Sdft_analysis.default_options with cutoff = 0.0; horizon = 8.0 } in
  let seq = Sdft_analysis.analyze ~options:base sd in
  List.iter
    (fun domains ->
      let par = Sdft_analysis.analyze ~options:{ base with domains } sd in
      Alcotest.(check bool) "identical total" true
        (seq.Sdft_analysis.total = par.Sdft_analysis.total);
      List.iter2
        (fun (a : Sdft_analysis.cutset_info) (b : Sdft_analysis.cutset_info) ->
          Alcotest.(check bool) "same cutset" true
            (Int_set.equal a.cutset b.cutset);
          Alcotest.(check bool) "identical probability" true
            (a.probability = b.probability);
          Alcotest.(check int) "same product states" a.product_states
            b.product_states;
          Alcotest.(check int) "same n_dynamic" a.n_dynamic b.n_dynamic)
        seq.Sdft_analysis.cutsets par.Sdft_analysis.cutsets)
    [ 2; 3 ]

let prop_packed_matches_generic =
  (* The mixed-radix packed exploration must be indistinguishable from the
     array-keyed generic path: same interning order, hence identical chain,
     initial distribution, failure labelling, and solve result (to the bit). *)
  QCheck.Test.make ~name:"packed product build = generic build" ~count:80
    Gen_sdft.seed_gen
    (fun seed ->
      let sd = random_sd seed in
      match Sdft_product.build sd with
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ()
      | packed ->
        let generic = Sdft_product.build ~generic:true sd in
        let transitions b =
          let acc = ref [] in
          Ctmc.iter_transitions b.Sdft_product.chain (fun s d r ->
              acc := (s, d, r) :: !acc);
          List.rev !acc
        in
        packed.Sdft_product.n_states = generic.Sdft_product.n_states
        && packed.Sdft_product.init = generic.Sdft_product.init
        && packed.Sdft_product.failed = generic.Sdft_product.failed
        && packed.Sdft_product.participants = generic.Sdft_product.participants
        && transitions packed = transitions generic
        && Sdft_product.unreliability packed ~horizon:8.0
           = Sdft_product.unreliability generic ~horizon:8.0)

(* Template reuse: a build whose shape matches the domain's last
   exploration instantiates that template instead of exploring, and must
   still equal a fresh generic exploration to the bit. *)

(* The same model with every DBE transition rate and every static
   probability strictly inside (0, 1) redrawn: same shape, new numbers. *)
let rerate rng sd =
  let tree = Sdft.tree sd in
  let probs =
    Array.init (Fault_tree.n_basics tree) (fun b ->
        let p = Fault_tree.prob tree b in
        if p > 0.0 && p < 1.0 then 0.01 +. (Sdft_util.Rng.float rng *. 0.5)
        else p)
  in
  let redraw d =
    let n = Dbe.n_states d in
    let transitions = ref [] in
    Ctmc.iter_transitions (Dbe.chain d) (fun s t r ->
        let r = r *. (0.5 +. Sdft_util.Rng.float rng) in
        transitions := (s, t, r) :: !transitions);
    let switch =
      if Dbe.is_triggered_model d then
        Some
          ( Array.init n (Dbe.mode_of d),
            Array.init n (fun s ->
                if Dbe.mode_of d s = Dbe.On then Dbe.switch_off d s
                else Dbe.switch_on d s) )
      else None
    in
    Dbe.make ~n_states:n ~init:(Dbe.init d) ~transitions:!transitions
      ~failed:(List.filter (Dbe.is_failed d) (List.init n Fun.id))
      ?switch ()
  in
  Sdft.of_indexed
    (Fault_tree.with_probs tree probs)
    ~dynamic:
      (List.map
         (fun b -> (b, redraw (Sdft.dbe sd b)))
         (Sdft.dynamic_basics sd))
    ~triggers:(Sdft.trigger_edges sd)

let same_build (a : Sdft_product.built) (b : Sdft_product.built) =
  let transitions (x : Sdft_product.built) =
    let acc = ref [] in
    Ctmc.iter_transitions x.chain (fun s d r ->
        acc := (s, d, Int64.bits_of_float r) :: !acc);
    List.rev !acc
  in
  a.n_states = b.n_states && a.init = b.init && a.failed = b.failed
  && a.participants = b.participants
  && transitions a = transitions b
  && Int64.equal
       (Int64.bits_of_float (Sdft_product.unreliability a ~horizon:8.0))
       (Int64.bits_of_float (Sdft_product.unreliability b ~horizon:8.0))

let prop_template_hit_matches_generic =
  QCheck.Test.make ~name:"template hit = generic build" ~count:80
    Gen_sdft.seed_gen
    (fun seed ->
      let a = random_sd seed in
      let b = rerate (Sdft_util.Rng.create (seed + 1)) a in
      match Sdft_product.build a with
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ()
      | _ ->
        let obs = Sdft_util.Obs.create () in
        let hit = Sdft_product.build ~obs b in
        counter obs "product.template_hits" = 1
        && counter obs "product.explorations" = 0
        && same_build hit (Sdft_product.build ~generic:true b))

let test_template_needs_same_init_support () =
  (* p = 0 drops the failed initial state of the static leaf, so the two
     models reach different states: no shared template, both exact. *)
  let model p =
    let b = Fault_tree.Builder.create () in
    let s = Fault_tree.Builder.basic b ~prob:p "s" in
    let d = Fault_tree.Builder.basic b "d" in
    let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ s; d ] in
    Sdft.make
      (Fault_tree.Builder.build b ~top)
      ~dynamic:[ ("d", Dbe.erlang ~phases:2 ~lambda:0.01 ~mu:0.1 ()) ]
      ~triggers:[]
  in
  let zero = model 0.0 and some = model 0.3 in
  let obs = Sdft_util.Obs.create () in
  let built_zero = Sdft_product.build ~obs zero in
  let built_some = Sdft_product.build ~obs some in
  Alcotest.(check int) "no template shared" 0
    (counter obs "product.template_hits");
  Alcotest.(check int) "both explored" 2 (counter obs "product.explorations");
  Alcotest.(check bool) "p = 0 exact" true
    (same_build built_zero (Sdft_product.build ~generic:true zero));
  Alcotest.(check bool) "p = 0.3 exact" true
    (same_build built_some (Sdft_product.build ~generic:true some))

let test_template_needs_same_initial_states () =
  (* Same shape key, but with p = 1e-200 the mass of "both leaves failed"
     underflows to zero and that initial state is never enumerated: the
     second build must not reuse the first one's initial states. *)
  let model p =
    let b = Fault_tree.Builder.create () in
    let x = Fault_tree.Builder.basic b ~prob:p "x" in
    let y = Fault_tree.Builder.basic b ~prob:p "y" in
    let d = Fault_tree.Builder.basic b "d" in
    let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x; y; d ] in
    Sdft.make
      (Fault_tree.Builder.build b ~top)
      ~dynamic:[ ("d", Dbe.exponential ~lambda:0.01 ()) ]
      ~triggers:[]
  in
  let likely = model 0.1 and tiny = model 1e-200 in
  let obs = Sdft_util.Obs.create () in
  ignore (Sdft_product.build ~obs likely);
  let built = Sdft_product.build ~obs tiny in
  Alcotest.(check int) "no template shared" 0
    (counter obs "product.template_hits");
  Alcotest.(check bool) "exact" true
    (same_build built (Sdft_product.build ~generic:true tiny))

(* A chain built without a workspace has rate and exit vectors of its
   own: later builds of its shape, with or without a workspace, re-rate
   the template but never write into an earlier chain. *)
let test_unshared_chain_survives_later_builds () =
  let a = random_sd 11 in
  let b = rerate (Sdft_util.Rng.create 12) a in
  Sdft_product.release_template ();
  let built = Sdft_product.build a in
  let rates = Array.copy (Ctmc.rates built.Sdft_product.chain) in
  let exits = Array.copy (Ctmc.exit_rates built.Sdft_product.chain) in
  let obs = Sdft_util.Obs.create () in
  let ws = Transient.workspace () in
  ignore (Sdft_product.build ~obs b);
  ignore (Sdft_product.build ~obs ~workspace:ws b);
  ignore (Sdft_product.build ~obs ~workspace:ws a);
  Alcotest.(check int) "later builds re-rate the template" 3
    (counter obs "product.template_hits");
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check bool) "rates untouched" true
    (bits rates = bits (Ctmc.rates built.Sdft_product.chain));
  Alcotest.(check bool) "exit rates untouched" true
    (bits exits = bits (Ctmc.exit_rates built.Sdft_product.chain));
  Alcotest.(check bool) "still the generic chain" true
    (same_build built (Sdft_product.build ~generic:true a))

(* One workspace carries every chain of a run of [Cutset_model.solve]
   calls: models that switch shapes, shrink and grow, and come back to a
   shape re-rated. Each answer equals a fresh solve of a generic build,
   which shares no template and no buffer with anything. *)
let prop_workspace_solves_match_fresh =
  QCheck.Test.make ~name:"solves through one workspace = fresh solves"
    ~count:60 Gen_sdft.seed_gen (fun seed ->
      let a = random_sd seed in
      let b = rerate (Sdft_util.Rng.create (seed + 1)) a in
      let c = Gen_sdft.sd ~n_basics:3 ~n_gates:2 ~n_dynamic:3 (seed + 2) in
      let models = [ a; b; c; b; a; c; c; a ] in
      let horizon = 8.0 in
      let fresh sd =
        let built = Sdft_product.build ~generic:true sd in
        let ws = Transient.workspace () in
        let p = Sdft_product.unreliability ~workspace:ws built ~horizon in
        ( Int64.bits_of_float p,
          built.Sdft_product.n_states,
          Ctmc.n_transitions built.Sdft_product.chain,
          Transient.last_steps ws )
      in
      match List.map fresh models with
      | exception Sdft_product.Too_many_states _ -> QCheck.assume_fail ()
      | expected ->
        Sdft_product.release_template ();
        let ws = Transient.workspace () in
        let got =
          List.map
            (fun sd ->
              let e = Cutset_model.solve ~workspace:ws sd ~horizon in
              ( Int64.bits_of_float e.Cutset_model.e_prob,
                e.Cutset_model.e_states,
                e.Cutset_model.e_transitions,
                e.Cutset_model.e_steps ))
            models
        in
        got = expected)

(* Model-1 as the end-to-end benchmark builds it: the Industrial small
   preset with 60% of its events Erlang-2 dynamic and repairable, 6%
   triggered along the run-event chains. *)
let model_1_erlang_2 () =
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.6;
      trigger_fraction = 0.06;
      phases = 2;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
      calibration = Dynamize.Mission_probability;
    }
  in
  (Dynamize.run ~config tree).Dynamize.sd

(* Phase 2 groups its product builds by shape, so each domain explores each
   shape of the cache misses once and re-rates the template for the rest
   of the group. In input order the same run explored 35 times. *)
let test_analysis_one_exploration_per_shape () =
  let sd = model_1_erlang_2 () in
  let options = { Sdft_analysis.default_options with horizon = 12.0 } in
  let shapes =
    let p1 = Sdft_analysis.phase1 options sd in
    let context = Cutset_model.context sd in
    let keys = Hashtbl.create 512 and shapes = Hashtbl.create 16 in
    List.iter
      (fun cutset ->
        let m = Cutset_model.build ~context sd cutset in
        match
          Quant_cache.key_of
            ~engine_tag:(Sdft_analysis.engine_name p1.Sdft_analysis.engine_used)
            ~epsilon:options.transient_epsilon
            ~max_states:options.max_product_states ~horizon:options.horizon m
        with
        | Some key when not (Hashtbl.mem keys key) ->
          Hashtbl.add keys key ();
          Hashtbl.replace shapes
            (Sdft_product.shape (Option.get m.Cutset_model.model))
            ()
        | _ -> ())
      p1.Sdft_analysis.generation.Mocus.cutsets;
    Hashtbl.length shapes
  in
  let run domains =
    let obs = Sdft_util.Obs.create () in
    let r =
      Sdft_analysis.analyze ~options:{ options with domains }
        ~cache:(Quant_cache.create ()) ~obs sd
    in
    (counter obs "product.explorations", Printf.sprintf "%h" r.Sdft_analysis.total)
  in
  let explorations, total = run 1 in
  Alcotest.(check int) "one domain: one exploration per shape" shapes
    explorations;
  Alcotest.(check string) "total as before" "0x1.054d510a0e06p-30" total;
  let explorations, total = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "two domains: %d explorations, at most %d" explorations
       (2 * shapes))
    true
    (explorations <= 2 * shapes);
  Alcotest.(check string) "two domains: same total" "0x1.054d510a0e06p-30" total

(* The default domain count is the machine's, and a model-1 analysis at
   it equals one domain's, bit for bit, in its interval, every cutset's
   probability and product size, and the cache's misses. Where the
   machine recommends one domain, two stand in for the default. (BWR
   sweeps at the default are in the quant cache group.) *)
let test_default_domains_match_one () =
  let default = Sdft_analysis.default_options in
  Alcotest.(check int) "default is the machine's count"
    (Domain.recommended_domain_count ())
    default.domains;
  let wide =
    if default.domains > 1 then default else { default with domains = 2 }
  in
  let m1 = model_1_erlang_2 () in
  let analyze options =
    let cache = Quant_cache.create () in
    let r =
      Sdft_analysis.analyze ~options:{ options with horizon = 12.0 } ~cache m1
    in
    (result_bits r, Quant_cache.misses cache)
  in
  let one, one_misses = analyze { default with domains = 1 } in
  let many, many_misses = analyze wide in
  Alcotest.(check int) "same misses" one_misses many_misses;
  Alcotest.(check bool) "bit-identical analysis" true (one = many)

let prop_analysis_single_mcs_exact =
  (* With a single minimal cutset and the exact relevant sets, the analysis
     equals the exact probability; the paper rule never exceeds it. *)
  QCheck.Test.make ~name:"single-MCS models are quantified exactly" ~count:60
    Gen_sdft.seed_gen
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let sd =
        Random_tree.sd rng ~max_prob:0.2 ~n_basics:4 ~n_gates:3 ~n_dynamic:2
          ~n_triggers:1
      in
      let options =
        { Sdft_analysis.default_options with cutoff = 0.0; horizon = 6.0;
          rel_rule = Cutset_model.All_events }
      in
      let r = Sdft_analysis.analyze ~options sd in
      if r.Sdft_analysis.n_cutsets <> 1 then QCheck.assume_fail ()
      else begin
        let exact = Sdft_product.solve sd ~horizon:6.0 in
        let paper =
          (Sdft_analysis.analyze
             ~options:{ options with rel_rule = Cutset_model.Paper }
             sd)
            .Sdft_analysis.total
        in
        Float.abs (r.Sdft_analysis.total -. exact) < 1e-7
        && paper <= exact +. 1e-7
      end)

(* ------------------------------------------------------------------ *)
(* Cut sequences *)

let test_sequences_triggered_order_forced () =
  (* {b, d}: the spare pump d can only fail after b has failed, so the only
     order is b -> d and it carries all of p~(C). *)
  let r = Cut_sequences.of_cutset pumps_sd (pset [ "b"; "d" ]) ~horizon:24.0 in
  Alcotest.(check int) "one order" 1 (List.length r.Cut_sequences.sequences);
  let s = List.hd r.Cut_sequences.sequences in
  Alcotest.(check (list int)) "b then d" [ pidx "b"; pidx "d" ] s.Cut_sequences.order;
  let m = Cutset_model.build pumps_sd (pset [ "b"; "d" ]) in
  let q = Cutset_model.quantify m ~horizon:24.0 in
  check_close ~eps:1e-12 "total = p~" q.Cutset_model.probability r.Cut_sequences.total

let test_sequences_symmetric_split () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [ ("x", Dbe.exponential ~lambda:0.1 ()); ("y", Dbe.exponential ~lambda:0.1 ()) ]
      ~triggers:[]
  in
  let r =
    Cut_sequences.of_cutset sd (Int_set.of_list [ 0; 1 ]) ~horizon:10.0
  in
  Alcotest.(check int) "two orders" 2 (List.length r.Cut_sequences.sequences);
  (match r.Cut_sequences.sequences with
  | [ s1; s2 ] -> check_close ~eps:1e-12 "50/50" s1.Cut_sequences.probability s2.Cut_sequences.probability
  | _ -> Alcotest.fail "expected two sequences");
  (* total = (1 - e^-1)^2 *)
  let p1 = 1.0 -. exp (-1.0) in
  check_close ~eps:1e-9 "closed form" (p1 *. p1) r.Cut_sequences.total

let test_sequences_static_cutset () =
  let r = Cut_sequences.of_cutset pumps_sd (pset [ "a"; "c" ]) ~horizon:24.0 in
  Alcotest.(check int) "one empty order" 1 (List.length r.Cut_sequences.sequences);
  check_close ~eps:1e-15 "static probability" 9e-6 r.Cut_sequences.total

let test_sequences_asymmetric_rates () =
  (* x fails much faster than y: the order x -> y must dominate. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [ ("x", Dbe.exponential ~lambda:1.0 ()); ("y", Dbe.exponential ~lambda:0.05 ()) ]
      ~triggers:[]
  in
  let r = Cut_sequences.of_cutset sd (Int_set.of_list [ 0; 1 ]) ~horizon:10.0 in
  match r.Cut_sequences.sequences with
  | s1 :: _ ->
    Alcotest.(check (list int)) "x first dominates" [ 0; 1 ] s1.Cut_sequences.order;
    Alcotest.(check bool) "dominant" true
      (s1.Cut_sequences.probability > 0.8 *. r.Cut_sequences.total)
  | [] -> Alcotest.fail "no sequences"

let test_sequences_sum_matches_quantification () =
  (* On the static-joins model the sequence masses must add up to p~. *)
  let sd = static_joins_model () in
  let tree = Sdft.tree sd in
  let ids = List.map (fun n -> Option.get (Fault_tree.basic_index tree n)) in
  let cutset = Int_set.of_list (ids [ "y"; "j" ]) in
  let r = Cut_sequences.of_cutset sd cutset ~horizon:24.0 in
  let q = Cutset_model.quantify (Cutset_model.build sd cutset) ~horizon:24.0 in
  check_close ~eps:1e-9 "sum = p~" q.Cutset_model.probability r.Cut_sequences.total;
  Alcotest.(check bool) "several orders" true (List.length r.Cut_sequences.sequences >= 2)

(* ------------------------------------------------------------------ *)
(* Steady-state availability *)

let test_availability_exponential () =
  let lambda = 0.02 and mu = 0.4 in
  let d = Dbe.exponential ~lambda ~mu () in
  match Availability.event_unavailability d with
  | Some q -> check_close ~eps:1e-9 "q" (lambda /. (lambda +. mu)) q
  | None -> Alcotest.fail "expected steady state"

let test_availability_unrepairable () =
  let d = Dbe.exponential ~lambda:0.02 () in
  Alcotest.(check bool) "no steady state" true
    (Availability.event_unavailability d = None)

let test_availability_triggered () =
  (* The on-copy of a triggered exponential with repair is the plain
     repairable machine. *)
  let lambda = 0.05 and mu = 0.3 in
  let d = Dbe.triggered_exponential ~lambda ~mu ~passive_factor:0.0 () in
  match Availability.event_unavailability d with
  | Some q -> check_close ~eps:1e-9 "q" (lambda /. (lambda +. mu)) q
  | None -> Alcotest.fail "expected steady state"

let test_availability_analyze () =
  (* top = AND(x, y), both repairable: long-run unavailability is the
     product of the two steady-state unavailabilities (REA over one
     cutset). *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ x; y ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree
      ~dynamic:
        [
          ("x", Dbe.exponential ~lambda:0.02 ~mu:0.5 ());
          ("y", Dbe.exponential ~lambda:0.03 ~mu:0.4 ());
        ]
      ~triggers:[]
  in
  match Availability.analyze
      ~options:{ Sdft_analysis.default_options with cutoff = 0.0 }
      sd with
  | Some r ->
    let qx = 0.02 /. 0.52 and qy = 0.03 /. 0.43 in
    check_close ~eps:1e-9 "product" (qx *. qy) r.Availability.unavailability;
    Alcotest.(check int) "one cutset" 1 r.Availability.n_cutsets
  | None -> Alcotest.fail "expected result"

let test_availability_mixed_static () =
  (* OR of a static event and a repairable one. *)
  let b = Fault_tree.Builder.create () in
  let s = Fault_tree.Builder.basic b ~prob:1e-3 "s" in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ s; x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let sd =
    Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:0.01 ~mu:1.0 ()) ] ~triggers:[]
  in
  match Availability.analyze
      ~options:{ Sdft_analysis.default_options with cutoff = 0.0 }
      sd with
  | Some r ->
    check_close ~eps:1e-9 "sum" (1e-3 +. (0.01 /. 1.01)) r.Availability.unavailability
  | None -> Alcotest.fail "expected result"

let test_availability_rejects_unrepairable_model () =
  let sd = Pumps.sd_tree () in
  ignore sd;
  (* pumps has repairable dynamics, so it should work... build an
     unrepairable one instead. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let bad =
    Sdft.make tree ~dynamic:[ ("x", Dbe.exponential ~lambda:0.01 ()) ] ~triggers:[]
  in
  Alcotest.(check bool) "None for unrepairable" true (Availability.analyze bad = None)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "dbe",
        [
          Alcotest.test_case "init sums to 1" `Quick test_dbe_init_must_sum_to_one;
          Alcotest.test_case "needs failed state" `Quick test_dbe_needs_failed_state;
          Alcotest.test_case "failed must be on" `Quick test_dbe_failed_must_be_on;
          Alcotest.test_case "starts off" `Quick test_dbe_triggered_starts_off;
          Alcotest.test_case "partner modes" `Quick test_dbe_partner_opposite_mode;
          Alcotest.test_case "exponential worst case" `Quick test_dbe_exponential_worst_case;
          Alcotest.test_case "erlang worst case" `Quick test_dbe_erlang_worst_case;
          Alcotest.test_case "triggered = untriggered worst case" `Quick
            test_dbe_triggered_equals_untriggered_worst_case;
          Alcotest.test_case "triggered structure" `Quick test_dbe_triggered_structure;
          Alcotest.test_case "repair only on" `Quick test_dbe_repair_only_when_on;
          Alcotest.test_case "repair when off" `Quick test_dbe_repair_when_off;
        ] );
      ( "sdft",
        [
          Alcotest.test_case "unknown names" `Quick test_sdft_unknown_names;
          Alcotest.test_case "trigger needs switch" `Quick test_sdft_trigger_requires_switch;
          Alcotest.test_case "double trigger" `Quick test_sdft_double_trigger_rejected;
          Alcotest.test_case "cyclic trigger" `Quick test_sdft_cyclic_trigger_rejected;
          Alcotest.test_case "accessors" `Quick test_sdft_accessors;
        ] );
      ( "classify",
        [
          Alcotest.test_case "static branching" `Quick test_classify_static_branching;
          Alcotest.test_case "static joins" `Quick test_classify_static_joins;
          Alcotest.test_case "AND-only is SB" `Quick test_classify_and_only_is_static_branching;
          Alcotest.test_case "general" `Quick test_classify_general;
          Alcotest.test_case "running example" `Quick test_classify_pumps_running_example;
          Alcotest.test_case "uniform triggering" `Quick test_classify_uniform_triggering;
        ] );
      ( "translate",
        [
          Alcotest.test_case "preserves MCS" `Quick test_translate_pumps_preserves_mcs;
          Alcotest.test_case "worst-case values" `Quick test_translate_worst_case_values;
          Alcotest.test_case "adds AND gates" `Quick test_translate_adds_trigger_and;
          Alcotest.test_case "trigger in MCS" `Quick test_translate_triggered_event_mcs_includes_trigger;
        ] );
      ( "product",
        (qc [ prop_packed_matches_generic; prop_template_hit_matches_generic ])
        @ [
          Alcotest.test_case "static = enumeration" `Quick test_product_static_tree_matches_exact;
          Alcotest.test_case "trigger sequence = Erlang" `Quick test_product_trigger_sequence_is_erlang;
          Alcotest.test_case "unfired trigger" `Quick test_product_untriggered_spare_never_fails;
          Alcotest.test_case "passive failure not failed" `Quick test_product_passive_failures_do_count;
          Alcotest.test_case "max states guard" `Quick test_product_max_states_guard;
          Alcotest.test_case "pumps golden" `Quick test_product_pumps_value;
          Alcotest.test_case "template needs same init support" `Quick
            test_template_needs_same_init_support;
          Alcotest.test_case "template needs same initial states" `Quick
            test_template_needs_same_initial_states;
          Alcotest.test_case "unshared chain survives later builds" `Quick
            test_unshared_chain_survives_later_builds;
        ]
        @ qc [ prop_workspace_solves_match_fresh ] );
      ( "cutset model",
        [
          Alcotest.test_case "static only" `Quick test_cutset_model_static_only;
          Alcotest.test_case "dynamic pair" `Quick test_cutset_model_dynamic_pair;
          Alcotest.test_case "impossible" `Quick test_cutset_model_impossible;
          Alcotest.test_case "always triggered" `Quick test_cutset_model_always_triggered;
          Alcotest.test_case "REA vs exact (pumps)" `Quick test_cutset_model_rea_matches_exact_pumps;
          Alcotest.test_case "static joins adds events" `Quick test_cutset_model_static_joins_adds_events;
          Alcotest.test_case "general trigger exact" `Quick test_cutset_model_general_trigger_exact;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "pumps summary" `Quick test_analysis_pumps_summary;
          Alcotest.test_case "cutoff" `Quick test_analysis_cutoff_excludes;
          Alcotest.test_case "static rare event" `Quick test_analysis_static_rare_event;
          Alcotest.test_case "engines agree" `Quick test_analysis_engines_agree;
          Alcotest.test_case "engine spellings" `Quick
            test_analysis_engine_spellings;
          Alcotest.test_case "parallel = sequential" `Quick
            test_analysis_parallel_matches_sequential;
          Alcotest.test_case "parallel(4) identical probabilities" `Quick
            test_analysis_parallel_4_identical_probabilities;
          Alcotest.test_case "parallel reordered schedule identical" `Quick
            test_analysis_parallel_reordered_schedule_identical;
          Alcotest.test_case "one exploration per shape" `Quick
            test_analysis_one_exploration_per_shape;
          Alcotest.test_case "default domains = one domain" `Quick
            test_default_domains_match_one;
        ]
        @ [
            Alcotest.test_case "budget certifies pumps" `Quick test_budget_certifies_pumps;
            Alcotest.test_case "budget below-cutoff mass" `Quick test_budget_below_cutoff_mass;
            Alcotest.test_case "budget pruned mass" `Quick test_budget_pruned_mass_from_generation;
            Alcotest.test_case "budget fallback lower bound" `Quick test_budget_fallback_excluded_from_lower;
            Alcotest.test_case "trace does not change results" `Quick test_trace_does_not_change_results;
          ]
        @ qc
            [
              prop_analysis_bounds_exact_untriggered;
              prop_analysis_all_events_bounds_exact;
              prop_paper_rule_below_exact_rule;
              prop_analysis_single_mcs_exact;
            ] );
      ( "quant cache",
        [
          Alcotest.test_case "sweep second pass hits" `Quick
            test_cache_sweep_second_pass_hits;
          Alcotest.test_case "isomorphic cutsets share" `Quick
            test_cache_isomorphic_cutsets_share;
          Alcotest.test_case "same traffic at any domain count" `Quick
            test_cache_sweep_traffic_any_domains;
          Alcotest.test_case "read-only context stores nothing" `Quick
            test_read_only_context;
          Alcotest.test_case "sweep points match analyze" `Quick
            test_sweep_points_match_analyze;
          Alcotest.test_case "prepared model = fresh" `Quick
            test_prepared_equals_fresh;
          Alcotest.test_case "prepared model after guard trips" `Quick
            test_prepared_after_guard_trips;
          Alcotest.test_case "sweep worker crash stays in its point" `Quick
            test_sweep_worker_crash_stays_in_its_point;
          Alcotest.test_case "fingerprint name-independent" `Quick
            test_cache_fingerprint_name_independent;
          Alcotest.test_case "fingerprint renaming invariant" `Quick
            test_fingerprint_renaming_invariant;
          Alcotest.test_case "fingerprint sees every mutation" `Quick
            test_fingerprint_mutations;
          Alcotest.test_case "point key inputs" `Quick test_point_key_inputs;
          Alcotest.test_case "industrial sweep matches uncached" `Slow
            test_cache_industrial_sweep_matches_uncached;
        ] );
      ( "cut sequences",
        [
          Alcotest.test_case "triggered order forced" `Quick test_sequences_triggered_order_forced;
          Alcotest.test_case "symmetric split" `Quick test_sequences_symmetric_split;
          Alcotest.test_case "static cutset" `Quick test_sequences_static_cutset;
          Alcotest.test_case "asymmetric rates" `Quick test_sequences_asymmetric_rates;
          Alcotest.test_case "sum = quantification" `Quick test_sequences_sum_matches_quantification;
        ] );
      ( "availability",
        [
          Alcotest.test_case "exponential" `Quick test_availability_exponential;
          Alcotest.test_case "unrepairable" `Quick test_availability_unrepairable;
          Alcotest.test_case "triggered" `Quick test_availability_triggered;
          Alcotest.test_case "analyze" `Quick test_availability_analyze;
          Alcotest.test_case "mixed static" `Quick test_availability_mixed_static;
          Alcotest.test_case "rejects unrepairable" `Quick
            test_availability_rejects_unrepairable_model;
        ] );
    ]
