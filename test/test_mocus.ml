(* Tests for cutsets and the MOCUS algorithm: paper examples, properties of
   minimization, agreement with the exact BDD engine. *)

module Int_set = Sdft_util.Int_set

let iset = Alcotest.testable Int_set.pp Int_set.equal

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let pumps = Pumps.static_tree ()

let idx name = Option.get (Fault_tree.basic_index pumps name)

let set names = Int_set.of_list (List.map idx names)

(* Paper Example 7/8: the five MCS of the running example. *)
let test_pumps_mcs () =
  let mcs = Mocus.minimal_cutsets pumps in
  let expected =
    List.sort Int_set.compare
      [
        set [ "e" ];
        set [ "a"; "c" ];
        set [ "a"; "d" ];
        set [ "b"; "c" ];
        set [ "b"; "d" ];
      ]
  in
  Alcotest.(check (list iset)) "paper MCS" expected mcs

let test_pumps_cutset_predicates () =
  (* Example 7: {a,b,c} is a cutset but not minimal. *)
  Alcotest.(check bool) "cutset" true (Cutset.is_cutset pumps (set [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "not minimal" false
    (Cutset.is_minimal_cutset pumps (set [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "minimal" true (Cutset.is_minimal_cutset pumps (set [ "a"; "c" ]));
  Alcotest.(check bool) "not cutset" false (Cutset.is_cutset pumps (set [ "a"; "b" ]))

let test_cutset_probability () =
  check_close "p({a,c})" 9e-6 (Cutset.probability pumps (set [ "a"; "c" ]));
  check_close "p({e})" 3e-6 (Cutset.probability pumps (set [ "e" ]))

let test_rare_event_and_mcub () =
  let mcs = Mocus.minimal_cutsets pumps in
  let rea = Cutset.rare_event_approximation pumps mcs in
  let mcub = Cutset.mcub pumps mcs in
  let exact = Fault_tree.exact_top_probability_enumerate pumps in
  Alcotest.(check bool) "exact <= mcub" true (exact <= mcub +. 1e-15);
  Alcotest.(check bool) "mcub <= rea" true (mcub <= rea +. 1e-15);
  check_close ~eps:1e-12 "rea value" (3e-6 +. 9e-6 +. 3e-6 +. 3e-6 +. 1e-6) rea

let test_minimize () =
  let sets =
    [
      Int_set.of_list [ 1; 2 ];
      Int_set.of_list [ 1; 2; 3 ];
      Int_set.of_list [ 2 ];
      Int_set.of_list [ 4; 5 ];
      Int_set.of_list [ 2 ];
      Int_set.of_list [ 5; 4 ];
    ]
  in
  let minimized = List.sort Int_set.compare (Cutset.minimize sets) in
  Alcotest.(check (list iset))
    "minimized"
    [ Int_set.of_list [ 2 ]; Int_set.of_list [ 4; 5 ] ]
    minimized

let test_minimize_empty_set_dominates () =
  let sets = [ Int_set.empty; Int_set.of_list [ 1 ] ] in
  Alcotest.(check (list iset)) "only empty" [ Int_set.empty ] (Cutset.minimize sets)

(* Minimization against its definition, all pairs: a set is kept unless
   another input set is a proper subset of it, and duplicates collapse. *)
let naive_minimize sets =
  let sets = List.sort_uniq Int_set.compare sets in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun t -> (not (Int_set.equal t s)) && Int_set.subset t s)
           sets))
    sets

let gen_family =
  let open QCheck.Gen in
  let sets ~n ~size ~events =
    list_size n (map Int_set.of_list (list_size size events))
  in
  let* loose = sets ~n:(0 -- 20) ~size:(1 -- 5) ~events:(0 -- 11) in
  let* singles = list_size (0 -- 3) (map Int_set.singleton (0 -- 11)) in
  (* Incomparable sets sharing event 20, padded by sets over 0..5 alone so
     that 20 is the rarest event of each, and each is listed under it. *)
  let* hub = sets ~n:(0 -- 20) ~size:(2 -- 3) ~events:(0 -- 5) in
  let hub = List.map (Int_set.add 20) hub in
  let* padding = sets ~n:(0 -- 40) ~size:(3 -- 4) ~events:(0 -- 5) in
  let* empty = frequency [ (9, return []); (1, return [ Int_set.empty ]) ] in
  let family = loose @ singles @ hub @ padding @ empty in
  let* repeated = 0 -- List.length family in
  shuffle_l (family @ List.filteri (fun i _ -> i < repeated) family)

let prop_minimize_equals_naive =
  QCheck.Test.make ~name:"minimize = all-pairs oracle, (size, lex) order"
    ~count:500
    (QCheck.make
       ~print:(fun f ->
         String.concat " " (List.map (Format.asprintf "%a" Int_set.pp) f))
       gen_family)
    (fun family ->
      let got = Cutset.minimize family in
      let rec increasing = function
        | a :: (b :: _ as rest) -> Int_set.compare a b < 0 && increasing rest
        | [ _ ] | [] -> true
      in
      increasing got && List.equal Int_set.equal got (naive_minimize family))

let test_sort_by_probability () =
  let mcs = Mocus.minimal_cutsets pumps in
  let sorted = Cutset.sort_by_probability pumps mcs in
  Alcotest.check iset "largest first" (set [ "a"; "c" ]) (List.hd sorted)

(* Cutoff behaviour. *)

let test_cutoff_drops_small_cutsets () =
  (* With cutoff 2e-6: {b,d} (1e-6) is pruned; others survive. *)
  let options = { Mocus.default_options with cutoff = 2e-6 } in
  let r = Mocus.run ~options pumps in
  Alcotest.(check int) "4 cutsets" 4 (List.length r.Mocus.cutsets);
  Alcotest.(check bool) "pruned counted" true (r.Mocus.pruned_by_cutoff > 0);
  Alcotest.(check bool) "{b,d} gone" true
    (not (List.exists (Int_set.equal (set [ "b"; "d" ])) r.Mocus.cutsets))

let test_max_order () =
  let options = { Mocus.max_order = Some 1; cutoff = 0.0 } in
  let r = Mocus.run ~options pumps in
  Alcotest.(check (list iset)) "only {e}" [ set [ "e" ] ] r.Mocus.cutsets

let test_zero_cutoff_exhaustive () =
  let options = { Mocus.default_options with cutoff = 0.0 } in
  let r = Mocus.run ~options pumps in
  Alcotest.(check int) "all 5" 5 (List.length r.Mocus.cutsets)

(* Error-budget satellite: the probability mass MOCUS discards at the prune
   site must be an exact accounting when every pruned branch is a completed
   cutset. An OR over disjoint AND groups has exactly one cutset per group
   and no shared events, so pruning can only ever happen at a finished
   product of basics — the pruned mass must equal the rare-event sum lost
   relative to a no-cutoff run, to full float precision. *)
let disjoint_groups_tree =
  let b = Fault_tree.Builder.create () in
  let group i probs =
    let leaves =
      List.mapi
        (fun j p ->
          Fault_tree.Builder.basic b ~prob:p (Printf.sprintf "g%d_%d" i j))
        probs
    in
    match leaves with
    | [ single ] -> single
    | several ->
      Fault_tree.Builder.gate b (Printf.sprintf "and%d" i) Fault_tree.And
        several
  in
  let groups =
    List.mapi group
      [
        [ 0.3; 0.2 ];        (* 6.0e-2 *)
        [ 1e-3; 2e-3 ];      (* 2.0e-6 *)
        [ 1e-4; 5e-4; 0.1 ]; (* 5.0e-9 *)
        [ 2e-5 ];            (* 2.0e-5 *)
        [ 1e-6; 3e-3 ];      (* 3.0e-9 *)
      ]
  in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or groups in
  Fault_tree.Builder.build b ~top

let test_pruned_mass_exact_on_disjoint_tree () =
  let tree = disjoint_groups_tree in
  let exact = Mocus.run ~options:{ Mocus.default_options with cutoff = 0.0 } tree in
  check_close "no-cutoff run prunes nothing" 0.0 exact.Mocus.pruned_mass;
  let rea cutsets = Cutset.rare_event_approximation tree cutsets in
  let full = rea exact.Mocus.cutsets in
  List.iter
    (fun cutoff ->
      let r = Mocus.run ~options:{ Mocus.default_options with cutoff } tree in
      let kept = rea r.Mocus.cutsets in
      check_close
        (Printf.sprintf "pruned mass = lost REA at cutoff %g" cutoff)
        (full -. kept) r.Mocus.pruned_mass;
      Alcotest.(check bool)
        (Printf.sprintf "mass only when pruning happened (cutoff %g)" cutoff)
        (r.Mocus.pruned_by_cutoff > 0)
        (r.Mocus.pruned_mass > 0.0))
    [ 1e-10; 1e-8; 1e-6; 1e-4; 1.0 ]

(* On a shared-event tree the pruned partials need not be complete cutsets,
   so the accumulated mass is only an upper bound on the lost REA — but it
   must still be one, and zero exactly when nothing was pruned. *)
let test_pruned_mass_bounds_lost_rea () =
  let exact = Mocus.run ~options:{ Mocus.default_options with cutoff = 0.0 } pumps in
  let full = Cutset.rare_event_approximation pumps exact.Mocus.cutsets in
  List.iter
    (fun cutoff ->
      let r = Mocus.run ~options:{ Mocus.default_options with cutoff } pumps in
      let kept = Cutset.rare_event_approximation pumps r.Mocus.cutsets in
      Alcotest.(check bool)
        (Printf.sprintf "pruned mass bounds lost REA (cutoff %g)" cutoff)
        true
        (r.Mocus.pruned_mass >= full -. kept -. 1e-15))
    [ 2e-6; 1e-4; 1.0 ]

(* Regression for the pick_gate early-exit and Int_set.remove hot-path
   changes: MOCUS output on the seed models must still match the exact BDD
   engine exactly (the expansion order may legally change, the cutset list
   may not). *)
let test_seed_models_mocus_equals_bdd () =
  let check_model name tree =
    let cutoff = 1e-15 in
    let above = List.filter (fun c -> Cutset.probability tree c > cutoff) in
    let options = { Mocus.default_options with cutoff } in
    let mocus =
      List.sort Int_set.compare (above (Mocus.minimal_cutsets ~options tree))
    in
    let bdd =
      List.sort Int_set.compare (above (Minsol.fault_tree_cutsets_above tree ~cutoff))
    in
    Alcotest.(check int) (name ^ ": same count") (List.length bdd) (List.length mocus);
    List.iter2
      (fun a b ->
        if not (Int_set.equal a b) then Alcotest.failf "%s: cutset lists differ" name)
      mocus bdd
  in
  check_model "pumps" pumps;
  check_model "bwr" (Bwr.static_tree ())

(* The minimization is a child span of the run, in the run's own metrics
   registry and trace sink, and tracing leaves the result unchanged. *)
let test_minimize_span () =
  let module Obs = Sdft_util.Obs in
  let module Metrics = Sdft_util.Metrics in
  let module Trace = Sdft_util.Trace in
  let tree = Bwr.static_tree () in
  let obs = Obs.create () in
  let traced = Mocus.run ~obs tree in
  let untraced =
    Mocus.run ~obs:(Obs.create ~trace:(Trace.create ~enabled:false ()) ()) tree
  in
  Alcotest.(check (list iset)) "same cutsets" untraced.Mocus.cutsets
    traced.Mocus.cutsets;
  Alcotest.(check bool) "same pruned mass" true
    (Int64.equal
       (Int64.bits_of_float untraced.Mocus.pruned_mass)
       (Int64.bits_of_float traced.Mocus.pruned_mass));
  Alcotest.(check int) "metrics span" 1
    (Metrics.hist_value (Metrics.histogram_in obs.Obs.metrics "mocus.minimize"))
      .Metrics.count;
  let events = Trace.snapshot_in obs.Obs.trace in
  let find name = List.find (fun e -> e.Trace.ev_name = name) events in
  let run = find "mocus.run" and minimize = find "mocus.minimize" in
  Alcotest.(check int) "child span" (run.Trace.ev_depth + 1)
    minimize.Trace.ev_depth;
  Alcotest.(check bool) "candidates" true
    (List.assoc_opt "candidates" minimize.Trace.ev_attrs
     = Some (Trace.Int traced.Mocus.generated));
  Alcotest.(check bool) "kept" true
    (List.assoc_opt "kept" minimize.Trace.ev_attrs
     = Some (Trace.Int (List.length traced.Mocus.cutsets)))

(* Agreement with the exact BDD engine on random trees — the central
   correctness property of the MOCUS implementation. *)

let prop_mocus_equals_bdd =
  QCheck.Test.make ~name:"MOCUS (cutoff 0) = BDD minsol" ~count:200
    (QCheck.make QCheck.Gen.(0 -- 100000))
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let tree = Random_tree.tree rng ~n_basics:8 ~n_gates:7 in
      let options = { Mocus.default_options with cutoff = 0.0 } in
      let mocus = Mocus.minimal_cutsets ~options tree in
      let bdd = Minsol.fault_tree_cutsets tree in
      List.sort Int_set.compare mocus = List.sort Int_set.compare bdd)

let prop_cutoff_keeps_all_above =
  (* Soundness of the basics-only cutoff: every MCS with probability above
     the cutoff must be found. *)
  QCheck.Test.make ~name:"cutoff keeps every MCS above it" ~count:200
    (QCheck.make QCheck.Gen.(pair (0 -- 100000) (1 -- 9)))
    (fun (seed, c) ->
      let cutoff = float_of_int c /. 100.0 in
      let rng = Sdft_util.Rng.create seed in
      let tree = Random_tree.tree rng ~n_basics:8 ~n_gates:6 in
      let options = { Mocus.default_options with cutoff } in
      let got = Mocus.minimal_cutsets ~options tree in
      let all = Minsol.fault_tree_cutsets tree in
      List.for_all
        (fun mcs ->
          Cutset.probability tree mcs < cutoff
          || List.exists (Int_set.equal mcs) got)
        all)

let prop_mocus_results_are_minimal_cutsets =
  QCheck.Test.make ~name:"every result is a minimal cutset" ~count:200
    (QCheck.make QCheck.Gen.(0 -- 100000))
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let tree = Random_tree.tree rng ~n_basics:8 ~n_gates:7 in
      let options = { Mocus.default_options with cutoff = 0.0 } in
      let mcs = Mocus.minimal_cutsets ~options tree in
      List.for_all (Cutset.is_minimal_cutset tree) mcs)

(* Importance measures on the running example. *)

let test_importance_pumps () =
  let mcs = Mocus.minimal_cutsets pumps in
  let imp = Importance.compute pumps mcs in
  let total = Importance.total imp in
  check_close ~eps:1e-15 "total = rea" (Cutset.rare_event_approximation pumps mcs) total;
  (* FV of a: cutsets {a,c} 9e-6 and {a,d} 3e-6 => 12e-6 / 19e-6. *)
  check_close ~eps:1e-12 "FV(a)" (12e-6 /. 19e-6)
    (Importance.fussell_vesely imp (idx "a"));
  (* Birnbaum of e: only {e}, product of others = 1. *)
  check_close ~eps:1e-12 "Birnbaum(e)" 1.0 (Importance.birnbaum imp (idx "e"));
  (* Symmetry: a and c play symmetric roles. *)
  check_close ~eps:1e-15 "FV symmetric"
    (Importance.fussell_vesely imp (idx "a"))
    (Importance.fussell_vesely imp (idx "c"))

let test_importance_rank_and_groups () =
  let mcs = Mocus.minimal_cutsets pumps in
  let imp = Importance.compute pumps mcs in
  let ranked = Importance.rank_by_fussell_vesely imp in
  Alcotest.(check int) "all events ranked" 5 (List.length ranked);
  (* a and c have equal FV, as do b and d: groups must reflect that. *)
  let groups = Importance.groups_by_fussell_vesely imp in
  let group_of x =
    List.find (fun g -> List.mem (idx x) g) groups
  in
  Alcotest.(check bool) "a ~ c" true (group_of "a" == group_of "c");
  Alcotest.(check bool) "b ~ d" true (group_of "b" == group_of "d");
  Alcotest.(check bool) "a <> b group" true (group_of "a" != group_of "b")

let test_importance_raw_rrw () =
  let mcs = Mocus.minimal_cutsets pumps in
  let imp = Importance.compute pumps mcs in
  let raw_e = Importance.raw imp (idx "e") in
  (* Setting p(e) = 1 makes Q = 16e-6 (others) + 1 => RAW = (16e-6+1)/19e-6 *)
  check_close ~eps:1e-6 "RAW(e)" ((16e-6 +. 1.0) /. 19e-6) raw_e;
  let rrw_e = Importance.rrw imp (idx "e") in
  check_close ~eps:1e-9 "RRW(e)" (19e-6 /. 16e-6) rrw_e

(* Uncertainty propagation. *)

let test_uncertainty_point_is_degenerate () =
  let mcs = Mocus.minimal_cutsets pumps in
  let s = Uncertainty.propagate ~samples:100 pumps mcs ~spec:(fun _ -> Uncertainty.Point) in
  check_close ~eps:1e-15 "mean = point" s.Uncertainty.point s.Uncertainty.mean;
  check_close ~eps:1e-15 "std zero" 0.0 s.Uncertainty.std;
  check_close ~eps:1e-15 "median = point" s.Uncertainty.point s.Uncertainty.median

let test_uncertainty_lognormal_spread () =
  let mcs = Mocus.minimal_cutsets pumps in
  let spec _ = Uncertainty.Lognormal { error_factor = 3.0 } in
  let s = Uncertainty.propagate ~samples:4000 pumps mcs ~spec in
  Alcotest.(check bool) "p05 < median" true (s.Uncertainty.p05 < s.Uncertainty.median);
  Alcotest.(check bool) "median < p95" true (s.Uncertainty.median < s.Uncertainty.p95);
  (* Lognormal parameter uncertainty skews the mean above the median. *)
  Alcotest.(check bool) "mean > median" true (s.Uncertainty.mean > s.Uncertainty.median);
  (* The median of the output stays near the point estimate. *)
  Alcotest.(check bool) "median near point" true
    (Float.abs (s.Uncertainty.median -. s.Uncertainty.point)
    < 0.25 *. s.Uncertainty.point)

let test_uncertainty_deterministic () =
  let mcs = Mocus.minimal_cutsets pumps in
  let spec _ = Uncertainty.Lognormal { error_factor = 5.0 } in
  let a = Uncertainty.propagate ~samples:500 ~seed:7 pumps mcs ~spec in
  let b = Uncertainty.propagate ~samples:500 ~seed:7 pumps mcs ~spec in
  check_close ~eps:0.0 "same mean" a.Uncertainty.mean b.Uncertainty.mean

let test_uncertainty_uniform_bounds () =
  (* A single-event tree: the output distribution is the input one. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.5 "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let mcs = Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 } tree in
  let spec _ = Uncertainty.Uniform { lower = 0.2; upper = 0.8 } in
  let s = Uncertainty.propagate ~samples:4000 tree mcs ~spec in
  Alcotest.(check bool) "within bounds" true
    (s.Uncertainty.p05 >= 0.2 && s.Uncertainty.p95 <= 0.8);
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (s.Uncertainty.mean -. 0.5) < 0.02)

let test_uncertainty_triangular () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.3 "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let mcs = Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 } tree in
  let spec _ = Uncertainty.Triangular { lower = 0.1; upper = 0.8 } in
  let s = Uncertainty.propagate ~samples:4000 tree mcs ~spec in
  (* Triangular(0.1, 0.3, 0.8) has mean (a+b+c)/3 = 0.4. *)
  Alcotest.(check bool) "mean near 0.4" true (Float.abs (s.Uncertainty.mean -. 0.4) < 0.02)

(* Tornado sensitivity *)

let test_tornado_point_and_order () =
  let mcs = Mocus.minimal_cutsets pumps in
  let t = Sensitivity.tornado pumps mcs in
  check_close ~eps:1e-15 "point = rea" (Cutset.rare_event_approximation pumps mcs)
    t.Sensitivity.point;
  (* Swings decrease down the list. *)
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
      a.Sensitivity.swing >= b.Sensitivity.swing -. 1e-15 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (decreasing t.Sensitivity.entries);
  Alcotest.(check int) "all events" 5 (List.length t.Sensitivity.entries)

let test_tornado_single_event_swing () =
  (* For the single-event cutset {e}: moving p(e) by x10 moves the REA by
     exactly (10 - 1/10) * p(e). *)
  let mcs = Mocus.minimal_cutsets pumps in
  let t = Sensitivity.tornado ~factor:10.0 pumps mcs in
  let e = idx "e" in
  let entry = List.find (fun en -> en.Sensitivity.event = e) t.Sensitivity.entries in
  check_close ~eps:1e-15 "swing(e)" (3e-6 *. (10.0 -. 0.1)) entry.Sensitivity.swing

let test_tornado_clamps () =
  (* An event with probability 0.5: multiplying by 10 clamps to 1. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.5 "x" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let mcs = Mocus.minimal_cutsets ~options:{ Mocus.default_options with cutoff = 0.0 } tree in
  let t = Sensitivity.tornado tree mcs in
  let entry = List.hd t.Sensitivity.entries in
  check_close ~eps:1e-15 "high clamped" 1.0 entry.Sensitivity.high;
  check_close ~eps:1e-15 "low" 0.05 entry.Sensitivity.low

let test_tornado_top_contributors () =
  let mcs = Mocus.minimal_cutsets pumps in
  let t = Sensitivity.tornado pumps mcs in
  Alcotest.(check int) "two entries" 2 (List.length (Sensitivity.top_contributors t 2))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mocus"
    [
      ( "paper example",
        [
          Alcotest.test_case "five MCS" `Quick test_pumps_mcs;
          Alcotest.test_case "cutset predicates" `Quick test_pumps_cutset_predicates;
          Alcotest.test_case "cutset probability" `Quick test_cutset_probability;
          Alcotest.test_case "rea and mcub" `Quick test_rare_event_and_mcub;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "subsumption" `Quick test_minimize;
          Alcotest.test_case "empty dominates" `Quick test_minimize_empty_set_dominates;
          Alcotest.test_case "sort by probability" `Quick test_sort_by_probability;
        ] );
      ( "options",
        [
          Alcotest.test_case "cutoff" `Quick test_cutoff_drops_small_cutsets;
          Alcotest.test_case "max order" `Quick test_max_order;
          Alcotest.test_case "exhaustive" `Quick test_zero_cutoff_exhaustive;
          Alcotest.test_case "pruned mass exact (disjoint)" `Quick test_pruned_mass_exact_on_disjoint_tree;
          Alcotest.test_case "pruned mass bounds lost REA" `Quick test_pruned_mass_bounds_lost_rea;
          Alcotest.test_case "seed models = BDD" `Quick test_seed_models_mocus_equals_bdd;
          Alcotest.test_case "minimize span" `Quick test_minimize_span;
        ] );
      ( "properties",
        qc
          [
            prop_minimize_equals_naive;
            prop_mocus_equals_bdd;
            prop_cutoff_keeps_all_above;
            prop_mocus_results_are_minimal_cutsets;
          ] );
      ( "importance",
        [
          Alcotest.test_case "FV and Birnbaum" `Quick test_importance_pumps;
          Alcotest.test_case "rank and groups" `Quick test_importance_rank_and_groups;
          Alcotest.test_case "RAW and RRW" `Quick test_importance_raw_rrw;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "point and order" `Quick test_tornado_point_and_order;
          Alcotest.test_case "single-event swing" `Quick test_tornado_single_event_swing;
          Alcotest.test_case "clamping" `Quick test_tornado_clamps;
          Alcotest.test_case "top contributors" `Quick test_tornado_top_contributors;
        ] );
      ( "uncertainty",
        [
          Alcotest.test_case "point degenerate" `Quick test_uncertainty_point_is_degenerate;
          Alcotest.test_case "lognormal spread" `Quick test_uncertainty_lognormal_spread;
          Alcotest.test_case "deterministic" `Quick test_uncertainty_deterministic;
          Alcotest.test_case "uniform bounds" `Quick test_uncertainty_uniform_bounds;
          Alcotest.test_case "triangular mean" `Quick test_uncertainty_triangular;
        ] );
    ]
