(* The ZDD cutset engine against its oracles: the exact minimal-solutions
   enumeration (Minsol), exact MOCUS (cutoff 0), and the analysis-level
   certified-interval accounting. *)

module Int_set = Sdft_util.Int_set

let seed_gen = QCheck.make QCheck.Gen.(0 -- 100000)

let random_tree seed =
  let rng = Sdft_util.Rng.create seed in
  Random_tree.tree rng ~n_basics:8 ~n_gates:7

let product tree s =
  Int_set.fold (fun b acc -> acc *. Fault_tree.prob tree b) s 1.0

let mass tree sets =
  Sdft_util.Kahan.sum_list (List.map (product tree) sets)

let close ?(eps = 1e-12) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* cutoff 0: the engine must reproduce the exact minimal-cutset family,
   and its weighted count must equal the enumerated mass. *)
let prop_engine_matches_minsol =
  QCheck.Test.make ~name:"zdd engine (cutoff 0) = exact minimal cutsets"
    ~count:200 seed_gen (fun seed ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let r = Zdd_engine.run tree in
      r.Zdd_engine.cutsets = exact
      && r.Zdd_engine.n_minimal = List.length exact
      && (not r.Zdd_engine.n_minimal_saturated)
      && close r.Zdd_engine.total_mass (mass tree exact)
      && close r.Zdd_engine.residual_mass 0.0)

(* Nonzero cutoff: emitted = exact filtered by product, residual = the
   exact mass of what was filtered out (not an upper bound). *)
let prop_engine_cutoff_accounting =
  QCheck.Test.make ~name:"zdd engine cutoff: exact residual-mass accounting"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair (0 -- 100000) (oneofl [ 1e-6; 1e-4; 1e-3; 1e-2 ])))
    (fun (seed, cutoff) ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let above, below =
        List.partition (fun s -> product tree s >= cutoff) exact
      in
      let r = Zdd_engine.run ~cutoff tree in
      r.Zdd_engine.cutsets = above
      && r.Zdd_engine.n_minimal = List.length exact
      && close r.Zdd_engine.emitted_mass (mass tree above)
      && close r.Zdd_engine.residual_mass (mass tree below))

let prop_engine_max_order =
  QCheck.Test.make ~name:"zdd engine max_order: in-walk pruning = post-filter"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (0 -- 100000) (1 -- 4)))
    (fun (seed, k) ->
      let tree = random_tree seed in
      let exact = Minsol.fault_tree_cutsets tree in
      let within, beyond =
        List.partition (fun s -> Int_set.cardinal s <= k) exact
      in
      let r = Zdd_engine.run ~max_order:k tree in
      r.Zdd_engine.cutsets = within
      && close r.Zdd_engine.residual_mass (mass tree beyond))

(* Engine race at the library level: exact MOCUS (cutoff 0) and the ZDD
   engine must produce identical families and rare-event totals. *)
let prop_engine_matches_mocus_exact =
  QCheck.Test.make ~name:"zdd engine = exact MOCUS (family and total)"
    ~count:200 seed_gen (fun seed ->
      let tree = random_tree seed in
      let mocus =
        Mocus.run ~options:{ Mocus.default_options with cutoff = 0.0 } tree
      in
      let sorted = List.sort Int_set.compare mocus.Mocus.cutsets in
      let r = Zdd_engine.run tree in
      r.Zdd_engine.cutsets = sorted
      && close r.Zdd_engine.total_mass (mass tree sorted))

let static_sd seed =
  let rng = Sdft_util.Rng.create seed in
  Random_tree.sd rng ~max_prob:0.2 ~n_basics:6 ~n_gates:5 ~n_dynamic:0
    ~n_triggers:0

(* Full-analysis equivalence on static SD trees: same quantified total to
   1e-12, and the ZDD engine's certified interval is exact-width (zero
   pruned mass at cutoff 0) and never vacuous. *)
let prop_analyze_equivalence =
  QCheck.Test.make ~name:"analyze: zdd engine total = mocus total (static)"
    ~count:100 seed_gen (fun seed ->
      let sd = static_sd seed in
      let run engine =
        Sdft_analysis.analyze
          ~options:
            {
              Sdft_analysis.default_options with
              engine;
              cutoff = 1e-12;
            }
          sd
      in
      let m = run Sdft_analysis.Mocus_sound in
      let z = run Sdft_analysis.Zdd_engine in
      close m.Sdft_analysis.total z.Sdft_analysis.total
      && (not z.Sdft_analysis.budget.Sdft_analysis.vacuous)
      && z.Sdft_analysis.budget.Sdft_analysis.lower <= z.Sdft_analysis.total
      && z.Sdft_analysis.total
         <= z.Sdft_analysis.budget.Sdft_analysis.upper +. 1e-15
      (* MOCUS over-accounts what it prunes; the ZDD residual is exact, so
         the ZDD interval can only be at least as tight. *)
      && z.Sdft_analysis.budget.Sdft_analysis.upper
         <= m.Sdft_analysis.budget.Sdft_analysis.upper +. 1e-15)

(* The same race on triggered trees (test_core's shape at horizon 8): the
   translated tree is plain static logic, so both engines must find the
   same family and the same total to the bit, and the ZDD engine's exact
   residual can only tighten the interval. *)
let prop_analyze_equivalence_triggered =
  QCheck.Test.make ~name:"analyze: zdd engine = mocus engine (triggered)"
    ~count:100 Gen_sdft.seed_gen (fun seed ->
      let sd = Gen_sdft.sd seed in
      let run engine =
        Sdft_analysis.analyze
          ~options:{ Sdft_analysis.default_options with engine; horizon = 8.0 }
          sd
      in
      let family r =
        List.sort Int_set.compare
          (List.map (fun i -> i.Sdft_analysis.cutset) r.Sdft_analysis.cutsets)
      in
      let m = run Sdft_analysis.Mocus_sound in
      let z = run Sdft_analysis.Zdd_engine in
      List.equal Int_set.equal (family m) (family z)
      && Int64.equal
           (Int64.bits_of_float m.Sdft_analysis.total)
           (Int64.bits_of_float z.Sdft_analysis.total)
      && z.Sdft_analysis.budget.Sdft_analysis.upper
         <= m.Sdft_analysis.budget.Sdft_analysis.upper)

(* The acceptance scenario: a model where MOCUS records nonzero pruned
   mass (partials below the cutoff that refine only into non-minimal
   cutsets) while the ZDD engine emits every minimal cutset and accounts
   zero residual. *)
let test_zero_pruned_mass_where_mocus_prunes () =
  let b = Fault_tree.Builder.create () in
  let basic name p = Fault_tree.Builder.basic b ~prob:p name in
  let x = basic "x" 1e-6 and y = basic "y" 1e-6 and z = basic "z" 1e-6 in
  let and2 = Fault_tree.Builder.gate b "and2" Fault_tree.And [ x; y ] in
  (* Subsumed branch: refines only into the non-minimal {x, y, z}, whose
     partial product 1e-18 falls below the cutoff and gets pruned. *)
  let and3 = Fault_tree.Builder.gate b "and3" Fault_tree.And [ x; y; z ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ and2; and3 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let cutoff = 1e-15 in
  let mocus =
    Mocus.run ~options:{ Mocus.default_options with cutoff } tree
  in
  Alcotest.(check bool) "mocus prunes" true (mocus.Mocus.pruned_mass > 0.0);
  let r = Zdd_engine.run ~cutoff tree in
  Alcotest.(check int) "one minimal cutset" 1 (List.length r.Zdd_engine.cutsets);
  Alcotest.(check (float 0.0)) "zero residual" 0.0 r.Zdd_engine.residual_mass;
  Alcotest.(check bool) "same family" true
    (r.Zdd_engine.cutsets = List.sort Int_set.compare mocus.Mocus.cutsets);
  (* And at the analysis level: the synthesized generation result carries
     zero pruned mass and a non-vacuous interval. *)
  let gen =
    Sdft_analysis.generate_cutsets ~cutoff Sdft_analysis.Zdd_engine tree
  in
  Alcotest.(check (float 0.0)) "zero pruned mass" 0.0 gen.Mocus.pruned_mass;
  Alcotest.(check bool) "not truncated" false gen.Mocus.truncated

(* Regression: dangling gates (unreachable from the top event but sharing
   basic events with the reachable tree — the industrial generator emits
   these) used to disqualify the top gate from being a module, crashing the
   engine with [Not_found] when it looked up the top module's info. *)
let test_dangling_gate_regression () =
  let b = Fault_tree.Builder.create () in
  let basic name p = Fault_tree.Builder.basic b ~prob:p name in
  let s = basic "s" 0.01 and a = basic "a" 0.02 and c = basic "c" 0.03 in
  let _dangling = Fault_tree.Builder.gate b "dangling" Fault_tree.Or [ s; c ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ s; a ] in
  let tree = Fault_tree.Builder.build b ~top in
  Alcotest.(check bool) "top is still a module" true
    (List.mem (Fault_tree.top tree) (Modules.find tree));
  let r = Zdd_engine.run tree in
  Alcotest.(check int) "one minimal cutset" 1 (List.length r.Zdd_engine.cutsets);
  Alcotest.(check bool) "exact total" true
    (close r.Zdd_engine.total_mass (0.01 *. 0.02));
  (* Same story at industrial scale: the generator's scaffolding gates must
     not break the modular decomposition. *)
  let ind = Industrial.generate Industrial.small in
  let ri = Zdd_engine.run ~cutoff:1e-9 ind in
  Alcotest.(check bool) "industrial runs" true (ri.Zdd_engine.total_mass > 0.0)

(* Acceptance: a ZDD analysis under an already-expired deadline degrades
   (sound, vacuous interval; DEGRADED provenance) instead of overrunning. *)
let test_deadline_degrades () =
  let sd = static_sd 42 in
  let r =
    Sdft_analysis.analyze
      ~options:
        {
          Sdft_analysis.default_options with
          engine = Sdft_analysis.Zdd_engine;
          deadline = Some 0.0;
        }
      sd
  in
  Alcotest.(check bool) "degraded" true (Sdft_analysis.degraded r);
  Alcotest.(check bool) "generation limit recorded" true
    (r.Sdft_analysis.degradation.Sdft_analysis.generation_limit <> None);
  Alcotest.(check bool) "vacuous but sound" true
    r.Sdft_analysis.budget.Sdft_analysis.vacuous;
  let exact =
    Sdft_analysis.analyze
      ~options:
        { Sdft_analysis.default_options with engine = Sdft_analysis.Zdd_engine }
      sd
  in
  Alcotest.(check bool) "degraded interval brackets the exact total" true
    (r.Sdft_analysis.budget.Sdft_analysis.lower <= exact.Sdft_analysis.total
    && exact.Sdft_analysis.total
       <= r.Sdft_analysis.budget.Sdft_analysis.upper)

let test_module_stats () =
  let tree = Pumps.static_tree () in
  let stats = Zdd_engine.module_stats tree in
  Alcotest.(check bool) "top gate is a module" true
    (List.exists
       (fun s -> s.Zdd_engine.ms_gate = Fault_tree.top tree)
       stats);
  List.iter
    (fun s ->
      Alcotest.(check bool) "cut width positive" true
        (s.Zdd_engine.ms_basics + s.Zdd_engine.ms_inner_modules > 0))
    stats

let test_auto_resolution () =
  (* Static, small: auto picks the ZDD engine. *)
  let static_tree = Pumps.static_tree () in
  Alcotest.(check bool) "static resolves to zdd" true
    (Sdft_analysis.resolve_engine Sdft_analysis.Auto static_tree
    = Sdft_analysis.Zdd_engine);
  (* The translated triggered model is plain static logic: its @trig
     conjunctions are ordinary gates, so auto picks the ZDD engine too. *)
  let sd = Pumps.sd_tree () in
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  Alcotest.(check bool) "triggered resolves to zdd" true
    (Sdft_analysis.resolve_engine Sdft_analysis.Auto
       translation.Sdft_translate.static_tree
    = Sdft_analysis.Zdd_engine);
  (* The one rule: a module wider than the BDD bound (this tree's widest
     has 263 variables) goes to MOCUS. *)
  let wide =
    Random_tree.tree ~max_prob:0.01 (Sdft_util.Rng.create 0) ~n_basics:200
      ~n_gates:150
  in
  Alcotest.(check bool) "wide module resolves to mocus" true
    (Sdft_analysis.resolve_engine Sdft_analysis.Auto wide
    = Sdft_analysis.Mocus_sound);
  (* Concrete engines resolve to themselves. *)
  Alcotest.(check bool) "mocus fixed" true
    (Sdft_analysis.resolve_engine Sdft_analysis.Mocus_sound static_tree
    = Sdft_analysis.Mocus_sound)

(* On these translated trees every minimal cutset is above the cutoff and
   emitted, yet the weighted count and the emitted sum round differently
   (by 2^-57 to 2^-54): nothing was dropped, so the residual is exactly 0
   and the analysis reports no pruned mass. *)
let test_residual_zero_when_all_emitted () =
  List.iter
    (fun seed ->
      let sd = Gen_sdft.sd seed in
      let tree =
        (Sdft_translate.translate sd ~horizon:8.0).Sdft_translate.static_tree
      in
      let r = Zdd_engine.run ~cutoff:1e-15 tree in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every minimal cutset emitted" seed)
        r.Zdd_engine.n_minimal
        (List.length r.Zdd_engine.cutsets);
      if r.Zdd_engine.residual_mass <> 0.0 then
        Alcotest.failf "seed %d: residual %h reported for nothing dropped" seed
          r.Zdd_engine.residual_mass;
      let a =
        Sdft_analysis.analyze
          ~options:
            {
              Sdft_analysis.default_options with
              horizon = 8.0;
              engine = Sdft_analysis.Zdd_engine;
            }
          sd
      in
      if a.Sdft_analysis.budget.Sdft_analysis.pruned_mass <> 0.0 then
        Alcotest.failf "seed %d: analysis pruned mass %h" seed
          a.Sdft_analysis.budget.Sdft_analysis.pruned_mass)
    [ 17; 32; 34; 45; 59 ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "zdd_engine"
    [
      ( "oracle equivalence",
        qc
          [
            prop_engine_matches_minsol;
            prop_engine_cutoff_accounting;
            prop_engine_max_order;
            prop_engine_matches_mocus_exact;
          ] );
      ( "analysis integration",
        [
          Alcotest.test_case "zero pruned mass where MOCUS prunes" `Quick
            test_zero_pruned_mass_where_mocus_prunes;
          Alcotest.test_case "dangling gates keep top modular" `Quick
            test_dangling_gate_regression;
          Alcotest.test_case "deadline degrades soundly" `Quick
            test_deadline_degrades;
          Alcotest.test_case "module stats" `Quick test_module_stats;
          Alcotest.test_case "auto engine resolution" `Quick
            test_auto_resolution;
          Alcotest.test_case "zero residual when every cutset is emitted"
            `Quick test_residual_zero_when_all_emitted;
        ]
        @ qc [ prop_analyze_equivalence; prop_analyze_equivalence_triggered ]
      );
    ]
