(* Tests for static fault trees: builder validation, evaluation semantics,
   scenario probabilities, K-of-N expansion. *)

module Int_set = Sdft_util.Int_set

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Builder validation *)

let test_duplicate_name_rejected () =
  let b = Fault_tree.Builder.create () in
  let _ = Fault_tree.Builder.basic b "x" in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Fault_tree.Builder: duplicate name \"x\"") (fun () ->
      ignore (Fault_tree.Builder.basic b "x"))

let test_bad_probability_rejected () =
  let b = Fault_tree.Builder.create () in
  Alcotest.check_raises "prob > 1"
    (Invalid_argument "Fault_tree.Builder: probability of \"x\" out of [0,1]")
    (fun () -> ignore (Fault_tree.Builder.basic b ~prob:1.5 "x"))

let test_empty_gate_rejected () =
  let b = Fault_tree.Builder.create () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Fault_tree.Builder: gate \"g\" has no inputs") (fun () ->
      ignore (Fault_tree.Builder.gate b "g" Fault_tree.And []))

let test_duplicate_inputs_rejected () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  Alcotest.check_raises "dup inputs"
    (Invalid_argument "Fault_tree.Builder: gate \"g\" has duplicate inputs")
    (fun () -> ignore (Fault_tree.Builder.gate b "g" Fault_tree.Or [ x; x ]))

let test_bad_atleast_rejected () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  let y = Fault_tree.Builder.basic b "y" in
  Alcotest.check_raises "k too big"
    (Invalid_argument "Fault_tree.Builder: gate \"g\": bad K-of-N threshold")
    (fun () ->
      ignore (Fault_tree.Builder.gate b "g" (Fault_tree.Atleast 3) [ x; y ]))

let test_basic_top_rejected () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b "x" in
  Alcotest.check_raises "basic top"
    (Invalid_argument "Fault_tree.Builder.build: top must be a gate") (fun () ->
      ignore (Fault_tree.Builder.build b ~top:x))

(* Evaluation on the running example (paper Example 1/7). *)

let pumps = Pumps.static_tree ()

let idx name = Option.get (Fault_tree.basic_index pumps name)

let test_pumps_structure () =
  Alcotest.(check int) "basics" 5 (Fault_tree.n_basics pumps);
  Alcotest.(check int) "gates" 4 (Fault_tree.n_gates pumps);
  let s = Fault_tree.stats pumps in
  Alcotest.(check int) "ands" 1 s.Fault_tree.n_and;
  Alcotest.(check int) "ors" 3 s.Fault_tree.n_or;
  Alcotest.(check int) "depth" 3 (Fault_tree.depth pumps)

let test_pumps_evaluation () =
  let fails set =
    let s = Int_set.of_list (List.map idx set) in
    Fault_tree.fails_top pumps ~failed:(fun b -> Int_set.mem b s)
  in
  Alcotest.(check bool) "{} ok" false (fails []);
  Alcotest.(check bool) "{a} ok" false (fails [ "a" ]);
  Alcotest.(check bool) "{a,b} ok (same pump)" false (fails [ "a"; "b" ]);
  Alcotest.(check bool) "{a,c} fails" true (fails [ "a"; "c" ]);
  Alcotest.(check bool) "{b,d} fails" true (fails [ "b"; "d" ]);
  Alcotest.(check bool) "{e} fails" true (fails [ "e" ]);
  Alcotest.(check bool) "{a,b,c,d,e} fails" true (fails [ "a"; "b"; "c"; "d"; "e" ])

let test_scenario_probability_paper () =
  (* Example 1: p({a,d}) ~ 2.988e-6. *)
  let xi = Int_set.of_list [ idx "a"; idx "d" ] in
  let p = Fault_tree.scenario_probability pumps xi in
  check_close ~eps:1e-12 "paper value"
    (3e-3 *. 1e-3 *. (1.0 -. 1e-3) *. (1.0 -. 3e-3) *. (1.0 -. 3e-6))
    p;
  Alcotest.(check bool) "~2.988e-6" true (Float.abs (p -. 2.988e-6) < 1e-9)

let test_exact_probability_small () =
  (* Independent check: exact by enumeration equals inclusion-exclusion over
     the 5 known MCS computed by hand via the complement:
     p = 1 - (1 - p_e) * (1 - p_pumps_and) where
     p_pumps = (a or b)(c or d). *)
  let pa = 3e-3 and pb = 1e-3 and pc = 3e-3 and pd = 1e-3 and pe = 3e-6 in
  let p_pump1 = 1.0 -. ((1.0 -. pa) *. (1.0 -. pb)) in
  let p_pump2 = 1.0 -. ((1.0 -. pc) *. (1.0 -. pd)) in
  let expected = 1.0 -. ((1.0 -. (p_pump1 *. p_pump2)) *. (1.0 -. pe)) in
  check_close ~eps:1e-15 "closed form" expected
    (Fault_tree.exact_top_probability_enumerate pumps)

let test_eval_gates_names () =
  let values =
    Fault_tree.eval_gates pumps ~failed:(fun b -> b = idx "a" || b = idx "c")
  in
  let gate name = values.(Option.get (Fault_tree.gate_index pumps name)) in
  Alcotest.(check bool) "pump1" true (gate "pump1");
  Alcotest.(check bool) "pump2" true (gate "pump2");
  Alcotest.(check bool) "pumps" true (gate "pumps");
  Alcotest.(check bool) "cooling" true (gate "cooling")

let test_descendants () =
  let g = Option.get (Fault_tree.gate_index pumps "pump1") in
  Alcotest.(check (list int))
    "pump1 descendants"
    [ idx "a"; idx "b" ]
    (Int_set.to_list (Fault_tree.descendant_basics pumps g));
  let top = Fault_tree.top pumps in
  Alcotest.(check int) "all under top" 5
    (Int_set.cardinal (Fault_tree.descendant_basics pumps top))

let test_parents () =
  let g_pumps = Option.get (Fault_tree.gate_index pumps "pumps") in
  let g_pump1 = Option.get (Fault_tree.gate_index pumps "pump1") in
  Alcotest.(check (array int)) "pump1's parents" [| g_pumps |]
    (Fault_tree.gate_parents pumps g_pump1);
  Alcotest.(check (array int)) "a's parents" [| g_pump1 |]
    (Fault_tree.basic_parents pumps (idx "a"))

let test_with_probs () =
  let t = Fault_tree.with_probs pumps (Array.make 5 0.5) in
  check_close "updated" 0.5 (Fault_tree.prob t 0);
  check_close "original untouched" 3e-3 (Fault_tree.prob pumps 0);
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Fault_tree.with_probs: wrong length") (fun () ->
      ignore (Fault_tree.with_probs pumps [| 0.1 |]))

(* K-of-N semantics and expansion. *)

let atleast_tree k n =
  let b = Fault_tree.Builder.create () in
  let inputs =
    List.init n (fun i ->
        Fault_tree.Builder.basic b ~prob:0.2 (Printf.sprintf "x%d" i))
  in
  let top = Fault_tree.Builder.gate b "vote" (Fault_tree.Atleast k) inputs in
  Fault_tree.Builder.build b ~top

let test_atleast_semantics () =
  let t = atleast_tree 2 4 in
  let fails set = Fault_tree.fails_top t ~failed:(fun b -> List.mem b set) in
  Alcotest.(check bool) "0 of 4" false (fails []);
  Alcotest.(check bool) "1 of 4" false (fails [ 0 ]);
  Alcotest.(check bool) "2 of 4" true (fails [ 0; 3 ]);
  Alcotest.(check bool) "4 of 4" true (fails [ 0; 1; 2; 3 ])

let test_expand_atleast_identity_when_pure () =
  let t = Pumps.static_tree () in
  Alcotest.(check bool) "no atleast" false (Expand.has_atleast t);
  Alcotest.(check bool) "same tree" true (Expand.expand_atleast t == t)

let test_expand_atleast_equivalent () =
  List.iter
    (fun (k, n) ->
      let t = atleast_tree k n in
      let t' = Expand.expand_atleast t in
      Alcotest.(check bool) "expanded has no atleast" false (Expand.has_atleast t');
      (* Same boolean function on all 2^n assignments. *)
      for mask = 0 to (1 lsl n) - 1 do
        let failed b = mask land (1 lsl b) <> 0 in
        if
          Fault_tree.fails_top t ~failed <> Fault_tree.fails_top t' ~failed
        then Alcotest.failf "mismatch k=%d n=%d mask=%d" k n mask
      done;
      (* Probabilities preserved too. *)
      check_close ~eps:1e-12 "probability preserved"
        (Fault_tree.exact_top_probability_enumerate t)
        (Fault_tree.exact_top_probability_enumerate t'))
    [ (1, 3); (2, 3); (3, 3); (2, 4); (3, 5); (4, 6) ]

(* Modules *)

let test_modules_pumps () =
  (* No sharing in the running example: every gate is a module. *)
  let mods = Modules.find pumps in
  Alcotest.(check int) "all four gates" 4 (List.length mods);
  Alcotest.(check bool) "top included" true
    (List.mem (Fault_tree.top pumps) mods)

let test_modules_shared_leaf () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.1 "x" in
  let y = Fault_tree.Builder.basic b ~prob:0.1 "y" in
  let s = Fault_tree.Builder.basic b ~prob:0.1 "s" in
  let g1 = Fault_tree.Builder.gate b "g1" Fault_tree.Or [ x; s ] in
  let g2 = Fault_tree.Builder.gate b "g2" Fault_tree.Or [ y; s ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ g1; g2 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let g1_id = Option.get (Fault_tree.gate_index tree "g1") in
  let g2_id = Option.get (Fault_tree.gate_index tree "g2") in
  Alcotest.(check bool) "g1 not a module (shares s)" false
    (List.mem g1_id (Modules.find tree));
  Alcotest.(check bool) "g2 not a module" false
    (List.mem g2_id (Modules.find tree));
  Alcotest.(check (list int)) "only top" [ Fault_tree.top tree ] (Modules.find tree)

let test_modules_shared_gate () =
  (* A gate used by two parents is itself fine, but it stops its parents
     from being modules. *)
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.1 "x" in
  let y = Fault_tree.Builder.basic b ~prob:0.1 "y" in
  let z = Fault_tree.Builder.basic b ~prob:0.1 "z" in
  let shared = Fault_tree.Builder.gate b "shared" Fault_tree.Or [ z ] in
  let g1 = Fault_tree.Builder.gate b "g1" Fault_tree.And [ x; shared ] in
  let g2 = Fault_tree.Builder.gate b "g2" Fault_tree.And [ y; shared ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ g1; g2 ] in
  let tree = Fault_tree.Builder.build b ~top in
  let name n = Option.get (Fault_tree.gate_index tree n) in
  Alcotest.(check bool) "shared is a module" true
    (List.mem (name "shared") (Modules.find tree));
  Alcotest.(check bool) "g1 not" false
    (List.mem (name "g1") (Modules.find tree));
  Alcotest.(check bool) "top yes" true
    (List.mem (Fault_tree.top tree) (Modules.find tree))

let test_modules_ignore_dangling () =
  (* An unreachable gate that references a basic inside the live tree must
     not break modularity — the top event never sees it. Regression: the
     industrial generator's scaffolding gates used to strip the top gate of
     its module status, violating [find]'s contract. *)
  let b = Fault_tree.Builder.create () in
  let s = Fault_tree.Builder.basic b ~prob:0.1 "s" in
  let a = Fault_tree.Builder.basic b ~prob:0.1 "a" in
  let c = Fault_tree.Builder.basic b ~prob:0.1 "c" in
  let _dangling = Fault_tree.Builder.gate b "dangling" Fault_tree.Or [ s; c ] in
  let sub = Fault_tree.Builder.gate b "sub" Fault_tree.Or [ s; a ] in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And [ sub; c ] in
  let tree = Fault_tree.Builder.build b ~top in
  let name n = Option.get (Fault_tree.gate_index tree n) in
  Alcotest.(check bool) "top is a module" true
    (List.mem (Fault_tree.top tree) (Modules.find tree));
  Alcotest.(check bool) "sub is a module despite dangling ref to s" true
    (List.mem (name "sub") (Modules.find tree));
  Alcotest.(check bool) "dangling gate itself not reported" false
    (List.mem (name "dangling") (Modules.find tree));
  Alcotest.(check (list int)) "find = reachable modules"
    [ name "sub"; Fault_tree.top tree ]
    (Modules.find tree)

(* The modules that hold a given (dynamic) event: the candidates for a
   modular dynamic/static split. *)
let test_dynamic_modules () =
  let tree = pumps in
  let d = Option.get (Fault_tree.basic_index tree "d") in
  let mods =
    List.filter
      (fun g -> Int_set.mem d (Fault_tree.descendant_basics tree g))
      (Modules.find tree)
  in
  (* d sits under pump2, pumps and cooling. *)
  Alcotest.(check int) "three dynamic modules" 3 (List.length mods)

(* Graphviz export *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_dot_export () =
  let sd = Pumps.sd_tree () in
  let dot =
    Dot.to_dot ~dynamic_basics:(Sdft.is_dynamic sd)
      ~trigger_edges:(Sdft.trigger_edges sd) pumps
  in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph fault_tree" dot);
  Alcotest.(check bool) "dynamic double circle" true
    (contains ~needle:"doublecircle" dot);
  Alcotest.(check bool) "dashed trigger" true (contains ~needle:"style=dashed" dot);
  Alcotest.(check bool) "AND label" true (contains ~needle:"[AND]" dot);
  Alcotest.(check bool) "top has double border" true (contains ~needle:"peripheries=2" dot)

let test_dot_quotes_names () =
  let b = Fault_tree.Builder.create () in
  let x = Fault_tree.Builder.basic b ~prob:0.1 "weird\"name" in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ x ] in
  let tree = Fault_tree.Builder.build b ~top in
  let dot = Dot.to_dot tree in
  Alcotest.(check bool) "escaped" true (contains ~needle:"weird\\\"name" dot)

(* Random trees: expansion preserves the boolean function. *)

let prop_expand_preserves_function =
  QCheck.Test.make ~name:"expand_atleast preserves the function" ~count:100
    (QCheck.make QCheck.Gen.(0 -- 10000))
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let t = Random_tree.tree rng ~n_basics:6 ~n_gates:5 in
      let t' = Expand.expand_atleast t in
      let ok = ref true in
      for mask = 0 to 63 do
        let failed b = mask land (1 lsl b) <> 0 in
        if Fault_tree.fails_top t ~failed <> Fault_tree.fails_top t' ~failed then
          ok := false
      done;
      !ok)

let prop_coherence =
  (* Adding failures never un-fails the top gate (the trees are coherent). *)
  QCheck.Test.make ~name:"random trees are coherent (monotone)" ~count:100
    (QCheck.make QCheck.Gen.(0 -- 10000))
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let t = Random_tree.tree rng ~n_basics:7 ~n_gates:6 in
      let ok = ref true in
      for mask = 0 to 127 do
        let failed b = mask land (1 lsl b) <> 0 in
        if Fault_tree.fails_top t ~failed then begin
          (* any superset must fail too: test by adding one bit *)
          for extra = 0 to 6 do
            let failed' b = failed b || b = extra in
            if not (Fault_tree.fails_top t ~failed:failed') then ok := false
          done
        end
      done;
      !ok)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fault_tree"
    [
      ( "builder",
        [
          Alcotest.test_case "duplicate name" `Quick test_duplicate_name_rejected;
          Alcotest.test_case "bad probability" `Quick test_bad_probability_rejected;
          Alcotest.test_case "empty gate" `Quick test_empty_gate_rejected;
          Alcotest.test_case "duplicate inputs" `Quick test_duplicate_inputs_rejected;
          Alcotest.test_case "bad atleast" `Quick test_bad_atleast_rejected;
          Alcotest.test_case "basic top" `Quick test_basic_top_rejected;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "structure" `Quick test_pumps_structure;
          Alcotest.test_case "evaluation" `Quick test_pumps_evaluation;
          Alcotest.test_case "scenario probability (paper)" `Quick test_scenario_probability_paper;
          Alcotest.test_case "exact probability" `Quick test_exact_probability_small;
          Alcotest.test_case "gate values" `Quick test_eval_gates_names;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "parents" `Quick test_parents;
          Alcotest.test_case "with_probs" `Quick test_with_probs;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick test_dot_export;
          Alcotest.test_case "escaping" `Quick test_dot_quotes_names;
        ] );
      ( "modules",
        [
          Alcotest.test_case "pumps" `Quick test_modules_pumps;
          Alcotest.test_case "shared leaf" `Quick test_modules_shared_leaf;
          Alcotest.test_case "shared gate" `Quick test_modules_shared_gate;
          Alcotest.test_case "dangling gates ignored" `Quick
            test_modules_ignore_dangling;
          Alcotest.test_case "dynamic modules" `Quick test_dynamic_modules;
        ] );
      ( "atleast",
        [
          Alcotest.test_case "semantics" `Quick test_atleast_semantics;
          Alcotest.test_case "identity" `Quick test_expand_atleast_identity_when_pure;
          Alcotest.test_case "equivalence" `Quick test_expand_atleast_equivalent;
        ]
        @ qc [ prop_expand_preserves_function; prop_coherence ] );
    ]
