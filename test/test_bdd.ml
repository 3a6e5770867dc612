(* Tests for the BDD/ZDD engine: boolean operations against truth tables,
   probabilities against enumeration, the ZDD subsumption difference against
   a set-of-sets model, minimal solutions against a brute force oracle. *)

module Int_set = Sdft_util.Int_set

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Basic BDD algebra *)

let test_terminals () =
  let m = Bdd.manager ~n_vars:2 () in
  Alcotest.(check bool) "and zero" true (Bdd.apply_and m Bdd.zero Bdd.one = Bdd.zero);
  Alcotest.(check bool) "or one" true (Bdd.apply_or m Bdd.zero Bdd.one = Bdd.one);
  Alcotest.(check bool) "and one" true (Bdd.apply_and m Bdd.one Bdd.one = Bdd.one)

let test_var_eval () =
  let m = Bdd.manager ~n_vars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 2 in
  let f = Bdd.apply_and m x y in
  Alcotest.(check bool) "x & y at (1,_,1)" true (Bdd.eval m (fun v -> v <> 1) f);
  Alcotest.(check bool) "x & y at (1,_,0)" false (Bdd.eval m (fun v -> v = 0) f);
  Alcotest.(check bool) "x & y at (0,_,1)" false (Bdd.eval m (fun v -> v = 2) f)

let test_hash_consing () =
  let m = Bdd.manager ~n_vars:2 () in
  let a = Bdd.apply_or m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.apply_or m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "canonical" true (a = b);
  let absorbed = Bdd.apply_or m (Bdd.var m 0) (Bdd.apply_and m (Bdd.var m 0) a) in
  Alcotest.(check bool) "absorption" true (absorbed = Bdd.var m 0)

(* qcheck: random monotone 4-variable formulas (the shape of a coherent
   fault tree's structure function) vs truth tables. *)

type formula = Var of int | And of formula * formula | Or of formula * formula

let rec gen_formula depth st =
  let open QCheck.Gen in
  if depth = 0 then Var (int_bound 3 st)
  else
    match int_bound 2 st with
    | 0 -> Var (int_bound 3 st)
    | 1 -> And (gen_formula (depth - 1) st, gen_formula (depth - 1) st)
    | _ -> Or (gen_formula (depth - 1) st, gen_formula (depth - 1) st)

let rec eval_formula assignment = function
  | Var v -> assignment v
  | And (a, b) -> eval_formula assignment a && eval_formula assignment b
  | Or (a, b) -> eval_formula assignment a || eval_formula assignment b

let rec build_formula m = function
  | Var v -> Bdd.var m v
  | And (a, b) -> Bdd.apply_and m (build_formula m a) (build_formula m b)
  | Or (a, b) -> Bdd.apply_or m (build_formula m a) (build_formula m b)

let prop_formula_semantics =
  QCheck.Test.make ~name:"BDD agrees with truth table" ~count:300
    (QCheck.make (gen_formula 4))
    (fun f ->
      let m = Bdd.manager ~n_vars:4 () in
      let node = build_formula m f in
      let ok = ref true in
      for mask = 0 to 15 do
        let assignment v = mask land (1 lsl v) <> 0 in
        if Bdd.eval m assignment node <> eval_formula assignment f then ok := false
      done;
      !ok)

let prop_probability_matches_enumeration =
  QCheck.Test.make ~name:"BDD probability = enumeration" ~count:200
    (QCheck.make (gen_formula 4))
    (fun f ->
      let m = Bdd.manager ~n_vars:4 () in
      let node = build_formula m f in
      let p v = [| 0.1; 0.35; 0.5; 0.81 |].(v) in
      let exact = ref 0.0 in
      for mask = 0 to 15 do
        let assignment v = mask land (1 lsl v) <> 0 in
        if eval_formula assignment f then begin
          let w = ref 1.0 in
          for v = 0 to 3 do
            w := !w *. (if assignment v then p v else 1.0 -. p v)
          done;
          exact := !exact +. !w
        end
      done;
      Float.abs (Bdd.probability m p node -. !exact) < 1e-12)

(* Fault tree compilation: probability equals enumeration on the running
   example, and with assumptions. *)

let pumps = Pumps.static_tree ()

let test_of_fault_tree_probability () =
  let m, root = Bdd.of_fault_tree pumps in
  check_close ~eps:1e-15 "pumps exact"
    (Fault_tree.exact_top_probability_enumerate pumps)
    (Bdd.probability m (Fault_tree.prob pumps) root)

let test_of_fault_tree_assume () =
  (* Conditioning on e = true makes the top certain. *)
  let e = Option.get (Fault_tree.basic_index pumps "e") in
  let m, root =
    Bdd.of_fault_tree ~assume:(fun b -> if b = e then Some true else None) pumps
  in
  ignore m;
  Alcotest.(check bool) "constant true" true (root = Bdd.one);
  (* Conditioning e = false and a = false, c = false: top impossible only if
     also b or d cannot happen... pumps requires (a|b)&(c|d); with a=c=false
     it is b & d. *)
  let a = Option.get (Fault_tree.basic_index pumps "a") in
  let c = Option.get (Fault_tree.basic_index pumps "c") in
  let m2, root2 =
    Bdd.of_fault_tree
      ~assume:(fun bb ->
        if bb = e || bb = a || bb = c then Some false else None)
      pumps
  in
  let b = Option.get (Fault_tree.basic_index pumps "b") in
  let d = Option.get (Fault_tree.basic_index pumps "d") in
  let expected = Bdd.apply_and m2 (Bdd.var m2 b) (Bdd.var m2 d) in
  Alcotest.(check bool) "b & d" true (root2 = expected)

(* Distinct internal nodes reachable from [n]. *)
let bdd_size m n =
  let seen = Hashtbl.create 16 in
  let rec walk n =
    if n <> Bdd.zero && n <> Bdd.one && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      walk (Bdd.node_low m n);
      walk (Bdd.node_high m n)
    end
  in
  walk n;
  Hashtbl.length seen

let test_bdd_size_and_levels () =
  let m = Bdd.manager ~var_order:[| 2; 0; 1 |] ~n_vars:3 () in
  Alcotest.(check int) "level of 2" 0 (Bdd.level_of_var m 2);
  Alcotest.(check int) "level of 1" 2 (Bdd.level_of_var m 1);
  let f = Bdd.apply_or m (Bdd.var m 0) (Bdd.apply_and m (Bdd.var m 1) (Bdd.var m 2)) in
  Alcotest.(check int) "root is the top level's variable" 2 (Bdd.node_var m f);
  (* x2 ? (x0 | x1) : x0, with the node for x0 shared: four nodes. *)
  Alcotest.(check int) "reduced size" 4 (bdd_size m f);
  Alcotest.(check int) "terminal size" 0 (bdd_size m Bdd.one)

let test_bdd_gate_compilation () =
  let t = Pumps.static_tree () in
  let g = Option.get (Fault_tree.gate_index t "pump1") in
  let m, root = Bdd.of_fault_tree_gate t g in
  (* pump1 = a OR b. *)
  let a = Option.get (Fault_tree.basic_index t "a") in
  let b = Option.get (Fault_tree.basic_index t "b") in
  Alcotest.(check bool) "a or b" true
    (root = Bdd.apply_or m (Bdd.var m a) (Bdd.var m b))

(* A family built from the nodes up, and its sets. *)
let zdd_count zm z = Zdd.fold zm z ~bottom:0 ~top:1 ~node:(fun _ low high -> low + high)

let test_zdd_make_node_validation () =
  let zm = Zdd.manager ~n_vars:3 () in
  let low = Zdd.make_node zm 2 Zdd.bottom Zdd.top in
  (* Variable 2 is at the deepest level; putting it above itself fails. *)
  Alcotest.(check bool) "level violation" true
    (match Zdd.make_node zm 2 low Zdd.top with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Variable 0 above variable 2 is fine. *)
  let n = Zdd.make_node zm 0 low Zdd.top in
  Alcotest.(check int) "two sets" 2 (zdd_count zm n)

(* The ZDD subsumption difference against a set-of-sets model. *)

module SS = Set.Make (struct
  type t = Int_set.t

  let compare = Int_set.compare
end)

let to_model zm node = SS.of_list (Zdd.to_cutsets zm node)

(* The family of [sets] over variables [0, n_vars) in the identity order,
   built top-down through [make_node] alone: at variable [v] the sets
   without [v] form the low branch and the rests of those with it the high
   branch. *)
let of_sets zm ~n_vars sets =
  let rec build v sets =
    if sets = [] then Zdd.bottom
    else if v = n_vars then Zdd.top
    else
      let with_v, without_v = List.partition (Int_set.mem v) sets in
      Zdd.make_node zm v (build (v + 1) without_v)
        (build (v + 1) (List.map (Int_set.remove v) with_v))
  in
  build 0 sets

let sets_gen =
  QCheck.Gen.(
    list_size (0 -- 6) (list_size (0 -- 4) (int_bound 4))
    >|= List.map Int_set.of_list)

let with_zdd f (a, b) =
  let zm = Zdd.manager ~n_vars:5 () in
  let za = of_sets zm ~n_vars:5 a and zb = of_sets zm ~n_vars:5 b in
  f zm za zb (SS.of_list a) (SS.of_list b)

let prop_zdd_without =
  QCheck.Test.make ~name:"Zdd.without removes exactly the subsumed sets"
    ~count:300
    (QCheck.make QCheck.Gen.(pair sets_gen sets_gen))
    (with_zdd (fun zm za zb ma mb ->
         let expected =
           SS.filter
             (fun s -> not (SS.exists (fun w -> Int_set.subset w s) mb))
             ma
         in
         SS.equal (to_model zm (Zdd.without zm za zb)) expected))

(* Algebraic laws the engine's subsumption passes lean on: [without] is
   idempotent in its second argument and annihilates itself (every set
   subsumes itself). Hash consing makes these checkable by handle
   equality. *)

let prop_zdd_without_algebra =
  QCheck.Test.make ~name:"Zdd.without: idempotent, self-annihilating"
    ~count:300
    (QCheck.make QCheck.Gen.(pair sets_gen sets_gen))
    (with_zdd (fun zm za zb _ _ ->
         let w = Zdd.without zm za zb in
         Zdd.without zm w zb = w && Zdd.without zm za za = Zdd.bottom))

let test_zdd_count () =
  let zm = Zdd.manager ~n_vars:4 () in
  let z =
    of_sets zm ~n_vars:4
      [ Int_set.of_list [ 0 ]; Int_set.of_list [ 1; 2 ]; Int_set.of_list [ 0 ] ]
  in
  Alcotest.(check int) "distinct sets" 2 (zdd_count zm z);
  Alcotest.(check int) "bottom" 0 (zdd_count zm Zdd.bottom);
  Alcotest.(check int) "top" 1 (zdd_count zm Zdd.top)

(* Regression: the walks must not be depth-bounded by the OCaml stack. A
   300k-node low-spine chain (the family of all singletons) overflows any
   naively recursive [fold]/[to_cutsets]/[size]; the iterative versions
   must survive it. *)
let test_zdd_deep_chain () =
  let n = 300_000 in
  let zm = Zdd.manager ~n_vars:n () in
  let chain = ref Zdd.bottom in
  for v = n - 1 downto 0 do
    chain := Zdd.make_node zm v !chain Zdd.top
  done;
  let chain = !chain in
  Alcotest.(check int) "count" n (zdd_count zm chain);
  Alcotest.(check int) "size" n (Zdd.size zm chain);
  let sets = Zdd.to_cutsets zm chain in
  Alcotest.(check int) "to_cutsets visits all" n (List.length sets);
  Alcotest.(check bool) "singletons" true
    (List.for_all (fun s -> Int_set.cardinal s = 1) sets);
  (* Uniform weight w: the weighted count of the singleton family is n*w. *)
  let w = Zdd.weighted_count zm (fun _ -> 0.5) chain in
  Alcotest.(check bool) "weighted count" true
    (Float.abs (w -. (0.5 *. float_of_int n)) < 1e-6)

(* A 70-level doubling diagram holds 2^70 sets in 70 nodes: [fold] visits
   each shared node once, so a saturating count finishes at [max_int]
   ("at least max_int") instead of walking 2^70 paths. *)
let test_zdd_count_saturates () =
  let levels = 70 in
  let zm = Zdd.manager ~n_vars:levels () in
  let d = ref Zdd.top in
  for v = levels - 1 downto 0 do
    d := Zdd.make_node zm v !d !d
  done;
  let sat_add a b = if a > max_int - b then max_int else a + b in
  Alcotest.(check int) "saturated" max_int
    (Zdd.fold zm !d ~bottom:0 ~top:1 ~node:(fun _ low high -> sat_add low high));
  (* The float weighted count has the headroom the int count lacks. *)
  let w = Zdd.weighted_count zm (fun _ -> 1.0) !d in
  Alcotest.(check bool) "2^70 sets by weight" true
    (Float.abs ((w /. Float.pow 2.0 70.0) -. 1.0) < 1e-9)

(* The manager's guard governs the recursive subsumption pass: an expired
   deadline must surface as [Limit_hit] from inside the ZDD layer. *)
let test_zdd_guard_trips () =
  let guard = Sdft_util.Guard.create ~deadline:0.0 () in
  let zm = Zdd.manager ~guard ~n_vars:5 () in
  let trips =
    match
      let a = Zdd.make_node zm 0 Zdd.bottom Zdd.top
      and b = Zdd.make_node zm 1 Zdd.bottom Zdd.top in
      for _ = 1 to 1_000_000 do
        ignore (Zdd.without zm a b)
      done
    with
    | () -> false
    | exception Sdft_util.Guard.Limit_hit Sdft_util.Guard.Deadline -> true
  in
  Alcotest.(check bool) "deadline trips inside zdd ops" true trips

(* [seal] drops the construction tables and keeps the node store: every
   handle stays valid and readable, and building on the sealed manager
   raises instead of breaking hash-consing. *)
let test_zdd_seal () =
  let zm = Zdd.manager ~n_vars:5 () in
  (* {{0, 1}, {2}} and {{0}, {3, 4}}, node by node from the deepest level. *)
  let leaf v = Zdd.make_node zm v Zdd.bottom Zdd.top in
  let a = Zdd.make_node zm 0 (leaf 2) (leaf 1) in
  let b = Zdd.make_node zm 0 (Zdd.make_node zm 3 Zdd.bottom (leaf 4)) Zdd.top in
  let w = Zdd.without zm a b in
  Zdd.seal zm;
  Alcotest.(check (list (list int))) "handles still enumerable"
    [ [ 0; 1 ]; [ 2 ] ]
    (List.sort compare (List.map Int_set.to_list (Zdd.to_cutsets zm a)));
  Alcotest.(check (list (list int))) "{0, 1} subsumed by {0}" [ [ 2 ] ]
    (List.map Int_set.to_list (Zdd.to_cutsets zm w));
  Alcotest.(check (float 0.0)) "still folds" 0.5
    (Zdd.weighted_count zm (fun _ -> 0.5) w);
  Alcotest.check_raises "without raises"
    (Invalid_argument "Zdd.without: sealed manager") (fun () ->
      ignore (Zdd.without zm a b));
  Alcotest.check_raises "make_node raises"
    (Invalid_argument "Zdd.make_node: sealed manager") (fun () ->
      ignore (leaf 3))

(* Minimal solutions: brute force oracle over random fault trees. *)

let brute_force_mcs tree =
  let n = Fault_tree.n_basics tree in
  assert (n <= 12);
  let failing = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let failed b = mask land (1 lsl b) <> 0 in
    if Fault_tree.fails_top tree ~failed then begin
      let set =
        Int_set.of_list (List.filter (fun b -> failed b) (List.init n Fun.id))
      in
      failing := set :: !failing
    end
  done;
  (* keep inclusion-minimal *)
  List.filter
    (fun s ->
      not
        (List.exists
           (fun w -> Int_set.compare w s <> 0 && Int_set.subset w s)
           !failing))
    !failing
  |> List.sort Int_set.compare

let prop_minsol_matches_brute_force =
  QCheck.Test.make ~name:"minsol = brute force minimal cutsets" ~count:150
    (QCheck.make QCheck.Gen.(0 -- 100000))
    (fun seed ->
      let rng = Sdft_util.Rng.create seed in
      let tree = Random_tree.tree rng ~n_basics:7 ~n_gates:6 in
      let got = Minsol.fault_tree_cutsets tree in
      let expected = brute_force_mcs tree in
      got = expected)

let test_cutsets_above_prunes_by_probability () =
  (* pumps: MCS probabilities are 3e-6 (e), 9e-6 (a,c), 3e-6 (a,d and b,c),
     1e-6 (b,d). Cutoff 2e-6 must keep exactly the four largest. *)
  let sets = Minsol.fault_tree_cutsets_above pumps ~cutoff:2e-6 in
  Alcotest.(check int) "4 cutsets above 2e-6" 4 (List.length sets);
  let all = Minsol.fault_tree_cutsets_above pumps ~cutoff:0.0 in
  Alcotest.(check int) "all 5 with cutoff 0" 5 (List.length all)

let test_cutsets_above_max_order () =
  let sets = Minsol.fault_tree_cutsets_above ~max_order:1 pumps ~cutoff:0.0 in
  Alcotest.(check int) "only {e}" 1 (List.length sets)

(* The in-walk cardinality/probability pruning must emit exactly what
   enumerating everything and filtering afterwards would. *)
let prop_cutsets_above_equals_post_filter =
  QCheck.Test.make ~name:"cutsets_above = enumerate-then-filter" ~count:300
    (QCheck.make QCheck.Gen.(pair (0 -- 100000) (1 -- 3)))
    (fun (seed, k) ->
      let tree =
        Random_tree.tree (Sdft_util.Rng.create seed) ~n_basics:7 ~n_gates:6
      in
      let probs = Fault_tree.prob tree in
      let cutoff = 0.005 in
      let got = Minsol.fault_tree_cutsets_above ~max_order:k tree ~cutoff in
      let expected =
        Minsol.fault_tree_cutsets tree
        |> List.filter (fun s ->
               Int_set.cardinal s <= k
               && Int_set.fold (fun v acc -> acc *. probs v) s 1.0 >= cutoff)
        |> List.sort Int_set.compare
      in
      got = expected)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "vars" `Quick test_var_eval;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
        ]
        @ qc [ prop_formula_semantics; prop_probability_matches_enumeration ] );
      ( "fault trees",
        [
          Alcotest.test_case "probability" `Quick test_of_fault_tree_probability;
          Alcotest.test_case "assumptions" `Quick test_of_fault_tree_assume;
          Alcotest.test_case "size and levels" `Quick test_bdd_size_and_levels;
          Alcotest.test_case "gate compilation" `Quick test_bdd_gate_compilation;
          Alcotest.test_case "zdd make_node" `Quick test_zdd_make_node_validation;
        ] );
      ( "zdd",
        [
          Alcotest.test_case "count" `Quick test_zdd_count;
          Alcotest.test_case "deep chain (stack safety)" `Quick
            test_zdd_deep_chain;
          Alcotest.test_case "count saturation" `Quick test_zdd_count_saturates;
          Alcotest.test_case "guard trips" `Quick test_zdd_guard_trips;
          Alcotest.test_case "seal keeps handles" `Quick test_zdd_seal;
        ]
        @ qc [ prop_zdd_without; prop_zdd_without_algebra ] );
      ( "minsol",
        [
          Alcotest.test_case "cutoff pruning" `Quick test_cutsets_above_prunes_by_probability;
          Alcotest.test_case "max order" `Quick test_cutsets_above_max_order;
        ]
        @ qc
            [
              prop_minsol_matches_brute_force;
              prop_cutsets_above_equals_post_filter;
            ] );
    ]
