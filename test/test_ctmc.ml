(* Tests for the CTMC engine: construction, Poisson weights, uniformization
   against closed-form solutions. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Ctmc construction *)

let test_make_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Ctmc.make: self-loop")
    (fun () -> ignore (Ctmc.make ~n_states:2 ~transitions:[ (0, 0, 1.0) ]))

let test_make_rejects_bad_rate () =
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Ctmc.make: rate must be positive and finite") (fun () ->
      ignore (Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 0.0) ]))

let test_make_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Ctmc.make: state out of range")
    (fun () -> ignore (Ctmc.make ~n_states:2 ~transitions:[ (0, 2, 1.0) ]))

let test_make_merges_parallel () =
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 1.0); (0, 1, 2.5) ] in
  check_close "merged rate" 3.5 (Ctmc.rate c 0 1);
  check_close "exit" 3.5 (Ctmc.exit_rate c 0);
  Alcotest.(check int) "one merged transition" 1 (Ctmc.n_transitions c)

let test_exit_and_max_rate () =
  let c =
    Ctmc.make ~n_states:3 ~transitions:[ (0, 1, 1.0); (0, 2, 2.0); (1, 2, 5.0) ]
  in
  check_close "exit 0" 3.0 (Ctmc.exit_rate c 0);
  check_close "exit 1" 5.0 (Ctmc.exit_rate c 1);
  check_close "exit 2 (absorbing)" 0.0 (Ctmc.exit_rate c 2);
  check_close "max" 5.0 (Ctmc.max_exit_rate c)

let test_restrict_absorbing () =
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 1.0); (1, 0, 1.0) ] in
  let c' = Ctmc.restrict_absorbing c (fun s -> s = 1) in
  check_close "outgoing removed" 0.0 (Ctmc.exit_rate c' 1);
  check_close "other kept" 1.0 (Ctmc.exit_rate c' 0)

let test_embedded_dtmc () =
  let c = Ctmc.make ~n_states:3 ~transitions:[ (0, 1, 1.0); (0, 2, 3.0) ] in
  let row = Ctmc.embedded_dtmc_row c 0 in
  Alcotest.(check int) "two targets" 2 (Array.length row);
  check_close "p(0->1)" 0.25 (snd row.(0));
  check_close "p(0->2)" 0.75 (snd row.(1));
  Alcotest.(check int) "absorbing empty" 0 (Array.length (Ctmc.embedded_dtmc_row c 2))

(* Poisson *)

let test_poisson_matches_pmf () =
  List.iter
    (fun qt ->
      let w = Poisson.weights qt in
      for k = w.Poisson.left to min w.Poisson.right (w.Poisson.left + 200) do
        let expected = Poisson.pmf qt k in
        let got = w.Poisson.weights.(k - w.Poisson.left) in
        if Float.abs (expected -. got) > 1e-9 then
          Alcotest.failf "pmf mismatch qt=%g k=%d: %g vs %g" qt k expected got
      done)
    [ 0.1; 1.0; 5.0; 25.0; 100.0 ]

let test_poisson_weights_sum_to_one () =
  List.iter
    (fun qt ->
      let w = Poisson.weights qt in
      check_close ~eps:1e-10 "weights sum"
        1.0
        (Sdft_util.Kahan.sum w.Poisson.weights))
    [ 0.0; 0.5; 3.0; 50.0; 1000.0; 100000.0 ]

let test_poisson_zero_mean () =
  let w = Poisson.weights 0.0 in
  Alcotest.(check int) "left" 0 w.Poisson.left;
  Alcotest.(check int) "right" 0 w.Poisson.right;
  check_close "weight" 1.0 w.Poisson.weights.(0)

let test_poisson_covers_mass () =
  (* The window must cover all but ~epsilon of the distribution. *)
  let qt = 40.0 in
  let w = Poisson.weights ~epsilon:1e-12 qt in
  let outside = ref 0.0 in
  for k = 0 to w.Poisson.left - 1 do
    outside := !outside +. Poisson.pmf qt k
  done;
  for k = w.Poisson.right + 1 to w.Poisson.right + 300 do
    outside := !outside +. Poisson.pmf qt k
  done;
  Alcotest.(check bool) "truncated mass tiny" true (!outside < 1e-10)

let test_poisson_mode_in_window () =
  List.iter
    (fun qt ->
      let w = Poisson.weights qt in
      let mode = int_of_float qt in
      Alcotest.(check bool) "mode covered" true
        (w.Poisson.left <= mode && mode <= w.Poisson.right);
      (* The mode carries the largest weight. *)
      let wm = w.Poisson.weights.(mode - w.Poisson.left) in
      Alcotest.(check bool) "mode maximal" true
        (Array.for_all (fun x -> x <= wm +. 1e-15) w.Poisson.weights))
    [ 0.5; 7.0; 300.0; 12345.0 ]

let test_poisson_rejects_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Poisson.weights: mean must be finite and non-negative")
    (fun () -> ignore (Poisson.weights (-1.0)))

(* Transient analysis vs closed forms *)

(* Two-state chain 0 ->(l) 1: P(in 1 at t) = 1 - exp(-l t). *)
let test_transient_single_exponential () =
  let l = 0.3 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l) ] in
  List.iter
    (fun t ->
      let d = Transient.distribution c ~init:[ (0, 1.0) ] ~t in
      check_close ~eps:1e-10 "P(failed)" (1.0 -. exp (-.l *. t)) d.(1))
    [ 0.0; 0.5; 2.0; 10.0 ]

(* Repairable machine: 0 <-> 1 with failure l and repair m.
   P(in 1 at t) = l/(l+m) (1 - exp(-(l+m) t)). *)
let test_transient_birth_death () =
  let l = 0.2 and m = 1.3 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l); (1, 0, m) ] in
  List.iter
    (fun t ->
      let d = Transient.distribution c ~init:[ (0, 1.0) ] ~t in
      let expected = l /. (l +. m) *. (1.0 -. exp (-.(l +. m) *. t)) in
      check_close ~eps:1e-10 "P(down)" expected d.(1))
    [ 0.1; 1.0; 5.0; 50.0 ]

(* Erlang-2: time to absorb is the sum of two Exp(l); CDF is
   1 - e^{-lt}(1 + lt). *)
let test_transient_erlang_2 () =
  let l = 0.7 in
  let c = Ctmc.make ~n_states:3 ~transitions:[ (0, 1, l); (1, 2, l) ] in
  List.iter
    (fun t ->
      let p =
        Transient.reach_within c ~init:[ (0, 1.0) ] ~target:(fun s -> s = 2) ~t
      in
      let expected = 1.0 -. (exp (-.l *. t) *. (1.0 +. (l *. t))) in
      check_close ~eps:1e-10 "Erlang CDF" expected p)
    [ 0.5; 2.0; 8.0 ]

(* Reachability makes the target absorbing: a chain that passes through
   state 1 and leaves it again must still count the visit. *)
let test_reach_counts_transient_visits () =
  let c = Ctmc.make ~n_states:3 ~transitions:[ (0, 1, 10.0); (1, 2, 10.0) ] in
  let p_visit =
    Transient.reach_within c ~init:[ (0, 1.0) ] ~target:(fun s -> s = 1) ~t:10.0
  in
  let d = Transient.distribution c ~init:[ (0, 1.0) ] ~t:10.0 in
  Alcotest.(check bool) "occupancy < reach" true (d.(1) < 0.5 && p_visit > 0.99)

let test_reach_at_time_zero () =
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 1.0) ] in
  let p =
    Transient.reach_within c ~init:[ (1, 0.4); (0, 0.6) ] ~target:(fun s -> s = 1)
      ~t:0.0
  in
  check_close "initial mass counts" 0.4 p

let test_transient_substochastic_init_rejected () =
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 1.0) ] in
  Alcotest.check_raises "too much mass"
    (Invalid_argument "Transient: initial distribution sums to more than 1")
    (fun () ->
      ignore (Transient.distribution c ~init:[ (0, 0.8); (1, 0.4) ] ~t:1.0))

let test_transient_large_qt () =
  (* Stiff chain: fast repair, long horizon. Steady-state detection should
     kick in; result must match the closed form. *)
  let l = 0.001 and m = 100.0 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l); (1, 0, m) ] in
  let t = 1000.0 in
  let d = Transient.distribution c ~init:[ (0, 1.0) ] ~t in
  let expected = l /. (l +. m) *. (1.0 -. exp (-.(l +. m) *. t)) in
  check_close ~eps:1e-8 "stiff chain" expected d.(1)

let test_expected_time_to_absorption () =
  (* Erlang-3 with rate l: mean 3/l. *)
  let l = 2.0 in
  let c =
    Ctmc.make ~n_states:4 ~transitions:[ (0, 1, l); (1, 2, l); (2, 3, l) ]
  in
  match Transient.expected_time_to_absorption c ~init:[ (0, 1.0) ] with
  | Some m -> check_close ~eps:1e-9 "mean" 1.5 m
  | None -> Alcotest.fail "expected convergence"

let test_expected_time_with_branching () =
  (* From 0: to absorbing 1 with rate a, to absorbing 2 with rate b.
     Mean time = 1/(a+b). *)
  let a = 1.0 and b = 3.0 in
  let c = Ctmc.make ~n_states:3 ~transitions:[ (0, 1, a); (0, 2, b) ] in
  match Transient.expected_time_to_absorption c ~init:[ (0, 1.0) ] with
  | Some m -> check_close ~eps:1e-9 "mean" 0.25 m
  | None -> Alcotest.fail "expected convergence"

(* Steady state *)

let test_steady_state_birth_death () =
  let l = 0.3 and m = 1.7 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l); (1, 0, m) ] in
  match Steady_state.solve c with
  | Some pi ->
    check_close ~eps:1e-9 "pi(down)" (l /. (l +. m)) pi.(1);
    check_close ~eps:1e-9 "pi(up)" (m /. (l +. m)) pi.(0)
  | None -> Alcotest.fail "no convergence"

let test_steady_state_unavailability () =
  let l = 0.01 and m = 0.5 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l); (1, 0, m) ] in
  match Steady_state.unavailability c ~failed:(fun s -> s = 1) with
  | Some q -> check_close ~eps:1e-9 "unavailability" (l /. (l +. m)) q
  | None -> Alcotest.fail "no convergence"

let test_steady_state_cycle () =
  (* Three-state cycle with equal rates: uniform stationary distribution. *)
  let c =
    Ctmc.make ~n_states:3 ~transitions:[ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ]
  in
  match Steady_state.solve c with
  | Some pi ->
    Array.iter (fun p -> check_close ~eps:1e-9 "uniform" (1.0 /. 3.0) p) pi
  | None -> Alcotest.fail "no convergence"

let test_occupancy_sums_to_horizon () =
  let c =
    Ctmc.make ~n_states:3 ~transitions:[ (0, 1, 0.7); (1, 0, 0.2); (1, 2, 0.4) ]
  in
  List.iter
    (fun t ->
      let occ = Steady_state.expected_occupancy c ~init:[ (0, 1.0) ] ~t in
      check_close ~eps:1e-8 "total time" t (Array.fold_left ( +. ) 0.0 occ))
    [ 0.0; 1.0; 10.0 ]

let test_occupancy_closed_form () =
  (* Repairable machine: expected downtime in [0,t] is
     q*t - q*(1 - exp(-(l+m) t))/(l+m) with q = l/(l+m). *)
  let l = 0.4 and m = 0.9 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l); (1, 0, m) ] in
  List.iter
    (fun t ->
      let occ = Steady_state.expected_occupancy c ~init:[ (0, 1.0) ] ~t in
      let q = l /. (l +. m) in
      let s = l +. m in
      let expected = (q *. t) -. (q /. s *. (1.0 -. exp (-.s *. t))) in
      check_close ~eps:1e-7 "downtime" expected occ.(1))
    [ 0.5; 3.0; 20.0 ]

let test_occupancy_absorbing () =
  (* Single jump 0 -> 1 at rate l: expected time in 0 within [0,t] is
     (1 - exp(-l t))/l. *)
  let l = 0.25 in
  let c = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, l) ] in
  let t = 6.0 in
  let occ = Steady_state.expected_occupancy c ~init:[ (0, 1.0) ] ~t in
  check_close ~eps:1e-8 "time in 0" ((1.0 -. exp (-.l *. t)) /. l) occ.(0)

(* qcheck: transient distribution stays a distribution. *)

let prop_distribution_sums_to_one =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = 2 -- 6 in
        let* edges = list_size (1 -- 12) (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 50)) in
        let* t = 0 -- 40 in
        return (n, edges, float_of_int t /. 4.0))
  in
  QCheck.Test.make ~name:"transient distribution sums to 1" ~count:200 gen
    (fun (n, edges, t) ->
      let transitions =
        List.filter_map
          (fun (a, b, r) ->
            if a = b then None else Some (a, b, float_of_int r /. 10.0))
          edges
      in
      let c = Ctmc.make ~n_states:n ~transitions in
      let d = Transient.distribution c ~init:[ (0, 1.0) ] ~t in
      let total = Array.fold_left ( +. ) 0.0 d in
      Float.abs (total -. 1.0) < 1e-8 && Array.for_all (fun x -> x >= -1e-12) d)

let prop_reach_monotone_in_t =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = 2 -- 5 in
        let* edges = list_size (1 -- 8) (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 30)) in
        return (n, edges))
  in
  QCheck.Test.make ~name:"reach probability monotone in horizon" ~count:100 gen
    (fun (n, edges) ->
      let transitions =
        List.filter_map
          (fun (a, b, r) ->
            if a = b then None else Some (a, b, float_of_int r /. 10.0))
          edges
      in
      let c = Ctmc.make ~n_states:n ~transitions in
      let reach t =
        Transient.reach_within c ~init:[ (0, 1.0) ] ~target:(fun s -> s = n - 1) ~t
      in
      let p1 = reach 1.0 and p2 = reach 2.0 and p5 = reach 5.0 in
      p1 <= p2 +. 1e-9 && p2 <= p5 +. 1e-9)

(* The CSR kernels against the retained pre-CSR implementation. *)

let random_chain_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = 2 -- 7 in
      let* edges =
        list_size (1 -- 20) (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 50))
      in
      let* t = 0 -- 40 in
      return (n, edges, float_of_int t /. 4.0))

let transitions_of_edges edges =
  List.filter_map
    (fun (a, b, r) ->
      if a = b then None else Some (a, b, float_of_int r /. 10.0))
    edges

let prop_csr_matches_reference =
  (* One workspace shared across all cases: also exercises buffer growth and
     reuse over chains of different sizes. *)
  let ws = Transient.workspace () in
  QCheck.Test.make ~name:"CSR distribution matches reference impl" ~count:300
    random_chain_gen (fun (n, edges, t) ->
      let transitions = transitions_of_edges edges in
      let c = Ctmc.make ~n_states:n ~transitions in
      let r = Reference.make ~n_states:n ~transitions in
      let init = [ (0, 0.75); (n - 1, 0.25) ] in
      let d_csr = Transient.distribution ~workspace:ws c ~init ~t in
      let d_ref = Reference.distribution r ~init ~t in
      let max_diff = ref 0.0 in
      Array.iteri
        (fun i x ->
          let d = Float.abs (x -. d_ref.(i)) in
          if d > !max_diff then max_diff := d)
        d_csr;
      !max_diff <= 1e-12)

let prop_restrict_absorbing_pure =
  QCheck.Test.make ~name:"restrict_absorbing leaves the parent intact"
    ~count:200 random_chain_gen (fun (n, edges, _) ->
      let transitions = transitions_of_edges edges in
      let c = Ctmc.make ~n_states:n ~transitions in
      let before = Array.init n (Ctmc.outgoing c) in
      let exits_before = Array.init n (Ctmc.exit_rate c) in
      let restricted = Ctmc.restrict_absorbing c (fun s -> s mod 2 = 0) in
      let after = Array.init n (Ctmc.outgoing c) in
      let exits_after = Array.init n (Ctmc.exit_rate c) in
      before = after && exits_before = exits_after
      && Array.for_all
           (fun s ->
             if s mod 2 = 0 then
               Ctmc.outgoing restricted s = [||]
               && Ctmc.exit_rate restricted s = 0.0
             else
               Ctmc.outgoing restricted s = before.(s)
               && Ctmc.exit_rate restricted s = exits_before.(s))
           (Array.init n Fun.id))

(* Plans: one chain structure, many rate vectors. Few states and many
   edges make duplicate (src, dst) pairs common, and the rates span many
   magnitudes so a wrong summation order changes the bits. *)
let plan_gen =
  QCheck.make
    QCheck.Gen.(
      let rate =
        map
          (fun (m, e) -> float_of_int m *. (10.0 ** float_of_int (-e)))
          (pair (1 -- 999) (0 -- 17))
      in
      let* n = 2 -- 5 in
      let* n_rates = 1 -- 8 in
      let* rates_a = array_size (return n_rates) rate in
      let* rates_b = array_size (return n_rates) rate in
      let* edges =
        list_size (0 -- 30)
          (triple (0 -- (n - 1)) (0 -- (n - 1)) (0 -- (n_rates - 1)))
      in
      return
        (n, rates_a, rates_b, List.filter (fun (s, d, _) -> s <> d) edges))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_plan_instantiate =
  QCheck.Test.make ~name:"instantiate (plan) = of_arrays, bit for bit"
    ~count:300 plan_gen (fun (n, rates_a, rates_b, edges) ->
      let edges = Array.of_list edges in
      let srcs = Array.map (fun (s, _, _) -> s) edges
      and dsts = Array.map (fun (_, d, _) -> d) edges
      and refs = Array.map (fun (_, _, r) -> r) edges in
      let p = Ctmc.plan ~n_states:n ~srcs ~dsts ~refs in
      (* Independent oracle: each pair's rate is its contributions summed
         last to first; each exit rate sums the pairs in destination order
         from 0. *)
      let oracle rates src dst =
        let contributions =
          List.filter_map
            (fun (s, d, r) -> if s = src && d = dst then Some rates.(r) else None)
            (Array.to_list edges)
        in
        match List.rev contributions with
        | [] -> 0.0
        | r :: rest -> List.fold_left ( +. ) r rest
      in
      let check rates =
        let c = Ctmc.instantiate p rates in
        let d =
          Ctmc.of_arrays ~n_states:n ~srcs ~dsts
            ~rates:(Array.map (Array.get rates) refs)
        in
        let bits x = Int64.bits_of_float x in
        Ctmc.row_ptr c = Ctmc.row_ptr d
        && Ctmc.row_end c = Ctmc.row_end d
        && Ctmc.cols c = Ctmc.cols d
        && same_bits (Ctmc.rates c) (Ctmc.rates d)
        && same_bits (Ctmc.exit_rates c) (Ctmc.exit_rates d)
        && List.for_all
             (fun i ->
               let exit = ref 0.0 in
               List.for_all
                 (fun j ->
                   let r = oracle rates i j in
                   if r > 0.0 then exit := !exit +. r;
                   Int64.equal (bits (Ctmc.rate c i j)) (bits r))
                 (List.init n Fun.id)
               && Int64.equal (bits (Ctmc.exit_rate c i)) (bits !exit))
             (List.init n Fun.id)
      in
      check rates_a && check rates_b)

let test_merge_order_matches_reference () =
  (* Three parallel edges whose rates do not sum associatively: the merged
     rate must match the historical accumulation order bit-for-bit. *)
  let rates = [ 1.0; 1e-16; 1e-16 ] in
  let transitions = List.map (fun r -> (0, 1, r)) rates @ [ (0, 2, 0.5) ] in
  let c = Ctmc.make ~n_states:3 ~transitions in
  let r = Reference.make ~n_states:3 ~transitions in
  let pi = [| 1.0; 0.0; 0.0 |] in
  let q = Ctmc.max_exit_rate c in
  Alcotest.(check (float 0.0)) "q" (Reference.max_exit_rate r) q;
  let out_c = Array.make 3 0.0 and out_r = Array.make 3 0.0 in
  Transient.dtmc_step c q pi out_c;
  Reference.dtmc_step r q pi out_r;
  Array.iteri
    (fun i x -> Alcotest.(check (float 0.0)) "step mass" x out_c.(i))
    out_r

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ctmc"
    [
      ( "construction",
        [
          Alcotest.test_case "self loop" `Quick test_make_rejects_self_loop;
          Alcotest.test_case "bad rate" `Quick test_make_rejects_bad_rate;
          Alcotest.test_case "out of range" `Quick test_make_rejects_out_of_range;
          Alcotest.test_case "merge parallel" `Quick test_make_merges_parallel;
          Alcotest.test_case "merge order = reference" `Quick
            test_merge_order_matches_reference;
          Alcotest.test_case "exit rates" `Quick test_exit_and_max_rate;
          Alcotest.test_case "absorbing" `Quick test_restrict_absorbing;
          Alcotest.test_case "embedded dtmc" `Quick test_embedded_dtmc;
        ]
        @ qc [ prop_plan_instantiate ] );
      ( "poisson",
        [
          Alcotest.test_case "matches pmf" `Quick test_poisson_matches_pmf;
          Alcotest.test_case "sums to one" `Quick test_poisson_weights_sum_to_one;
          Alcotest.test_case "zero mean" `Quick test_poisson_zero_mean;
          Alcotest.test_case "covers mass" `Quick test_poisson_covers_mass;
          Alcotest.test_case "mode in window" `Quick test_poisson_mode_in_window;
          Alcotest.test_case "rejects negative" `Quick test_poisson_rejects_negative;
        ] );
      ( "transient",
        [
          Alcotest.test_case "exponential" `Quick test_transient_single_exponential;
          Alcotest.test_case "birth-death" `Quick test_transient_birth_death;
          Alcotest.test_case "erlang-2" `Quick test_transient_erlang_2;
          Alcotest.test_case "reach vs occupancy" `Quick test_reach_counts_transient_visits;
          Alcotest.test_case "t = 0" `Quick test_reach_at_time_zero;
          Alcotest.test_case "init validation" `Quick test_transient_substochastic_init_rejected;
          Alcotest.test_case "stiff chain" `Quick test_transient_large_qt;
          Alcotest.test_case "mean absorption (erlang)" `Quick test_expected_time_to_absorption;
          Alcotest.test_case "mean absorption (branching)" `Quick test_expected_time_with_branching;
        ]
        @ qc
            [
              prop_distribution_sums_to_one;
              prop_reach_monotone_in_t;
              prop_csr_matches_reference;
              prop_restrict_absorbing_pure;
            ] );
      ( "steady state",
        [
          Alcotest.test_case "birth-death" `Quick test_steady_state_birth_death;
          Alcotest.test_case "unavailability" `Quick test_steady_state_unavailability;
          Alcotest.test_case "cycle" `Quick test_steady_state_cycle;
          Alcotest.test_case "occupancy total" `Quick test_occupancy_sums_to_horizon;
          Alcotest.test_case "occupancy closed form" `Quick test_occupancy_closed_form;
          Alcotest.test_case "occupancy absorbing" `Quick test_occupancy_absorbing;
        ] );
    ]
