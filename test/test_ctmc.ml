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

(* Re-rating a chain into reused buffers is the solve pass's per-cutset
   step: checking each rate must not box it. *)
let test_instantiate_into_allocates_nothing () =
  let n = 10_001 in
  let srcs = Array.init (n - 1) Fun.id in
  let p =
    Ctmc.plan ~n_states:n ~srcs ~dsts:(Array.map succ srcs) ~refs:srcs
  in
  let in_rates = Array.init (n - 1) (fun k -> 1.0 +. float_of_int k) in
  let rates = Array.create_float (Ctmc.plan_entries p)
  and exit = Array.create_float n in
  ignore (Ctmc.instantiate_into p in_rates ~rates ~exit);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ctmc.instantiate_into p in_rates ~rates ~exit));
  let words = Gc.minor_words () -. before in
  if words >= 1000.0 then
    Alcotest.failf "instantiate_into of %d entries allocated %.0f minor words"
      (Ctmc.plan_entries p) words

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
      (* The same transitions handed over row by row, in input order
         within each row. *)
      let p_rows =
        let by_src =
          List.stable_sort
            (fun (a, _, _) (b, _, _) -> compare a b)
            (Array.to_list edges)
        in
        let row_ptr = Array.make (n + 1) 0 in
        List.iter (fun (s, _, _) -> row_ptr.(s + 1) <- row_ptr.(s + 1) + 1) by_src;
        for i = 0 to n - 1 do
          row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
        done;
        Ctmc.plan_rows ~row_ptr
          ~cols:(Array.of_list (List.map (fun (_, d, _) -> d) by_src))
          ~refs:(Array.of_list (List.map (fun (_, _, r) -> r) by_src))
      in
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
        (* Instances over longer, dirty buffers hold the same prefix. *)
        let into =
          Ctmc.instantiate_into p_rows rates
            ~rates:(Array.make (Ctmc.plan_entries p_rows + 3) Float.nan)
            ~exit:(Array.make (n + 2) Float.nan)
        in
        let prefix a len = Array.sub a 0 len in
        let same_chain x =
          Ctmc.row_ptr x = Ctmc.row_ptr d
          && Ctmc.cols x = Ctmc.cols d
          && same_bits
               (prefix (Ctmc.rates x) (Ctmc.n_transitions d))
               (Ctmc.rates d)
          && same_bits (prefix (Ctmc.exit_rates x) n) (Ctmc.exit_rates d)
          && Int64.equal
               (bits (Ctmc.max_exit_rate x))
               (bits (Ctmc.max_exit_rate d))
        in
        same_chain c && same_chain into
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

(* The uniformization loop as it stood before the bounded kernel, kept as
   the oracle the kernel must match bit for bit: every pass runs over all
   states of the chain, every state is accumulated, and the step's result
   is copied back. The [absorbing] states lose their transitions and exit
   rate: the chain's absorbing copy, built here rather than by the kernel
   under test. *)
let oracle_solve ~epsilon ?(absorbing = fun _ -> false) chain ~init ~t =
  let n = Ctmc.n_states chain in
  let pi = Array.make n 0.0 in
  List.iter (fun (s, m) -> pi.(s) <- pi.(s) +. m) init;
  let row_ptr = Ctmc.row_ptr chain in
  let row_end =
    Array.init n (fun s -> if absorbing s then row_ptr.(s) else row_ptr.(s + 1))
  in
  let exits =
    Array.init n (fun s -> if absorbing s then 0.0 else Ctmc.exit_rate chain s)
  in
  let q = Array.fold_left max 0.0 exits in
  if t = 0.0 || q = 0.0 then (pi, 0)
  else begin
    let window = Poisson.weights ~epsilon (q *. t) in
    let result = Array.make n 0.0 and scratch = Array.make n 0.0 in
    let accumulate weight pi =
      if weight > 0.0 then
        for i = 0 to n - 1 do
          result.(i) <- result.(i) +. (weight *. pi.(i))
        done
    in
    let weight_of k =
      if k < window.Poisson.left || k > window.Poisson.right then 0.0
      else window.Poisson.weights.(k - window.Poisson.left)
    in
    let cols = Ctmc.cols chain and rates = Ctmc.rates chain in
    let step () =
      Array.fill scratch 0 n 0.0;
      for src = 0 to n - 1 do
        let mass = pi.(src) in
        if mass > 0.0 then begin
          scratch.(src) <- scratch.(src) +. (mass *. (1.0 -. (exits.(src) /. q)));
          for k = row_ptr.(src) to row_end.(src) - 1 do
            scratch.(cols.(k)) <- scratch.(cols.(k)) +. (mass *. rates.(k) /. q)
          done
        end
      done
    in
    let k = ref 0 and remaining = ref 1.0 and stationary = ref false in
    while !k <= window.Poisson.right && not !stationary do
      let w = weight_of !k in
      accumulate w pi;
      remaining := !remaining -. w;
      if !k < window.Poisson.right then begin
        step ();
        let d = ref 0.0 in
        for i = 0 to n - 1 do
          let diff = Float.abs (pi.(i) -. scratch.(i)) in
          if diff > !d then d := diff
        done;
        if !d < epsilon /. 8.0 then stationary := true
        else Array.blit scratch 0 pi 0 n
      end;
      incr k
    done;
    if !stationary && !remaining > 0.0 then accumulate !remaining pi;
    (result, !k)
  end

let oracle_reach_within ~epsilon chain ~init ~target ~t =
  let dist, steps = oracle_solve ~epsilon ~absorbing:target chain ~init ~t in
  let acc = Sdft_util.Kahan.create () in
  Array.iteri (fun s p -> if target s then Sdft_util.Kahan.add acc p) dist;
  (Float.min 1.0 (Sdft_util.Kahan.total acc), steps)

(* Random chains in one of two numberings: breadth-first from the initial
   states, as product chains are numbered (the bounded passes then skip
   the unreached suffix), or a random shuffle (the bound grows with the
   largest id reached). Rates span four magnitudes, targets and the
   initial support are random, and the horizons run from zero to long
   enough for the iteration to stop on stationarity. *)
let random_kernel_case =
  QCheck.Gen.(
    let* n = 1 -- 24 in
    let* edges =
      list_size (0 -- (3 * n))
        (triple (0 -- (n - 1)) (0 -- (n - 1))
           (map
              (fun (m, e) -> float_of_int m *. (10.0 ** float_of_int (-e)))
              (pair (1 -- 99) (0 -- 3))))
    in
    let* support = list_size (1 -- 3) (pair (0 -- (n - 1)) (1 -- 100)) in
    let* scale = oneofl [ 1.0; 0.5 ] in
    let* targets = array_size (return n) (map (fun x -> x < 2) (0 -- 9)) in
    let* breadth_first = bool in
    let* shuffle = map Array.of_list (shuffle_l (List.init n Fun.id)) in
    let* t = oneofl [ 0.0; 0.3; 2.0; 25.0; 400.0 ] in
    let edges = List.filter (fun (a, b, _) -> a <> b) edges in
    let total = List.fold_left (fun acc (_, w) -> acc + w) 0 support in
    let init =
      List.map
        (fun (s, w) -> (s, scale *. float_of_int w /. float_of_int total))
        support
    in
    (* [perm.(s)] is the new number of state [s]. *)
    let perm =
      if not breadth_first then shuffle
      else begin
        let perm = Array.make n (-1) and next = ref 0 in
        let queue = Queue.create () in
        let visit s =
          if perm.(s) < 0 then begin
            perm.(s) <- !next;
            incr next;
            Queue.add s queue
          end
        in
        List.iter (fun (s, _) -> visit s) init;
        while not (Queue.is_empty queue) do
          let s = Queue.pop queue in
          List.iter (fun (a, b, _) -> if a = s then visit b) edges
        done;
        for s = 0 to n - 1 do
          if perm.(s) < 0 then visit s
        done;
        perm
      end
    in
    let renamed = Array.make n false in
    Array.iteri (fun s b -> renamed.(perm.(s)) <- b) targets;
    return
      ( n,
        List.map (fun (a, b, r) -> (perm.(a), perm.(b), r)) edges,
        List.map (fun (s, m) -> (perm.(s), m)) init,
        renamed,
        t ))

(* A drip, numbered breadth-first: state 0 holds a stationary mass; [k]
   feeders [1 .. k] each hold [f] < ε/8 and drain at the uniformization
   rate into state [k + 1], which holds [k * f] >= ε/8 and drains at that
   rate into state [k + 2], first reached by the first step; that state
   may drain further into [k + 3]. After the first step every state
   reached before it has moved by at most [f], while state [k + 2] has
   gained [k * f]: the iteration is not stationary yet, and a
   stationarity test that skipped the newly reached states would stop
   there. Feeders and their sink are never targets, so they keep their
   transitions in [reach_within] too. *)
let drip_kernel_case =
  QCheck.Gen.(
    let eps8 = Transient.default_options.Transient.epsilon /. 8.0 in
    let* k = 2 -- 4 in
    let* rate = oneofl [ 0.5; 1.0; 30.0 ] in
    let* spread = map (fun u -> float_of_int u /. 10.0) (1 -- 9) in
    let* stationary_mass = map (fun w -> float_of_int w /. 100.0) (1 -- 50) in
    let* onward = oneofl [ None; Some 0.5; Some 1.0 ] in
    let* target_bits = array_size (return 3) bool in
    let* t = oneofl [ 2.0; 25.0; 400.0 ] in
    let f = eps8 *. (1.0 +. (float_of_int (k - 1) *. spread)) /. float_of_int k in
    let sink = k + 1 and reached = k + 2 in
    let n = if onward = None then k + 3 else k + 4 in
    let edges =
      List.init k (fun j -> (j + 1, sink, rate))
      @ [ (sink, reached, rate) ]
      @
      match onward with
      | None -> []
      | Some frac -> [ (reached, reached + 1, rate *. frac) ]
    in
    let init =
      ((0, stationary_mass) :: List.init k (fun j -> (j + 1, f)))
      @ [ (sink, float_of_int k *. f) ]
    in
    let targets = Array.make n false in
    List.iteri
      (fun j s -> if s < n then targets.(s) <- target_bits.(j))
      [ 0; reached; reached + 1 ];
    return (n, edges, init, targets, t))

let kernel_case_gen =
  QCheck.make
    ~print:(fun (n, transitions, init, targets, t) ->
      Printf.sprintf "n=%d t=%g init=[%s] targets=[%s] transitions=[%s]" n t
        (String.concat "; "
           (List.map (fun (s, m) -> Printf.sprintf "%d:%h" s m) init))
        (String.concat "; "
           (List.filter_map
              (fun s -> if targets.(s) then Some (string_of_int s) else None)
              (List.init n Fun.id)))
        (String.concat "; "
           (List.map
              (fun (a, b, r) -> Printf.sprintf "%d->%d@%h" a b r)
              transitions)))
    QCheck.Gen.(frequency [ (3, random_kernel_case); (1, drip_kernel_case) ])

let prop_kernel_matches_oracle =
  (* One workspace for every case and both entry points, so each solve
     starts over buffers a larger chain left dirty. *)
  let ws = Transient.workspace () in
  let epsilon = Transient.default_options.Transient.epsilon in
  QCheck.Test.make ~name:"bounded kernel = full-width loop, bit for bit"
    ~count:400 kernel_case_gen (fun (n, transitions, init, targets, t) ->
      let chain = Ctmc.make ~n_states:n ~transitions in
      let target s = targets.(s) in
      let bits x = Int64.bits_of_float x in
      let reach = Transient.reach_within ~workspace:ws chain ~init ~target ~t in
      let reach_steps = Transient.last_steps ws in
      let oracle_reach, oracle_reach_steps =
        oracle_reach_within ~epsilon chain ~init ~target ~t
      in
      let dist = Transient.distribution ~workspace:ws chain ~init ~t in
      let dist_steps = Transient.last_steps ws in
      let oracle_dist, oracle_dist_steps = oracle_solve ~epsilon chain ~init ~t in
      Int64.equal (bits reach) (bits oracle_reach)
      && reach_steps = oracle_reach_steps
      && same_bits dist oracle_dist
      && dist_steps = oracle_dist_steps)

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
          Alcotest.test_case "instantiate_into allocates nothing" `Quick
            test_instantiate_into_allocates_nothing;
          Alcotest.test_case "out of range" `Quick test_make_rejects_out_of_range;
          Alcotest.test_case "merge parallel" `Quick test_make_merges_parallel;
          Alcotest.test_case "merge order = reference" `Quick
            test_merge_order_matches_reference;
          Alcotest.test_case "exit rates" `Quick test_exit_and_max_rate;
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
        ]
        @ qc
            [
              prop_distribution_sums_to_one;
              prop_reach_monotone_in_t;
              prop_csr_matches_reference;
              prop_kernel_matches_oracle;
            ] );
      ( "steady state",
        [
          Alcotest.test_case "birth-death" `Quick test_steady_state_birth_death;
          Alcotest.test_case "unavailability" `Quick test_steady_state_unavailability;
          Alcotest.test_case "cycle" `Quick test_steady_state_cycle;
        ] );
    ]
