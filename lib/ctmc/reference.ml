(* The pre-CSR chain representation and uniformization loop, retained
   verbatim as a differential-testing oracle and as the baseline the kernel
   benchmarks measure speedups against. Not used by any analysis path. *)

type t = {
  n : int;
  rows : (int * float) array array;
  exit : float array;
}

let make ~n_states ~transitions =
  if n_states <= 0 then invalid_arg "Reference.make: need at least one state";
  let buckets = Array.make n_states [] in
  List.iter
    (fun (src, dst, rate) ->
      if src < 0 || src >= n_states || dst < 0 || dst >= n_states then
        invalid_arg "Reference.make: state out of range";
      if src = dst then invalid_arg "Reference.make: self-loop";
      if rate <= 0.0 || not (Float.is_finite rate) then
        invalid_arg "Reference.make: rate must be positive and finite";
      buckets.(src) <- (dst, rate) :: buckets.(src))
    transitions;
  let merge_row lst =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (dst, rate) ->
        let prev = try Hashtbl.find tbl dst with Not_found -> 0.0 in
        Hashtbl.replace tbl dst (prev +. rate))
      lst;
    let row = Hashtbl.fold (fun dst rate acc -> (dst, rate) :: acc) tbl [] in
    let row = Array.of_list row in
    Array.sort (fun (a, _) (b, _) -> compare a b) row;
    row
  in
  let rows = Array.map merge_row buckets in
  let exit =
    Array.map (Array.fold_left (fun acc (_, r) -> acc +. r) 0.0) rows
  in
  { n = n_states; rows; exit }

let of_ctmc chain =
  {
    n = Ctmc.n_states chain;
    rows = Array.init (Ctmc.n_states chain) (Ctmc.outgoing chain);
    exit = Array.init (Ctmc.n_states chain) (Ctmc.exit_rate chain);
  }

let n_states c = c.n

let max_exit_rate c = Array.fold_left max 0.0 c.exit

let restrict_absorbing c is_absorbing =
  let rows =
    Array.mapi (fun i row -> if is_absorbing i then [||] else row) c.rows
  in
  let exit =
    Array.map (Array.fold_left (fun acc (_, r) -> acc +. r) 0.0) rows
  in
  { n = c.n; rows; exit }

(* One step of the uniformized DTMC P = I + Q/q: out := pi * P. *)
let dtmc_step chain q pi out =
  let n = Array.length pi in
  Array.fill out 0 n 0.0;
  for src = 0 to n - 1 do
    let mass = pi.(src) in
    if mass > 0.0 then begin
      let exit = chain.exit.(src) in
      out.(src) <- out.(src) +. (mass *. (1.0 -. (exit /. q)));
      let row = chain.rows.(src) in
      Array.iter
        (fun (dst, r) -> out.(dst) <- out.(dst) +. (mass *. r /. q))
        row
    end
  done

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let diff = Float.abs (x -. b.(i)) in
      if diff > !d then d := diff)
    a;
  !d

let check_init n init =
  let total =
    List.fold_left
      (fun acc (s, m) ->
        if s < 0 || s >= n then
          invalid_arg "Reference: initial state out of range";
        if m < 0.0 || not (Float.is_finite m) then
          invalid_arg "Reference: initial mass must be non-negative";
        acc +. m)
      0.0 init
  in
  if total > 1.0 +. 1e-9 then
    invalid_arg "Reference: initial distribution sums to more than 1"

let distribution ?(options = Transient.default_options) chain ~init ~t =
  if t < 0.0 || not (Float.is_finite t) then
    invalid_arg "Reference.distribution: bad horizon";
  let n = chain.n in
  check_init n init;
  let pi0 = Array.make n 0.0 in
  List.iter (fun (s, m) -> pi0.(s) <- pi0.(s) +. m) init;
  let q = max_exit_rate chain in
  if t = 0.0 || q = 0.0 then pi0
  else begin
    let window = Poisson.weights ~epsilon:options.Transient.epsilon (q *. t) in
    let result = Array.make n 0.0 in
    let accumulate weight pi =
      if weight > 0.0 then
        for i = 0 to n - 1 do
          result.(i) <- result.(i) +. (weight *. pi.(i))
        done
    in
    let pi = Array.copy pi0 in
    let scratch = Array.make n 0.0 in
    let weight_of k =
      if k < window.Poisson.left || k > window.Poisson.right then 0.0
      else window.Poisson.weights.(k - window.Poisson.left)
    in
    let k = ref 0 in
    let remaining = ref 1.0 in
    let stationary = ref false in
    while !k <= window.Poisson.right && not !stationary do
      let w = weight_of !k in
      accumulate w pi;
      remaining := !remaining -. w;
      if !k < window.Poisson.right then begin
        dtmc_step chain q pi scratch;
        if max_abs_diff pi scratch < options.Transient.epsilon /. 8.0 then
          stationary := true
        else Array.blit scratch 0 pi 0 n
      end;
      incr k
    done;
    if !stationary && !remaining > 0.0 then accumulate !remaining pi;
    result
  end

let reach_within ?(options = Transient.default_options) chain ~init ~target ~t =
  let absorbed = restrict_absorbing chain target in
  let dist = distribution ~options absorbed ~init ~t in
  let acc = Sdft_util.Kahan.create () in
  Array.iteri (fun s m -> if target s then Sdft_util.Kahan.add acc m) dist;
  Float.min 1.0 (Sdft_util.Kahan.total acc)
