module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Failpoint = Sdft_util.Failpoint
module Obs = Sdft_util.Obs

let g = Metrics.group ()
let m_solves = Metrics.counter g "transient.solves"
let m_steps = Metrics.counter g "transient.uniformization_steps"
let m_window = Metrics.counter g "transient.window_width_total"
let m_steady = Metrics.counter g "transient.steady_state_exits"
let s_solve = Obs.declare_span g "transient.solve"

type options = { epsilon : float }

let default_options = { epsilon = 1e-12 }

(* Scratch vectors reused across solves. The buffers only grow, so after a
   batch of solves they are sized to the largest chain seen; any prefix
   beyond the current chain's states is ignored. One workspace must not be
   shared between domains. *)
type workspace = {
  mutable ws_pi : float array;
  mutable ws_scratch : float array;
  mutable ws_result : float array;
  (* Provenance of the most recent solve through this workspace, for
     callers (per-cutset quantification, the explain view) that report how
     much numerical work a result cost. *)
  mutable ws_steps : int;
  mutable ws_window : int;
}

let workspace () =
  {
    ws_pi = [||];
    ws_scratch = [||];
    ws_result = [||];
    ws_steps = 0;
    ws_window = 0;
  }

let last_steps ws = ws.ws_steps

let ws_reserve ws n =
  if Array.length ws.ws_pi < n then begin
    ws.ws_pi <- Array.make n 0.0;
    ws.ws_scratch <- Array.make n 0.0;
    ws.ws_result <- Array.make n 0.0
  end

let check_init n init =
  let total =
    List.fold_left
      (fun acc (s, m) ->
        if s < 0 || s >= n then
          invalid_arg "Transient: initial state out of range";
        if m < 0.0 || not (Float.is_finite m) then
          invalid_arg "Transient: initial mass must be non-negative";
        acc +. m)
      0.0 init
  in
  if total > 1.0 +. 1e-9 then
    invalid_arg "Transient: initial distribution sums to more than 1"

(* One step of the uniformized DTMC P = I + Q/q: out := pi * P. Flat index
   loop over the CSR arrays; [pi]/[out] may be workspace buffers longer
   than the state count, so the loop bound comes from the chain. *)
let dtmc_step chain q pi out =
  let n = Ctmc.n_states chain in
  let row_ptr = Ctmc.row_ptr chain in
  let row_end = Ctmc.row_end chain in
  let cols = Ctmc.cols chain in
  let rates = Ctmc.rates chain in
  let exits = Ctmc.exit_rates chain in
  Array.fill out 0 n 0.0;
  for src = 0 to n - 1 do
    let mass = Array.unsafe_get pi src in
    if mass > 0.0 then begin
      let exit = Array.unsafe_get exits src in
      Array.unsafe_set out src
        (Array.unsafe_get out src +. (mass *. (1.0 -. (exit /. q))));
      for k = Array.unsafe_get row_ptr src to Array.unsafe_get row_end src - 1 do
        let dst = Array.unsafe_get cols k in
        Array.unsafe_set out dst
          (Array.unsafe_get out dst
          +. (mass *. Array.unsafe_get rates k /. q))
      done
    end
  done

let max_abs_diff n a b =
  let d = ref 0.0 in
  for i = 0 to n - 1 do
    let diff = Float.abs (a.(i) -. b.(i)) in
    if diff > !d then d := diff
  done;
  !d

(* Core solve writing into [ws.ws_result] (first [n] entries); returns
   [false] when no motion happened and the result is just the initial
   distribution in [ws.ws_pi]. *)
let solve_into ~options ~guard ~obs ws chain ~init ~t =
  let sink = obs.Obs.trace in
  let fp = obs.Obs.failpoints in
  let m = obs.Obs.metrics in
  Obs.span obs s_solve (fun () ->
  if t < 0.0 || not (Float.is_finite t) then
    invalid_arg "Transient.distribution: bad horizon";
  let n = Ctmc.n_states chain in
  check_init n init;
  ws_reserve ws n;
  let pi = ws.ws_pi in
  Array.fill pi 0 n 0.0;
  List.iter (fun (s, m) -> pi.(s) <- pi.(s) +. m) init;
  let q = Ctmc.max_exit_rate chain in
  Trace.add_attr ~sink "states" (Trace.Int n);
  if t = 0.0 || q = 0.0 then begin
    ws.ws_steps <- 0;
    ws.ws_window <- 0;
    false
  end
  else begin
    let window = Poisson.weights ~epsilon:options.epsilon (q *. t) in
    Metrics.incr (Metrics.get m m_solves);
    Metrics.add (Metrics.get m m_window)
      (window.Poisson.right - window.Poisson.left + 1);
    let result = ws.ws_result in
    Array.fill result 0 n 0.0;
    let accumulate weight pi =
      if weight > 0.0 then
        for i = 0 to n - 1 do
          result.(i) <- result.(i) +. (weight *. pi.(i))
        done
    in
    let scratch = ws.ws_scratch in
    let weight_of k =
      if k < window.Poisson.left || k > window.Poisson.right then 0.0
      else window.Poisson.weights.(k - window.Poisson.left)
    in
    let k = ref 0 in
    let remaining = ref 1.0 in
    let stationary = ref false in
    while !k <= window.Poisson.right && not !stationary do
      (* One uniformization step costs O(transitions), so an immediate
         (non-amortized) guard probe per step is noise — and amortizing
         over 4k steps would overshoot short deadlines on big chains. *)
      (match guard with
      | Some g -> Sdft_util.Guard.check_now g
      | None -> ());
      Failpoint.hit_in fp "transient.step";
      let w = weight_of !k in
      accumulate w pi;
      remaining := !remaining -. w;
      if !k < window.Poisson.right then begin
        dtmc_step chain q pi scratch;
        if max_abs_diff n pi scratch < options.epsilon /. 8.0 then
          stationary := true
        else Array.blit scratch 0 pi 0 n
      end;
      incr k
    done;
    (* One atomic add per solve, not per step. *)
    Metrics.add (Metrics.get m m_steps) !k;
    if !stationary then Metrics.incr (Metrics.get m m_steady);
    if !stationary && !remaining > 0.0 then accumulate !remaining pi;
    ws.ws_steps <- !k;
    ws.ws_window <- window.Poisson.right - window.Poisson.left + 1;
    Trace.add_attr ~sink "steps" (Trace.Int !k);
    Trace.add_attr ~sink "window" (Trace.Int ws.ws_window);
    if !stationary then Trace.add_attr ~sink "stationary" (Trace.Bool true);
    true
  end)

let distribution ?(options = default_options) ?guard ?workspace:ws
    ?(obs = Obs.default) chain ~init ~t =
  let ws = match ws with Some w -> w | None -> workspace () in
  let n = Ctmc.n_states chain in
  if solve_into ~options ~guard ~obs ws chain ~init ~t then
    Array.sub ws.ws_result 0 n
  else Array.sub ws.ws_pi 0 n

let reach_within ?(options = default_options) ?guard ?workspace:ws
    ?(obs = Obs.default) chain ~init ~target ~t =
  let ws = match ws with Some w -> w | None -> workspace () in
  let absorbed = Ctmc.restrict_absorbing chain target in
  let n = Ctmc.n_states absorbed in
  let dist =
    if solve_into ~options ~guard ~obs ws absorbed ~init ~t then ws.ws_result
    else ws.ws_pi
  in
  let acc = Sdft_util.Kahan.create () in
  for s = 0 to n - 1 do
    if target s then Sdft_util.Kahan.add acc dist.(s)
  done;
  (* Clamp tiny numerical overshoot. *)
  Float.min 1.0 (Sdft_util.Kahan.total acc)

let expected_time_to_absorption chain ~init =
  let n = Ctmc.n_states chain in
  check_init n init;
  let row_ptr = Ctmc.row_ptr chain in
  let row_end = Ctmc.row_end chain in
  let cols = Ctmc.cols chain in
  let rates = Ctmc.rates chain in
  let exits = Ctmc.exit_rates chain in
  (* Solve (for transient states i): E(i) * h(i) = 1 + sum_j R(i,j) h(j),
     i.e. h(i) = (1 + sum_j R(i,j) h(j)) / E(i), by Gauss-Seidel. *)
  let h = Array.make n 0.0 in
  let max_iter = 100_000 and tol = 1e-12 in
  let rec iterate round =
    if round > max_iter then None
    else begin
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        let e = exits.(i) in
        if e > 0.0 then begin
          let acc = ref 1.0 in
          for k = row_ptr.(i) to row_end.(i) - 1 do
            acc := !acc +. (rates.(k) *. h.(cols.(k)))
          done;
          let v = !acc /. e in
          let d = Float.abs (v -. h.(i)) in
          if d > !delta then delta := d;
          h.(i) <- v
        end
      done;
      if !delta < tol then Some ()
      else iterate (round + 1)
    end
  in
  (* Reachability of absorption must be certain for the system to converge;
     detect obviously divergent cases by bounding the iteration count. *)
  match iterate 0 with
  | None -> None
  | Some () ->
    let total =
      List.fold_left (fun acc (s, m) -> acc +. (m *. h.(s))) 0.0 init
    in
    if Float.is_finite total then Some total else None
