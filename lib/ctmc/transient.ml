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
  mutable ws_acc : float array; (* one entry per accumulated state *)
  mutable ws_targets : int array; (* the accumulated states, ascending *)
  mutable ws_stay : float array; (* per state, 1 - exit / q *)
  (* The rate and exit vectors of the chain last instantiated here. *)
  mutable ws_rates : float array;
  mutable ws_exit : float array;
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
    ws_acc = [||];
    ws_targets = [||];
    ws_stay = [||];
    ws_rates = [||];
    ws_exit = [||];
    ws_steps = 0;
    ws_window = 0;
  }

let last_steps ws = ws.ws_steps

let ws_reserve ws n =
  if Array.length ws.ws_pi < n then begin
    ws.ws_pi <- Array.create_float n;
    ws.ws_scratch <- Array.create_float n;
    ws.ws_acc <- Array.create_float n;
    ws.ws_targets <- Array.make n 0;
    ws.ws_stay <- Array.create_float n
  end

(* Grown apart from the solver's vectors: [ws_reserve] runs on a chain
   whose rates may live here. *)
let instantiate ws plan rates =
  let entries = Ctmc.plan_entries plan and n = Ctmc.plan_states plan in
  if Array.length ws.ws_rates < entries then
    ws.ws_rates <- Array.create_float entries;
  if Array.length ws.ws_exit < n then ws.ws_exit <- Array.create_float n;
  Ctmc.instantiate_into plan rates ~rates:ws.ws_rates ~exit:ws.ws_exit

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
      for k = Array.unsafe_get row_ptr src
          to Array.unsafe_get row_ptr (src + 1) - 1 do
        let dst = Array.unsafe_get cols k in
        Array.unsafe_set out dst
          (Array.unsafe_get out dst
          +. (mass *. Array.unsafe_get rates k /. q))
      done
    end
  done

(* Core solve: accumulates the transient mass of the states
   [ws.ws_targets.(0 .. n_targets - 1)] (ascending) into
   [ws.ws_acc.(0 .. n_targets - 1)].

   Only a prefix of the states can hold mass: [hi] bounds the states [pi]
   is valid on (its mass lies below [hi]), and [reach] bounds where one
   step from them can go, extended row by row as [hi] grows, so each row
   is scanned once per solve. Every pass — the fill of the next vector,
   the step, the stationarity test and the accumulation — stops at the
   bound. Product chains number their states breadth-first from the
   initial ones, so the bound tracks the reachable set; any numbering is
   correct, only slower. Beyond the bound both vectors are zero, so every
   value computed below it is the one a full pass computes, bit for bit:
   the step's sums run in the same source order, and the maximum of the
   stationarity test only ever skips zero differences. The two vectors
   swap roles each step instead of being copied. *)
let solve_into ~options ~guard ~obs ws chain ~init ~t ~n_targets ~absorb =
  let sink = obs.Obs.trace in
  let fp = obs.Obs.failpoints in
  let m = obs.Obs.metrics in
  Obs.span obs s_solve (fun () ->
  if t < 0.0 || not (Float.is_finite t) then
    invalid_arg "Transient.distribution: bad horizon";
  let n = Ctmc.n_states chain in
  check_init n init;
  let targets = ws.ws_targets and acc = ws.ws_acc in
  let cur = ref ws.ws_pi and next = ref ws.ws_scratch in
  let hi = ref (List.fold_left (fun h (s, _) -> max h (s + 1)) 0 init) in
  Array.fill !cur 0 !hi 0.0;
  List.iter (fun (s, m) -> !cur.(s) <- !cur.(s) +. m) init;
  Array.fill acc 0 n_targets 0.0;
  let exits = Ctmc.exit_rates chain in
  (* With [absorb], the accumulated states are absorbing: rows without
     transitions and exit rate zero. Sweeps over ascending states find
     them with a cursor: [absorbing j] is the [j]-th, or [n] past the
     last. *)
  let absorbing j = if absorb && j < n_targets then targets.(j) else n in
  let q =
    let q = ref 0.0 and j = ref 0 in
    for s = 0 to n - 1 do
      if s = absorbing !j then incr j else q := Float.max !q exits.(s)
    done;
    !q
  in
  Trace.add_attr ~sink "states" (Trace.Int n);
  if t = 0.0 || q = 0.0 then begin
    let pi = !cur and j = ref 0 in
    while !j < n_targets && targets.(!j) < !hi do
      acc.(!j) <- pi.(targets.(!j));
      incr j
    done;
    ws.ws_steps <- 0;
    ws.ws_window <- 0
  end
  else begin
    let window = Poisson.weights ~epsilon:options.epsilon (q *. t) in
    Metrics.incr (Metrics.get m m_solves);
    Metrics.add (Metrics.get m m_window)
      (window.Poisson.right - window.Poisson.left + 1);
    (* Into the accumulator of every accumulated state below [hi]. *)
    let accumulate weight =
      if weight > 0.0 then begin
        let pi = !cur and j = ref 0 in
        while !j < n_targets && targets.(!j) < !hi do
          acc.(!j) <- acc.(!j) +. (weight *. pi.(targets.(!j)));
          incr j
        done
      end
    in
    let weight_of k =
      if k < window.Poisson.left || k > window.Poisson.right then 0.0
      else window.Poisson.weights.(k - window.Poisson.left)
    in
    let row_ptr = Ctmc.row_ptr chain in
    let cols = Ctmc.cols chain in
    let rates = Ctmc.rates chain in
    (* The probability of staying put, divided out once per solve. *)
    let stay = ws.ws_stay in
    for s = 0 to n - 1 do
      stay.(s) <- 1.0 -. (exits.(s) /. q)
    done;
    let scanned = ref 0 and scanned_j = ref 0 and reach = ref !hi in
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
      accumulate w;
      remaining := !remaining -. w;
      if !k < window.Poisson.right then begin
        for src = !scanned to !hi - 1 do
          if src = absorbing !scanned_j then incr scanned_j
          else
            for e = row_ptr.(src) to row_ptr.(src + 1) - 1 do
              if cols.(e) >= !reach then reach := cols.(e) + 1
            done
        done;
        scanned := !hi;
        let h = !hi and r = !reach in
        let pi = !cur and out = !next in
        Array.fill pi h (r - h) 0.0;
        Array.fill out 0 r 0.0;
        let j = ref 0 in
        let next_absorbing = ref (absorbing 0) in
        for src = 0 to h - 1 do
          let mass = Array.unsafe_get pi src in
          if src = !next_absorbing then begin
            incr j;
            next_absorbing := absorbing !j;
            (* [mass *. (1.0 -. (0.0 /. q))] is [mass]. *)
            Array.unsafe_set out src (Array.unsafe_get out src +. mass)
          end
          else if mass > 0.0 then begin
            Array.unsafe_set out src
              (Array.unsafe_get out src +. (mass *. Array.unsafe_get stay src));
            for e = Array.unsafe_get row_ptr src
                to Array.unsafe_get row_ptr (src + 1) - 1 do
              let dst = Array.unsafe_get cols e in
              Array.unsafe_set out dst
                (Array.unsafe_get out dst
                +. (mass *. Array.unsafe_get rates e /. q))
            done
          end
        done;
        let d = ref 0.0 in
        for i = 0 to r - 1 do
          let diff =
            Float.abs (Array.unsafe_get pi i -. Array.unsafe_get out i)
          in
          if diff > !d then d := diff
        done;
        hi := r;
        if !d < options.epsilon /. 8.0 then stationary := true
        else begin
          cur := out;
          next := pi
        end
      end;
      incr k
    done;
    (* One atomic add per solve, not per step. *)
    Metrics.add (Metrics.get m m_steps) !k;
    if !stationary then Metrics.incr (Metrics.get m m_steady);
    if !stationary && !remaining > 0.0 then accumulate !remaining;
    ws.ws_steps <- !k;
    ws.ws_window <- window.Poisson.right - window.Poisson.left + 1;
    Trace.add_attr ~sink "steps" (Trace.Int !k);
    Trace.add_attr ~sink "window" (Trace.Int ws.ws_window);
    if !stationary then Trace.add_attr ~sink "stationary" (Trace.Bool true)
  end)

let distribution ?(options = default_options) ?guard ?workspace:ws
    ?(obs = Obs.default) chain ~init ~t =
  let ws = match ws with Some w -> w | None -> workspace () in
  let n = Ctmc.n_states chain in
  ws_reserve ws n;
  for s = 0 to n - 1 do
    ws.ws_targets.(s) <- s
  done;
  solve_into ~options ~guard ~obs ws chain ~init ~t ~n_targets:n ~absorb:false;
  Array.sub ws.ws_acc 0 n

(* Only the target states are accumulated; the Kahan sum still visits all
   of them in state order, unreached ones as zeros, as a sum over the full
   distribution does. *)
let reach_within ?(options = default_options) ?guard ?workspace:ws
    ?(obs = Obs.default) chain ~init ~target ~t =
  let ws = match ws with Some w -> w | None -> workspace () in
  let n = Ctmc.n_states chain in
  ws_reserve ws n;
  let n_targets = ref 0 in
  for s = 0 to n - 1 do
    if target s then begin
      ws.ws_targets.(!n_targets) <- s;
      incr n_targets
    end
  done;
  solve_into ~options ~guard ~obs ws chain ~init ~t ~n_targets:!n_targets
    ~absorb:true;
  let acc = Sdft_util.Kahan.create () in
  for j = 0 to !n_targets - 1 do
    Sdft_util.Kahan.add acc ws.ws_acc.(j)
  done;
  (* Clamp tiny numerical overshoot. *)
  Float.min 1.0 (Sdft_util.Kahan.total acc)
