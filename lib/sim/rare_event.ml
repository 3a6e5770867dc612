module Rng = Sdft_util.Rng
module Kahan = Sdft_util.Kahan
module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Parallel = Sdft_util.Parallel

type options = {
  trials : int;
  batch : int;
  check_batches : int;
  domains : int;
  seed : int;
  target_rel_error : float option;
  forcing : bool;
  max_forced_jumps : int;
  static_bias : float;
  static_bias_cap : float;
}

let default_options =
  {
    trials = 100_000;
    batch = 4096;
    check_batches = 8;
    domains = 1;
    seed = 42;
    target_rel_error = None;
    forcing = true;
    max_forced_jumps = 32;
    static_bias = 50.0;
    static_bias_cap = 0.5;
  }

let crude options = { options with forcing = false; static_bias = 1.0 }

type estimate = {
  estimate : float;
  variance : float;
  std_error : float;
  rel_error : float;
  trials : int;
  hits : int;
  mean_weight : float;
}

let g = Metrics.group ()
let m_trials = Metrics.counter g "sim.trials"
let m_hits = Metrics.counter g "sim.hits"
let m_jumps = Metrics.counter g "sim.jumps"
let m_forced = Metrics.counter g "sim.forced_jumps"
let s_run = Sdft_util.Obs.declare_span g "sim.run"
let m_weight = Metrics.histogram g "sim.trial_weight"

(* Per-batch accumulators: plain floats summed with Kahan inside the batch;
   batches are merged in index order so the final totals are bit-identical
   no matter how many domains executed them. *)
type batch_result = {
  b_hits : int;
  b_sum : float; (* sum of weighted failure indicators *)
  b_sum2 : float; (* sum of their squares, for the variance *)
  b_weight : float; (* sum of likelihood weights over all trials *)
  b_jumps : int;
  b_forced : int;
}

(* One importance-sampling trial. Returns [(failed, weight)] where [weight]
   is the likelihood ratio dP/dQ of the sampled trajectory.

   Measure change Q:
   - static events with 0 < p < p' are flipped with the biased probability
     p' = min(cap, bias * p) instead of p (weight factor p/p' on the failure
     branch, (1-p)/(1-p') on the survival branch);
   - while fewer than [max_forced_jumps] jumps have fired, each inter-jump
     time of the exponential race (total rate L, remaining time r) is
     conditioned to land before the horizon — sampled from the truncated
     exponential, weight factor 1 - exp(-L r). This only removes
     trajectories whose remaining trace is jump-free before the horizon,
     and those cannot fail the (not yet failed) top, so the estimator stays
     unbiased; after the cap, times are drawn from the plain exponential
     again, restoring full support for long trajectories. *)
let run_trial sd sem rng ~horizon ~opts ~jumps ~forced =
  let tree = Sdft.tree sd in
  let components = Sdft_product.sem_components sem in
  let n = Array.length components in
  let log_w = ref 0.0 in
  let state = Array.make n 0 in
  let bias = opts.static_bias in
  Array.iteri
    (fun b (c : Sdft_product.component) ->
      if bias > 1.0 && not (Sdft.is_dynamic sd b) then begin
        let p = Fault_tree.prob tree b in
        let p' = Float.min opts.static_bias_cap (bias *. p) in
        if p' > p then begin
          if Rng.float rng < p' then begin
            state.(b) <- 1;
            log_w := !log_w +. log (p /. p')
          end
          else begin
            state.(b) <- 0;
            log_w := !log_w +. log ((1.0 -. p) /. (1.0 -. p'))
          end
        end
        else
          state.(b) <- c.init_states.(Sim_world.sample_categorical rng c.init_weights)
      end
      else
        state.(b) <- c.init_states.(Sim_world.sample_categorical rng c.init_weights))
    components;
  Sdft_product.sem_close sem state;
  let rec step now n_forced =
    if Sdft_product.sem_fails_top sem state then (true, exp !log_w)
    else begin
      let total = Sim_world.total_rate sem state in
      let remaining = horizon -. now in
      if total <= 0.0 || remaining <= 0.0 then (false, exp !log_w)
      else if opts.forcing && n_forced < opts.max_forced_jumps then begin
        let c = -.expm1 (-.total *. remaining) in
        if c <= 0.0 then (false, exp !log_w)
        else begin
          let dt = Rng.truncated_exponential rng total ~bound:remaining in
          log_w := !log_w +. log c;
          incr forced;
          incr jumps;
          if Sim_world.apply_jump sem rng state ~total then
            step (now +. dt) (n_forced + 1)
          else (false, exp !log_w)
        end
      end
      else begin
        let dt = Rng.exponential rng total in
        let now = now +. dt in
        if now > horizon then (false, exp !log_w)
        else begin
          incr jumps;
          if Sim_world.apply_jump sem rng state ~total then step now n_forced
          else (false, exp !log_w)
        end
      end
    end
  in
  step 0.0 0

let run_batch sd sem rng ~horizon ~opts ~m ~size =
  let hits = ref 0 in
  let sum = Kahan.create () in
  let sum2 = Kahan.create () in
  let weight = Kahan.create () in
  let jumps = ref 0 in
  let forced = ref 0 in
  for _ = 1 to size do
    let failed, w = run_trial sd sem rng ~horizon ~opts ~jumps ~forced in
    Kahan.add weight w;
    if failed then begin
      incr hits;
      (* Likelihood-weight spread of the hitting trials: a heavy upper tail
         here is the classic symptom of an over-aggressive measure change. *)
      Metrics.observe (Metrics.get m m_weight) w;
      Kahan.add sum w;
      Kahan.add sum2 (w *. w)
    end
  done;
  {
    b_hits = !hits;
    b_sum = Kahan.total sum;
    b_sum2 = Kahan.total sum2;
    b_weight = Kahan.total weight;
    b_jumps = !jumps;
    b_forced = !forced;
  }

let estimate_of ~trials ~hits ~sum ~sum2 ~weight =
  let n = float_of_int trials in
  let est = sum /. n in
  let variance =
    if trials <= 1 then 0.0
    else Float.max 0.0 ((sum2 -. (n *. est *. est)) /. (n -. 1.0))
  in
  let std_error = sqrt (variance /. n) in
  let rel_error = if est > 0.0 then std_error /. est else infinity in
  {
    estimate = est;
    variance;
    std_error;
    rel_error;
    trials;
    hits;
    mean_weight = weight /. n;
  }

let run ?(options = default_options) ?(obs = Sdft_util.Obs.default) sd
    ~horizon =
  if options.trials <= 0 then
    invalid_arg "Rare_event: need at least one trial";
  if options.batch <= 0 then invalid_arg "Rare_event: batch must be positive";
  if options.static_bias_cap <= 0.0 || options.static_bias_cap >= 1.0 then
    invalid_arg "Rare_event: static_bias_cap must lie in (0, 1)";
  let m = obs.Sdft_util.Obs.metrics in
  let sink = obs.Sdft_util.Obs.trace in
  Sdft_util.Obs.span obs
    ~attrs:[ ("trials", Trace.Int options.trials); ("seed", Trace.Int options.seed) ]
    s_run
  @@ fun () ->
  let n_batches = (options.trials + options.batch - 1) / options.batch in
  (* Streams are pre-split sequentially from the seed, one per batch, and
     batches are merged in index order below — so the estimate is
     bit-identical for any [domains]. *)
  let rngs = Rng.split_n (Rng.create options.seed) n_batches in
  let sizes =
    Array.init n_batches (fun i ->
        if i = n_batches - 1 then
          options.trials - (options.batch * (n_batches - 1))
        else options.batch)
  in
  let sum = Kahan.create () in
  let sum2 = Kahan.create () in
  let weight = Kahan.create () in
  let hits = ref 0 in
  let trials_done = ref 0 in
  let jumps = ref 0 in
  let forced = ref 0 in
  (* The stopping rule is evaluated every [check_batches] batches — a wave
     size fixed by the options, never by the domain count, so early
     stopping is deterministic too. *)
  let stride = max 1 options.check_batches in
  let next = ref 0 in
  let stop = ref false in
  while (not !stop) && !next < n_batches do
    let hi = min n_batches (!next + stride) in
    let work = Array.init (hi - !next) (fun k -> !next + k) in
    let results =
      Parallel.map_init ~domains:options.domains
        (fun () -> Sdft_product.semantics sd)
        (fun sem i ->
          run_batch sd sem rngs.(i) ~horizon ~opts:options ~m ~size:sizes.(i))
        work
    in
    Array.iteri
      (fun k b ->
        hits := !hits + b.b_hits;
        Kahan.add sum b.b_sum;
        Kahan.add sum2 b.b_sum2;
        Kahan.add weight b.b_weight;
        trials_done := !trials_done + sizes.(work.(k));
        jumps := !jumps + b.b_jumps;
        forced := !forced + b.b_forced)
      results;
    next := hi;
    match options.target_rel_error with
    | Some target ->
      let e =
        estimate_of ~trials:!trials_done ~hits:!hits ~sum:(Kahan.total sum)
          ~sum2:(Kahan.total sum2) ~weight:(Kahan.total weight)
      in
      if e.rel_error <= target then stop := true
    | None -> ()
  done;
  Metrics.add (Metrics.get m m_trials) !trials_done;
  Metrics.add (Metrics.get m m_hits) !hits;
  Metrics.add (Metrics.get m m_jumps) !jumps;
  Metrics.add (Metrics.get m m_forced) !forced;
  Trace.add_attr ~sink "hits" (Trace.Int !hits);
  estimate_of ~trials:!trials_done ~hits:!hits ~sum:(Kahan.total sum)
    ~sum2:(Kahan.total sum2) ~weight:(Kahan.total weight)

let z95 = 1.959963984540054

let z99 = 2.5758293035489004

let confidence ?(z = z95) e =
  let half = z *. e.std_error in
  (Float.max 0.0 (e.estimate -. half), Float.min 1.0 (e.estimate +. half))

let variance_reduction e =
  (* Trial-for-trial variance ratio against crude Monte-Carlo estimating
     the same probability: p(1-p) per crude trial vs the measured
     per-trial variance of the weighted estimator. *)
  if e.variance > 0.0 && e.estimate > 0.0 then
    Some (e.estimate *. (1.0 -. e.estimate) /. e.variance)
  else None
