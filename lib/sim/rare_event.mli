(** Rare-event simulation of SD fault trees: forcing + failure biasing
    importance sampling over the exact product semantics.

    The analytic pipeline quantifies top events whose probability sits
    around 1e-7..1e-12 — far beyond what crude Monte-Carlo ({!Simulator})
    can observe in any feasible number of trials. This engine changes the
    sampling measure so that failures become common, and corrects each
    trial by its likelihood ratio, giving an {e unbiased} estimator of the
    exact Section III-C probability together with a confidence interval: an
    independent statistical oracle for the MOCUS + product-CTMC pipeline
    (cf. Porotsky, {e Rare-Event Estimation for Dynamic Fault Trees}).

    Two variance-reduction devices, both weight-corrected:

    - {e forcing}: each inter-jump time of the exponential race is sampled
      from the exponential conditioned on landing before the horizon
      (inverse transform of the truncated CDF), multiplying the weight by
      the conditioning probability [1 - exp(-rate * remaining)]. Removed
      trajectories are jump-free to the horizon and therefore cannot fail a
      not-yet-failed top — unbiasedness is preserved. A cap on forced jumps
      ([max_forced_jumps]) restores plain sampling on very long
      trajectories so repairable models terminate.
    - {e failure biasing}: static events with probability [p] are flipped
      with the boosted probability [min (cap, bias * p)] instead, weighting
      the failure branch by [p/p'] and the survival branch by
      [(1-p)/(1-p')].

    Trials run in batches over {!Sdft_util.Parallel.map_init}, each worker
    domain on its own {!Sdft_product.semantics}; every batch owns a
    pre-split {!Sdft_util.Rng} stream and batch results are merged in index
    order with compensated sums, so the estimate is bit-identical for a
    given seed {e regardless of the domain count}. *)

type options = {
  trials : int;  (** maximum number of trials (default 100_000) *)
  batch : int;  (** trials per RNG stream / work item (default 4096) *)
  check_batches : int;
      (** batches between evaluations of the stopping rule — fixed by the
          options, never by the domain count, so early stopping is
          deterministic (default 8) *)
  domains : int;  (** worker domains (default 1) *)
  seed : int;
  target_rel_error : float option;
      (** stop once [std_error/estimate] falls below this (default [None]:
          always run all trials) *)
  forcing : bool;  (** condition inter-jump times on the horizon *)
  max_forced_jumps : int;
      (** forced jumps per trial before reverting to plain sampling
          (default 32) *)
  static_bias : float;
      (** multiplicative boost of static failure probabilities;
          [<= 1.0] disables biasing (default 50.0) *)
  static_bias_cap : float;
      (** ceiling of the boosted probabilities, in (0, 1) (default 0.5) *)
}

val default_options : options

val crude : options -> options
(** The same batched parallel estimator with the measure change switched
    off (no forcing, no biasing) — crude Monte-Carlo with all weights 1,
    for baselines and differential tests. *)

type estimate = {
  estimate : float;  (** weighted failure-probability estimate *)
  variance : float;  (** sample variance of the per-trial contributions *)
  std_error : float;
  rel_error : float;  (** [std_error / estimate]; [infinity] at 0 *)
  trials : int;  (** trials actually run (early stopping may cut this) *)
  hits : int;  (** trials that reached top failure *)
  mean_weight : float;
      (** average likelihood ratio over {e all} trials. Under failure
          biasing alone this has expectation 1 (a calibration check);
          forcing pushes it below 1 by the mass of the discarded
          cannot-fail trajectories. *)
}

val run :
  ?options:options -> ?obs:Sdft_util.Obs.t -> Sdft.t -> horizon:float ->
  estimate
(** Estimate the probability that the top gate fails within the horizon.
    Deterministic per seed, independent of [domains]. Publishes the
    [sim.trials], [sim.hits], [sim.jumps] and [sim.forced_jumps] counters,
    the [sim.run] span, and the per-hit likelihood-weight distribution on
    the [sim.trial_weight] histogram of [obs] (default
    {!Sdft_util.Obs.default}) — instrumentation never perturbs the
    estimate.

    @raise Invalid_argument on non-positive [trials] or [batch], or a cap
    outside (0, 1). *)

val z95 : float

val z99 : float

val confidence : ?z:float -> estimate -> float * float
(** Normal-approximation interval [estimate +- z * std_error] clamped to
    [[0, 1]]; defaults to [z95]. The weighted estimator is a mean of iid
    bounded contributions, so the normal approximation is sound at the
    trial counts involved (the binomial special case with weights 1 should
    use {!Simulator.wilson_interval} instead when hits are very few). *)

val variance_reduction : estimate -> float option
(** Trial-for-trial variance ratio vs crude Monte-Carlo of the same
    probability: [p(1-p) / variance]. [None] when degenerate (no hits). *)
