(** Transient analysis of CTMCs by uniformization.

    This is the numerical core used to quantify every minimal cutset: the
    probability of reaching a target set within a time horizon, computed as
    the transient mass of the target states after making them absorbing. *)

type options = {
  epsilon : float;
      (** truncation error bound for the Poisson window; the DTMC iteration
          also stops once the vector is stationary to within [epsilon / 8] *)
}

val default_options : options

type workspace
(** Reusable scratch vectors (two iteration vectors that swap roles each
    step, the states to accumulate and their accumulators, and each
    state's probability of staying put) for
    back-to-back solves, and the rate and exit vectors of the chain last
    built by {!instantiate}. A workspace grows to the largest chain it has
    seen and is then reused without further allocation; a solve reads
    nothing an earlier one left in it. Not safe to share across domains:
    give every worker its own. *)

val workspace : unit -> workspace

val instantiate : workspace -> Ctmc.plan -> float array -> Ctmc.t
(** [instantiate ws p rates] is [Ctmc.instantiate p rates], bit for bit,
    with its rate and exit vectors in [ws] ({!Ctmc.instantiate_into}):
    after the first chains of a size it allocates nothing proportional to
    the chain. The chain is valid until the next [instantiate] through
    [ws], which overwrites it; solving it through [ws] is fine, since the
    solver's vectors are separate. *)

val last_steps : workspace -> int
(** Number of uniformized DTMC steps performed by the most recent solve
    through this workspace (0 when the chain had no motion). Provenance for
    per-cutset reporting. *)

val dtmc_step : Ctmc.t -> float -> float array -> float array -> unit
(** [dtmc_step chain q pi out] performs one step of the uniformized DTMC
    [P = I + Q/q]: [out := pi * P]. [pi] and [out] must have at least
    [n_states] entries (only that prefix is read and written), and every
    state is visited. Exposed for the kernel benchmarks; analysis code
    should use {!distribution} or {!reach_within}, whose steps visit only
    the states reached. *)

val distribution :
  ?options:options ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:workspace ->
  ?obs:Sdft_util.Obs.t ->
  Ctmc.t ->
  init:(int * float) list ->
  t:float ->
  float array
(** [distribution chain ~init ~t] is the state distribution at time [t]
    starting from the (sub)distribution [init] (pairs [(state, mass)]; masses
    must be non-negative and sum to at most 1). The returned array is always
    freshly allocated; [workspace] only removes the internal scratch
    allocations.

    [guard], when given, is probed (non-amortized) before every
    uniformization step and raises {!Sdft_util.Guard.Limit_hit} on a trip;
    the [transient.step] failpoint site of [obs] (default
    {!Sdft_util.Obs.default}) fires at the same place, and solve metrics
    and trace spans go to the same context.

    @raise Invalid_argument on a negative horizon or an invalid initial
    distribution. *)

val reach_within :
  ?options:options ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:workspace ->
  ?obs:Sdft_util.Obs.t ->
  Ctmc.t ->
  init:(int * float) list ->
  target:(int -> bool) ->
  t:float ->
  float
(** [reach_within chain ~init ~target ~t] is
    [Pr(exists t' <= t. X(t') in target)]: target states are made absorbing
    and their transient mass at [t] is summed. [target] is called once per
    state.

    The solve accumulates only the target states, absorbs them inside the
    iteration (no absorbing copy of the chain is built) and bounds
    every pass by the prefix of states that can hold mass so far: the
    initial states and what the steps since have reached, tracked by the
    largest state id. Chains numbered breadth-first from their initial
    states (every {!Sdft_product} chain) keep the prefix to the reachable
    set; any numbering gives the same result, bit for bit, as passes over
    all states, and as {!distribution} summed over the targets of the
    absorbed chain. With [workspace] the solve performs no per-call
    allocation.

    Options, guard, failpoint and metrics as in {!distribution}. *)
