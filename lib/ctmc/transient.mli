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
(** Reusable scratch vectors ([pi]/[scratch]/[result]) for back-to-back
    solves. A workspace grows to the largest chain it has seen and is then
    reused without further allocation. Not safe to share across domains:
    give every worker its own. *)

val workspace : unit -> workspace

val last_steps : workspace -> int
(** Number of uniformized DTMC steps performed by the most recent solve
    through this workspace (0 when the chain had no motion). Provenance for
    per-cutset reporting. *)

val last_window : workspace -> int
(** Width of the Poisson window of the most recent solve through this
    workspace (0 when the chain had no motion). The per-call truncation
    error of that window is bounded by [options.epsilon]. *)

val dtmc_step : Ctmc.t -> float -> float array -> float array -> unit
(** [dtmc_step chain q pi out] performs one step of the uniformized DTMC
    [P = I + Q/q]: [out := pi * P]. [pi] and [out] must have at least
    [n_states] entries (only that prefix is read and written). Exposed for
    the kernel benchmarks; analysis code should use {!distribution} or
    {!reach_within}. *)

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
    and their transient mass at [t] is summed. With [workspace] the solve
    performs no per-call vector allocation. *)

val expected_time_to_absorption :
  Ctmc.t -> init:(int * float) list -> float option
(** Mean time to reach the absorbing states, by solving the linear system on
    the transient states with Gauss–Seidel; [None] if some initial mass can
    never be absorbed (or the iteration does not converge). Used by tests and
    by model exploration tooling. *)
