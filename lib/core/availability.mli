(** Long-run (steady-state) unavailability of repairable SD fault trees.

    The paper's analysis computes mission {e unreliability} — the probability
    of failing at least once within a horizon. For repairable systems the
    complementary standard metric is the long-run {e unavailability}: the
    fraction of time the top gate spends failed. Over a minimal-cutset list
    this is approximated, exactly as in classical PSA practice, by the
    rare-event sum of the products of per-event steady-state
    unavailabilities. *)

val event_unavailability : Dbe.t -> float option
(** Long-run probability that the event is failed, computed on the part of
    its chain reachable from the switched-on initial distribution (for
    triggered events this is the "permanently demanded" worst case). [None]
    when that sub-chain is not irreducible — e.g. an unrepairable event,
    whose long-run unavailability is not meaningful. *)

type result = {
  unavailability : float;  (** rare-event approximation *)
  per_event : (int * float) list;  (** event index, steady-state q *)
  n_cutsets : int;
  phase1 : Sdft_analysis.phase1;  (** how the cutsets were generated *)
}

val analyze :
  ?options:Sdft_analysis.options -> ?obs:Sdft_util.Obs.t -> Sdft.t ->
  result option
(** The cutsets of {!Sdft_analysis.phase1} under [options] (default
    {!Sdft_analysis.default_options}, so the engine is [Auto]), quantified
    with steady-state unavailabilities: static events keep their
    probability (interpreted as an unavailability per demand), dynamic
    events use {!event_unavailability}. [None] if some dynamic event has no
    steady state (not repairable). *)
