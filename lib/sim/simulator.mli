(** Crude discrete-event Monte-Carlo simulation of the full SD fault tree
    semantics.

    Simulates the product process of Section III-C directly — static events
    sampled at time zero, dynamic events racing exponential transitions,
    trigger updates applied instantaneously after every jump — without ever
    building the product state space. The process is
    {!Sdft_product.semantics}, the one the exact baseline explores; the
    draws are {!Sim_world}'s. Used as a statistical baseline to validate
    the analytic pipeline on models with failure probabilities large
    enough to observe; for genuinely rare top events use the
    importance-sampling engine {!Rare_event}, which samples the same
    semantics. *)

type stats = {
  trials : int;
  failures : int;
  estimate : float;  (** failure fraction *)
  std_error : float;  (** binomial standard error *)
}

val unreliability :
  ?seed:int -> Sdft.t -> horizon:float -> trials:int -> stats
(** [unreliability sd ~horizon ~trials] — probability that the top gate
    fails within the horizon, estimated over independent trials. The
    default seed is 42; results are deterministic per seed. *)

val wilson_interval : ?z:float -> stats -> float * float
(** Wilson score interval at critical value [z] (default 1.96, i.e. 95%).
    Remains informative in the degenerate cases: with 0 observed failures
    the upper bound is [z^2 / (n + z^2)] rather than 0, and symmetrically
    with all trials failing. *)

val confidence_95 : stats -> float * float
(** [wilson_interval] at 95%. *)
