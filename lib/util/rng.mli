(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component of the library (model generators, the
    Monte-Carlo simulator) draws from an explicit [Rng.t] so that all
    experiments are reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] initialises a generator from an integer seed. *)

val split : t -> t
(** Derive an independent stream (for parallel or nested generators). *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent streams, advancing [t] by [n]
    draws. The streams depend only on [t]'s state and the index, so work
    partitioned over the array is reproducible no matter how many workers
    later consume it (each worker owns whole streams, never shares one). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [[0, n-1]]; requires [n > 0]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t rate] samples [Exp(rate)]; requires [rate > 0]. *)

val truncated_exponential : t -> float -> bound:float -> float
(** [truncated_exponential t rate ~bound] samples [Exp(rate)] conditioned on
    being smaller than [bound] (inverse-transform on the truncated CDF) —
    the {e forcing} primitive of rare-event simulation. The conditioning
    probability is [1 - exp(-rate *. bound)]; requires [rate > 0] and
    [bound > 0]. *)

val normal : t -> float
(** Standard normal via Box-Muller. *)

val lognormal : t -> median:float -> error_factor:float -> float
(** PSA-style lognormal: [median * exp(sigma * Z)] with
    [sigma = ln(error_factor) / 1.645] (the error factor is the ratio of the
    95th percentile to the median). Requires [median > 0] and
    [error_factor >= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
