(** Sampling over the product process of Section III-C.

    The Monte-Carlo engines ({!Simulator}, {!Rare_event}) run their trials
    on {!Sdft_product.semantics}: its components (one per basic event, each
    reading its event's CSR chain) and its trigger update closure
    ({!Sdft_product.sem_close}) are the ones the analytic side explores,
    so both sides sample and solve the same process. This module adds only
    the random draws; neither engine ever builds the product state space.
    A semantics carries scratch space, so each worker domain builds its
    own. *)

val sample_categorical : Sdft_util.Rng.t -> float array -> int
(** Index into a weight vector summing to 1 (the last entry absorbs any
    rounding slack). Draws exactly one uniform. *)

val sample_initial : Sdft_product.semantics -> Sdft_util.Rng.t -> int array
(** Draw an (unclosed) initial local state per component, one uniform per
    component. Call {!Sdft_product.sem_close} before evaluating gates. *)

val total_rate : Sdft_product.semantics -> int array -> float
(** Total rate of all enabled transitions — the exponential race rate of
    the next jump. [0.] when the state is final. *)

val apply_jump :
  Sdft_product.semantics -> Sdft_util.Rng.t -> int array -> total:float ->
  bool
(** Pick the jumping transition proportionally to its rate (one uniform),
    apply it and the trigger closure. [false] on the numerical corner where
    rounding picked no transition; the state is then unchanged. *)
