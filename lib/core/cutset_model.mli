(** Quantification model [FT_C] of a minimal cutset (Section V-C).

    For a cutset [C] the time-aware probability
    [p~(C) = Pr(reach Failed(C) within t)] is computed on a small SD fault
    tree [FT_C] containing only the basic events relevant to [C]:

    + its top gate is an AND over the dynamic events of [C];
    + the static events of [C] are factored out as a plain probability
      product (they are conditioned to be failed, which also fixes them to
      true inside all triggering logic);
    + for every triggered event the timing of its trigger is reconstructed
      from a {e relevant set} [Rel_a] whose extent depends on the class of
      the triggering gate: with static branching only dynamic events of [C]
      below the gate matter, with static joins all dynamic events below the
      gate, and in the general case every basic event below the gate except
      the static ones of [C]. The minimal ways [A_1..A_k] in which the
      relevant events (together with the assumed-failed statics) fail the
      trigger gate are computed exactly by BDD/minimal-solutions and
      rebuilt as an OR-of-ANDs triggering the event;
    + events pulled in by step 3 that are themselves triggered are modeled
      with the general rule.

    Degenerate triggers are handled explicitly: a trigger gate already
    failed by the assumed statics becomes a constant-true trigger (the event
    is switched on from time zero); a trigger gate that can never fail makes
    a cutset event unreachable, so [p~(C) = 0]. *)

type t = {
  model : Sdft.t option;
      (** the SD fault tree [FT_C]; [None] when no product analysis is
          needed (purely static cutset or identically-zero probability) *)
  static_multiplier : float;
      (** product of the probabilities of the static events of [C] *)
  impossible : bool;  (** [p~(C) = 0] (some cutset event can never fail) *)
  n_dynamic_in_cutset : int;
  n_added_dynamic : int;
      (** dynamic events added because triggering gates lack static
          branching (the paper reports this average) *)
  n_added_static : int;
}

type context
(** Caches shared across the cutsets of one analysis: trigger-gate
    classifications and the BDD-computed minimal trigger sets keyed by
    (gate, relevant set, assumed statics). Industrial cutset lists hit the
    same few trigger gates thousands of times. Its tables depend on the
    model alone, never on a horizon, so one context serves every analysis
    of a model. Safe to share across domains: lookups and stores take the
    context's lock, and a classification or compilation runs outside it.
    [Sdft_analysis]'s plan fills the context on the calling domain and its
    parallel pass builds through a {!read_only} view of it. *)

val context : Sdft.t -> context

val read_only : context -> context
(** A view of the same caches that reads them and writes nothing: a miss
    computes its answer (classifying, compiling) without storing it, so
    any number of domains may build through the view while nothing else
    writes the context. Builds through it equal builds through the
    context itself. *)

type rel_rule =
  | Paper
      (** Section V-C's relevant sets: [Dyn ∩ C] under static branching,
          [Dyn] under static joins, everything except statics-of-C in the
          general case. Efficient, but trigger paths through events outside
          the reduced set are ignored, so [p~(C)] can slightly
          under-approximate [Pr(Reach(Failed C))] when a trigger gate can
          also be failed by events the rule drops. *)
  | All_events
      (** Use the general rule for every trigger gate: exact per-cutset
          quantification at the cost of larger product chains. *)

val build :
  ?context:context ->
  ?rel_rule:rel_rule ->
  ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t ->
  Sdft.t ->
  Cutset.t ->
  t
(** Without an explicit [context] a fresh one is used (no sharing).
    [rel_rule] defaults to [Paper]. [guard] is checkpointed inside the
    trigger-set BDD compilations — the one part of model construction that
    can blow up on adversarial trigger gates; on a trip
    {!Sdft_util.Guard.Limit_hit} propagates before the context memo is
    touched (the analysis layer catches it and falls back). *)

type quantification = {
  probability : float;  (** [p~(C)] *)
  product_states : int;  (** size of the Markov chain analysed (0 = none) *)
  product_transitions : int;  (** transitions of that chain (0 = none) *)
  solver_steps : int;
      (** uniformized DTMC steps the transient solve performed *)
  solver_error : float;
      (** upper bound on the numerical error of [probability] contributed by
          the transient solve: the uniformization epsilon scaled by the
          static multiplier; [0.] when no chain was solved. Feeds the
          analysis error budget. *)
  from_cache : bool;
      (** the value was served by a {!Quant_cache} hit (provenance fields
          then describe the originally solved chain) *)
  seconds : float;
}

val quantify :
  ?epsilon:float ->
  ?max_states:int ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:Transient.workspace ->
  ?obs:Sdft_util.Obs.t ->
  t ->
  horizon:float ->
  quantification
(** Builds the product chain of [model] (when present), runs the transient
    analysis and multiplies by [static_multiplier]. [epsilon] defaults to
    [1e-12]. [workspace] lets
    back-to-back quantifications reuse the solver's scratch vectors; do not
    share one workspace across domains. [guard] is threaded into the product
    exploration and the transient solve; on a trip
    {!Sdft_util.Guard.Limit_hit} propagates (the analysis layer catches it
    and falls back to the static worst-case bound). *)

type solution = {
  e_prob : float;  (** unreliability of [model], before the multiplier *)
  e_states : int;
  e_transitions : int;
  e_steps : int;
}
(** What one product-chain solve of [model] yields: the part of a
    {!quantification} that does not depend on the static events of the
    cutset, and hence what {!Quant_cache} stores. *)

val solve :
  ?epsilon:float ->
  ?max_states:int ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:Transient.workspace ->
  ?obs:Sdft_util.Obs.t ->
  Sdft.t ->
  horizon:float ->
  solution
(** The one place an [FT_C] is solved: build the product chain of a
    cutset's [model] ({!Sdft_product.build}) and solve it by
    uniformization. The chain is built into [workspace] (a fresh one when
    none is given) and does not outlive the call, so back-to-back solves
    through one workspace allocate nothing proportional to their chains.
    Options as in {!quantify}; [Sdft_product.Too_many_states] and
    {!Sdft_util.Guard.Limit_hit} propagate. *)

val of_solution :
  epsilon:float ->
  static_multiplier:float ->
  from_cache:bool ->
  seconds:float ->
  solution ->
  quantification
(** A cutset's quantification from a solution of its [model], found in a
    cache or freshly solved: the probability and the solver error scale by
    the cutset's [static_multiplier]. {!quantify} is {!solve} followed by
    this. *)

val no_solve : probability:float -> Sdft_util.Timer.t -> quantification
(** The quantification of a cutset with no product chain to solve — a
    static cutset ([probability] its static multiplier) or an impossible
    one (0) — timed from the given start. *)

(** {1 Result serialization}

    The per-cutset payload of a saved analysis manifest ([analyze --save] /
    [analyze --diff]). Floats are emitted with 17 significant digits, which
    round-trips every finite double bit-exactly. *)

val quantification_to_json : quantification -> string
(** One JSON object: [probability], [states], [transitions], [steps],
    [solver_error]. The volatile fields ([seconds], [from_cache]) are
    deliberately not serialized. *)

val quantification_of_json :
  Sdft_util.Json.value -> (quantification, string) result
(** Inverse of {!quantification_to_json} on its parsed output. The decoded
    record has [from_cache = true] (the value came from an earlier run) and
    [seconds = 0.]. *)
