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
  mutable fp_digest : string option;
      (** memoized MD5 digest (32 hex characters) of the binary canonical
          fingerprint of [model] ({!Quant_cache.fingerprint}), filled in by
          the first {!Quant_cache} lookup so repeated lookups (sweeps,
          shared caches) skip the O(sub-model) encoding. Written at most once per value, by the domain
          quantifying this cutset; [None] until then and for model-less
          cutsets. *)
}

type context
(** Caches shared across cutsets of one analysis run: trigger-gate
    classifications and the BDD-computed minimal trigger sets keyed by
    (gate, relevant set, assumed statics). Industrial cutset lists hit the
    same few trigger gates thousands of times. *)

val context : Sdft.t -> context

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
    analysis and multiplies by [static_multiplier]. [workspace] lets
    back-to-back quantifications reuse the solver's scratch vectors; do not
    share one workspace across domains. [guard] is threaded into the product
    exploration and the transient solve; on a trip
    {!Sdft_util.Guard.Limit_hit} propagates (the analysis layer catches it
    and falls back to the static worst-case bound). *)

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
