(** The two-phase analysis of SD fault trees (Section V).

    Phase 1 translates the SD fault tree into a static one with identical
    minimal cutsets and generates all minimal cutsets above the cutoff (the
    translation's worst-case probabilities make this cutoff conservative).
    The translated tree is plain static logic, so any sound generator
    serves: the modular ZDD engine by default, MOCUS when a module is too
    wide to compile or when asked for. Phase 2 quantifies each cutset: a
    purely static cutset contributes its probability product; a cutset with
    dynamic events gets a small model [FT_C] whose product CTMC is solved by
    transient analysis.
    The rare-event approximation sums all contributions above the cutoff.

    The per-cutset statistics collected here (number of dynamic events in
    each cutset, number of events added by triggering logic, Markov-chain
    sizes, per-cutset solve times) are exactly the quantities reported in
    the paper's Figures 2 and 3 and its summary tables. *)

type engine =
  | Mocus_sound
      (** MOCUS with the paper's basics-only cutoff — never loses a cutset
          above the cutoff *)
  | Zdd_engine
      (** the modular ZDD cutset engine ({!Zdd_engine.run}): per independent
          module, compile to a BDD, extract the minimal-solutions ZDD and
          quantify by recursive weighted counting without materializing the
          cutset list. The mass dropped by the cutoff and order bounds is
          accounted {e exactly} (total weighted count minus emitted mass),
          so the certified interval stays non-vacuous: when nothing else degrades its width is bounded by
          the summed solver epsilons plus the (exact) residual. *)
  | Auto
      (** pick per model by one rule (see {!resolve_engine}): a module too
          wide for BDD compilation falls back to [Mocus_sound]; everything
          else, triggered or not, gets [Zdd_engine] *)

type options = {
  horizon : float;  (** analysis horizon [t], e.g. 24 hours *)
  cutoff : float;  (** the cutoff [c*] (paper: 1e-15) *)
  transient_epsilon : float;
  max_product_states : int;
  max_cutset_order : int option;
  engine : engine;
  domains : int;
      (** worker domains for Phase 2's solve pass (see {!sweep}) — the
          paper's closing remark notes this phase is trivially parallel.
          The default is the machine's [Domain.recommended_domain_count
          ()]; [1] keeps everything on the calling domain. The result,
          every per-cutset record, the cache's lookups, hits and misses
          and the trigger gates classified are the same at any count; a
          count [d] explores at most [d] times as many shapes as one
          domain. *)
  rel_rule : Cutset_model.rel_rule;
      (** [Paper] (default) uses the class-reduced relevant sets of Section
          V-C; [All_events] quantifies every cutset with the exact general
          rule. *)
  deadline : float option;
      (** wall-clock budget in seconds for the whole analysis (generation
          plus quantification). When it expires the analysis {e degrades}
          instead of aborting: MOCUS folds its unexplored branch mass into
          the pruned mass, and every not-yet-quantified cutset falls back to
          its conservative worst-case product (see {!cutset_info.degraded}).
          In a {!sweep} each point's budget starts with its own Phase 1 and
          runs until the shared solve pass has answered its last cutset.
          [None] (default): no deadline. *)
  mem_limit_mb : int option;
      (** ceiling on the major-heap size in megabytes, probed at the same
          cooperative checkpoints; degrades identically. [None]: no
          ceiling. *)
}

val default_options : options
(** horizon 24.0, cutoff 1e-15, epsilon 1e-12, one million product states,
    no order bound, [Auto], [Domain.recommended_domain_count ()] domains, no
    deadline or memory ceiling. *)

val engines : (string * engine) list
(** Every engine with its spelling on the CLI and the wire: ["mocus"],
    ["zdd"], ["auto"]. The one place engine names are defined. *)

val engine_name : engine -> string
(** The spelling of an engine in {!engines}. *)

val resolve_engine : engine -> Fault_tree.t -> engine
(** Resolve [Auto] against a (translated) static tree; concrete engines
    return themselves. [Auto] has one rule: it falls back to [Mocus_sound]
    when some independent module's effective width (basic events +
    nested-module pseudo-variables, with atleast gates weighted in) exceeds
    an internal bound beyond which BDD compilation risks dwarfing MOCUS's
    anytime behaviour; otherwise it picks [Zdd_engine]. The trigger
    conjunctions of a translated tree are ordinary static gates here. *)

val resource_guard : ?obs:Sdft_util.Obs.t -> options -> Sdft_util.Guard.t
(** The one place a guard is built: [options.deadline] and
    [options.mem_limit_mb] plus the probe hook of [obs], so a live progress
    reporter keeps a passive guard for its heartbeat. *)

type phase1 = {
  translation : Sdft_translate.result;
  engine_used : engine;  (** [options.engine], resolved *)
  generation : Mocus.result;
  generation_seconds : float;  (** translation plus generation *)
}

val phase1 :
  ?guard:Sdft_util.Guard.t -> ?obs:Sdft_util.Obs.t -> options -> Sdft.t ->
  phase1
(** Phase 1 (Section V-B), the front door of every cutset consumer: translate
    at [options.horizon], resolve [options.engine] against the translated
    tree and {!generate_cutsets} under [options.cutoff] and
    [options.max_cutset_order]. [guard] defaults to {!resource_guard}. *)

type cutset_info = {
  cutset : Cutset.t;
  probability : float;  (** [p~(C)] — time-aware when dynamic *)
  n_dynamic : int;  (** dynamic events in the cutset itself *)
  n_added_dynamic : int;  (** extra dynamic events in [FT_C] *)
  product_states : int;  (** 0 for purely static cutsets *)
  product_transitions : int;  (** transitions of the product chain *)
  solver_steps : int;  (** uniformized DTMC steps of the transient solve *)
  solver_error : float;
      (** upper bound on this cutset's numerical error (see
          {!Cutset_model.quantification}); for fallback cutsets, the
          cardinality times the transient epsilon *)
  from_cache : bool;  (** served by a {!Quant_cache} hit *)
  solve_seconds : float;
  used_fallback : bool;
      (** the cutset was quantified with its (conservative) worst-case
          static product instead of an exact product-chain solve *)
  degraded : Sdft_util.Guard.reason option;
      (** why the fallback was taken: [State_limit] when the product chain
          exceeded [max_product_states], [Deadline]/[Mem_limit] when a
          resource guard tripped, [Worker_crash] when the quantification of
          this cutset raised and was contained. [None] for an exact solve.
          Always set when [used_fallback]. *)
}

type error_budget = {
  pruned_mass : float;
      (** mass discarded during generation. For [Mocus_sound]: an upper
          bound on the union probability of all cutsets refined from
          branches pruned by the cutoff. For [Zdd_engine]: the {e exact}
          rare-event mass of the minimal cutsets dropped by the cutoff and
          order bounds (total weighted count minus emitted mass). *)
  below_cutoff_mass : float;
      (** mass of quantified cutsets excluded from [total] by the relevance
          filter [p~(C) > cutoff] *)
  solver_error_total : float;
      (** summed per-cutset numerical error bounds (uniformization epsilon
          scaled by static multipliers; fallbacks contribute cardinality
          times epsilon) *)
  rare_event_slack : float;
      (** [total - lower]: how much of the interval width stems from the
          rare-event over-approximation rather than from discarded mass *)
  lower : float;
      (** certified lower bound: the largest individually quantified
          non-fallback cutset probability minus its solver error (any single
          cutset failing implies top failure) *)
  upper : float;
      (** certified upper bound:
          [total + pruned_mass + below_cutoff_mass + solver_error_total];
          may exceed 1 when the rare-event sum does. When [vacuous], the
          budget cannot account for all discarded mass and [upper] degrades
          to [max 1 total]. *)
  vacuous : bool;
      (** the interval is trivial: a resource limit interrupted the ZDD
          engine's compilation. Both engines account for what their cutoff
          and order bounds drop, so nothing else makes an interval
          vacuous. *)
}

type degradation = {
  generation_limit : Sdft_util.Guard.reason option;
      (** cutset generation was stopped early by a resource limit. For the
          MOCUS the unexplored branch mass was folded into
          [budget.pruned_mass], so the certified interval stays sound {e
          and} informative; for the ZDD engine nothing can be salvaged and
          the budget is vacuous. *)
  degraded_cutsets : (Sdft_util.Guard.reason * int) list;
      (** how many cutsets fell back to the worst-case bound, per reason
          (reasons with zero count are omitted; fixed reason order) *)
}

type result = {
  total : float;
      (** rare-event approximation: sum of [p~(C)] over cutsets above the
          cutoff *)
  cutoff : float;
      (** the cutoff the analysis ran with — the filter behind [total],
          reused by the importance functions so numerator and denominator
          agree *)
  engine_used : engine;
      (** the concrete engine generation ran with ([Auto] resolved against
          the translated tree — see {!resolve_engine}) *)
  cutsets : cutset_info list;  (** sorted by decreasing probability *)
  n_cutsets : int;
  n_dynamic_cutsets : int;  (** cutsets needing Markov analysis *)
  n_fallbacks : int;
      (** cutsets whose chains exceeded the state bound (conservatively
          quantified; consider [All_events -> Paper] or a larger
          [max_product_states] when nonzero) *)
  budget : error_budget;
      (** certified interval [lower, upper] around [total] with its itemized
          error terms *)
  degradation : degradation;
      (** what graceful degradation, if any, shaped this result *)
  mcs_generation_seconds : float;
  quantification_seconds : float;
  generation : Mocus.result;
      (** cutset-generation statistics (synthesised for the ZDD engine) *)
  translation : Sdft_translate.result;
}

(** {1 Prepared models}

    Phase 1's compiled structure and Phase 2's [FT_C]s depend on the
    model's structure alone: a translation at another horizon changes only
    probabilities, and no [FT_C] depends on the horizon. A prepared model
    holds that work for one model, filled on first use, so the points of a
    sweep, and the requests of a server on one model, share it. *)

type prepared
(** One model's horizon-independent work: the model, with its lazy
    descendant caches forced so any domain may read it; its
    {!Cutset_model.context}; a plan memo per rel-rule, mapping a cutset to
    its [FT_C]'s digest, static multiplier, dynamic counts and (from its
    first cache miss) its product shape — no [FT_C] is kept; the ZDD
    engine's compiled structure of the translated tree
    ({!Zdd_engine.compile}); and [Auto]'s engine choice for it. Each part
    is computed outside the model's lock and stored under it only once its
    computation completes, so a guard trip or an injected fault stores
    nothing, and answers are bit-identical whichever analysis filled a
    part. Safe to share across domains and concurrent analyses. *)

val prepare : Sdft.t -> prepared
(** An empty prepared model of [sd]. Cheap: it forces the descendant
    caches and fills the rest on first use. *)

val analyze :
  ?options:options -> ?cache:Quant_cache.t -> ?obs:Sdft_util.Obs.t ->
  ?prepared:prepared -> Sdft.t -> result
(** One point of {!sweep}: Phase 1, then Phase 2's plan, solve pass and
    budget, for [options]. [prepared], a prepared model of [sd] that
    other analyses of it share, must wrap [sd] (physical equality;
    @raise Invalid_argument otherwise); without it the call prepares its
    own, as {!sweep} does. The result is the same with or without it.
    [cache], when given, routes per-cutset
    quantification through a {!Quant_cache.t} so that isomorphic cutset
    sub-models — within this call or across calls sharing the cache — are
    solved once. Results are bit-identical to the uncached path for models
    with equal fingerprints.

    With [options.deadline] or [options.mem_limit_mb] set, one
    {!Sdft_util.Guard} is shared by both phases and the analysis never
    raises on a limit: it returns a (possibly) degraded result whose
    [degradation] field records what was cut short. Totals and upper bounds
    remain sound because every degraded cutset is replaced by an upper
    bound on its probability; the certified lower bound never anchors on a
    degraded cutset.

    [obs] (default {!Sdft_util.Obs.default}) receives every counter, span,
    histogram, trace event and failpoint hit, and drives an attached
    {!Sdft_util.Progress} reporter through both phases (a cost-weighted ETA
    over the quantification). Instrumentation never changes the numbers.

    On return, normal or by exception, the calling domain's product
    template slot is empty ({!Sdft_product.release_template}), so nothing
    the analysis built stays in the heap of a long-lived domain. *)

val degraded : result -> bool
(** Any degradation at all — generation stopped early, or at least one
    cutset fell back because of a limit or a contained crash. *)

val degradation_description : result -> string
(** One-line human-readable summary of the degradation (the DEGRADED banner
    body); meaningless when [degraded] is false. *)

val cache_keys : options -> Sdft.t -> result -> string list
(** The quantification-cache keys that [analyze ~options ~cache sd] looked
    up to produce the result: one per exactly quantified cutset with a
    dynamic sub-model (fallback and purely static cutsets have none). This
    is the run's share of a cache that other runs also fill. *)

type sweep_point = {
  sweep_options : options;
  sweep_result : result;
  cache_hits : int;  (** cache hits of this point's own cutsets *)
  cache_misses : int;  (** cache misses of this point's own cutsets *)
}

val sweep :
  ?cache:Quant_cache.t ->
  ?obs:Sdft_util.Obs.t ->
  Sdft.t ->
  options list ->
  sweep_point list * Quant_cache.t
(** [sweep sd option_sets] analyzes [sd] once per option set, sharing one
    quantification cache (a fresh one unless [cache] is given) and one
    prepared model, which the call makes for itself and lets go of where
    it stops needing each part (the compiled ZDD after the last point's
    Phase 1, the plan memos and shape ids when the plan ends). Phase 1 and
    the plan run for each point in order, each under its own guard; the
    plan finds each cutset in the prepared model's plan memo, building
    its [FT_C] on a miss, answers static and impossible cutsets, cache
    hits and a tripped guard, and fills the prepared model's
    {!Cutset_model.context}. Every lookup goes through the cache, memo
    hit or not, so hits and misses are the same either way. One solve
    pass then solves the misses of every point, on the largest [domains]
    they ask for, rebuilding their [FT_C]s through a read-only view of
    that context: each key once, by its first cutset in input order,
    grouped by product shape across points, so one domain explores each
    shape once ({!Sdft_product.build}). Last, each point's
    budget folds its answers in input order. Each point equals {!analyze}
    of its option set, bit for bit; its [quantification_seconds] is its
    plan's time plus a share of the solve pass's, in proportion to the
    solve time of its cutsets. *)

(** {1 Checkpointed sweeps}

    A sweep run over a disk-backed cache ({!Quant_cache.open_disk})
    survives being killed — even with [SIGKILL] — at any instant: every
    certified per-cutset solve lands in the cache's store as usual, every
    completed point is recorded there as well, and a [--resume] run skips
    completed points outright, re-solves only the cutsets of the
    unrecorded points that the store is missing, and produces final
    results bit-identical to an uninterrupted run. *)

val point_key : Sdft.t -> options -> string
(** Stable identity of one sweep point: MD5 of the model's canonical
    fingerprint ({!Quant_cache.fingerprint}, the encoder behind the cutset
    keys) followed by a canonical binary encoding ({!Sdft_util.Canon}
    tokens) of every result-influencing option (numerics, engine, rel-rule,
    resource limits). [domains] is excluded: the work partition never
    changes result bits, so a resume may use a different parallelism than
    the interrupted run. This is the key under which {!sweep_checkpointed}
    records and finds completed points. *)

type sweep_item =
  | Sweep_run of sweep_point  (** computed (or recomputed) this run *)
  | Sweep_skipped of Checkpoint.point
      (** certified by the store; result replayed without recomputing *)

val sweep_checkpointed :
  ?cache:Quant_cache.t ->
  ?obs:Sdft_util.Obs.t ->
  resume:bool ->
  ?on_point:(sweep_item -> unit) ->
  Sdft.t ->
  options list ->
  sweep_item list * Quant_cache.t
(** {!sweep} of the points the store does not certify: with [resume],
    certified points are returned as [Sweep_skipped] without running. After
    the shared solve pass, each point that ran is recorded in the cache's
    store in sweep order ({!Quant_cache.record_point}; nothing is recorded
    on a memory-only cache), and [on_point] fires after each item, once its
    record is flushed — the CLI prints its row there, so a printed row is
    always resumable. Progress shows the phases of the points that run
    (their generation, then one quantification over all of them); the
    rows mark the certified ones. *)

val static_rare_event :
  ?cutoff:float -> ?engine:engine -> Fault_tree.t -> float * int
(** Baseline "no timing" analysis of a plain static tree: cutset generation
    plus rare-event approximation. Returns the approximation and the number
    of cutsets above the cutoff. [cutoff] defaults to [1e-15] and [engine]
    to [default_options.engine] ([Auto], which picks [Zdd_engine] unless
    a module is too wide; see {!resolve_engine}). *)

val generate_cutsets :
  ?cutoff:float -> ?max_order:int option -> ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t -> engine -> Fault_tree.t -> Mocus.result
(** Run the chosen cutset engine on a static tree ([Auto] is resolved
    first). A tripped [guard] never raises: MOCUS returns its accounted
    partial result (see {!Mocus.run}); the ZDD engine returns an empty
    result with [truncated] and [limit_hit] set. For
    [Zdd_engine] the returned [pruned_mass] is the exact residual mass and
    [generated]/[pruned_by_cutoff] count {e all} minimal cutsets
    (saturating at [max_int]). *)

val dynamic_histogram : result -> int array
(** Distribution of the number of dynamic basic events per minimal cutset
    (Figure 2): entry [k] counts the cutsets with [k] dynamic events; the
    array ends at the largest [k] observed (empty when there are no
    cutsets). *)

val print_histogram : ?label:string -> int array -> unit
(** Horizontal ASCII bar chart of {!dynamic_histogram} on stdout, one line
    per count, after [label] on its own line when non-empty. *)

val mean_added_dynamic : result -> float
(** Among cutsets with dynamic events: mean number of events added because
    triggering gates lack static branching (the paper reports 1.78 of 3.02
    for the fully dynamic BWR model). *)

val pp_summary : Format.formatter -> result -> unit
(** One-screen summary including the certified interval. *)

val pp_budget : Format.formatter -> result -> unit
(** Itemized error-budget breakdown with the certified interval. *)

(** {1 Cross-checking against a statistical oracle}

    The rare-event simulator ({!Rare_event} in [sdft.sim]) produces an
    unbiased estimate of the exact product-semantics probability with a
    confidence interval. Since the certified budget interval
    [[budget.lower, budget.upper]] also brackets that exact value, the two
    intervals must overlap (up to the CI's confidence level) whenever both
    the analytic pipeline and the simulator are sound — a disjoint pair is
    strong evidence of a bug in one of them. *)

type sim_check = {
  sim_lower : float;  (** simulation confidence interval *)
  sim_upper : float;
  budget_lower : float;  (** the analysis' certified interval *)
  budget_upper : float;
  overlaps : bool;  (** the intervals intersect *)
  gap : float;  (** distance between the intervals; 0 when overlapping *)
  vacuous_budget : bool;
      (** the budget interval was vacuous, so an overlap is trivial *)
}

val verify_sim : result -> sim_ci:float * float -> sim_check
(** [verify_sim result ~sim_ci:(lo, hi)] compares a simulation confidence
    interval against the result's certified budget interval. The simulation
    side is passed as plain bounds so this check does not depend on the
    simulator library (which sits above this one); the [simulate] command
    passes it {!Rare_event.confidence} of an importance-sampling run.

    @raise Invalid_argument when [lo > hi]. *)

val pp_sim_check : Format.formatter -> sim_check -> unit
