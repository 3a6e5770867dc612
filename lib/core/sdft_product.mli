(** The product Markov chain semantics of an SD fault tree
    (Section III-C of the paper).

    Every basic event contributes a component: dynamic events their
    (triggered) CTMC, static events a two-state zero-rate chain whose initial
    distribution is the Bernoulli failure. Product states evolve by
    interleaving component transitions; after each evolution the state is
    {e updated} to a consistent one by switching triggered events on/off
    until every trigger gate's failure status agrees with its events' modes
    (the update closure terminates because the trigger structure is
    acyclic). The failure probability within a horizon is the probability of
    reaching a product state that fails the top gate.

    This module is used in three roles: quantifying the small per-cutset
    models [FT_C] (the paper's workhorse); as the exact full-state-space
    baseline that the paper argues is infeasible for industrial trees — it
    is exponential in the number of basic events, so keep it to small
    models; and, through its low-level semantics, as the process the
    Monte-Carlo engines sample. *)

type built = {
  chain : Ctmc.t;
  init : (int * float) list;
  failed : bool array;
      (** per product state: does it fail the top gate? Shared with the
          template a packed build keeps: do not mutate. *)
  participants : int array;  (** basic-event indices, in component order *)
  n_states : int;
}

exception Too_many_states of int
(** Raised when exploration exceeds [max_states]. *)

val build :
  ?max_states:int ->
  ?generic:bool ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:Transient.workspace ->
  ?obs:Sdft_util.Obs.t ->
  Sdft.t ->
  built
(** [build sd] explores the reachable consistent product states from the
    initial distribution, with one component per basic event.
    [max_states] defaults to 1_000_000.

    States are packed into single integers (mixed-radix) whenever the radix
    product fits in an OCaml int, which makes exploration allocation-light;
    [generic:true] forces the array-keyed fallback path instead (used by
    tests and benchmarks — both paths produce bit-identical results).

    {b Template reuse.} A packed exploration depends only on the model's
    rate-erased shape: the tree's gates and top, the participants in slot
    order, and per component its local state count, the destinations of
    its transitions, the support of its initial distribution, its failed
    states and its trigger structure. Each packed build leaves a template
    of that shape (state count, failure labelling, initial states, and a
    {!Ctmc.plan} whose entries name the component transitions they sum) in
    a one-slot memo per domain. A later build of the same shape on the same
    domain does not explore: it instantiates the template with its own
    rates and initial masses, bit-identical to exploring. The slot holds
    only the last shape explored, so a shape change costs one exploration
    and the memo never grows; {!release_template} empties it. Callers
    with many models get the most from it by building them grouped by
    {!shape}, as {!Sdft_analysis.analyze} does. An exploration empties the slot before it
    starts and fills it only when it completes, so one that raises leaves
    no template. A template with more than [max_states] states is not
    reused (the model is explored and raises {!Too_many_states}). The
    generic path neither reads nor fills the slot.

    {b Instances in a workspace.} Without [workspace] every packed chain
    has rate and exit vectors of its own. With it they are [workspace]'s
    ({!Transient.instantiate}), so a build allocates nothing proportional
    to its chain once the workspace has grown to it: the chain then lives
    until the next build through [workspace], and is meant to be solved
    through it at once, as {!Cutset_model.solve} does. The generic path
    ignores [workspace].

    [guard] (default {!Sdft_util.Guard.none}) is checkpointed once per
    explored state; on a trip {!Sdft_util.Guard.Limit_hit} propagates to
    the caller (unlike a MOCUS run there is no sound partial result — a
    half-explored chain would silently under-count failure paths). The
    [product.explore] failpoint site of [obs] (default
    {!Sdft_util.Obs.default}) fires at the same place. A template hit keeps
    both contracts: it checks the guard and hits the failpoint once per
    instantiated state, as the exploration it replaces would.

    Each build counts itself on the context's [product.explorations] or
    [product.template_hits] counter and tags its [product.build] span with a
    [template] bool (true on a hit). *)

val shape : Sdft.t -> int array
(** The positional, rate-erased shape key that decides template reuse in
    {!build}, computed without exploring. Models with equal shapes reach
    the same states in the same order, so when they are built one after
    the other on one domain, the second is a template hit (unless an
    initial mass underflows to zero and drops an initial state, or the
    template is larger than [max_states]). {!Sdft_analysis.analyze}
    groups its product builds by this key. *)

val release_template : unit -> unit
(** Empties the calling domain's template slot, so the last template built
    there stops holding heap. {!Sdft_analysis.analyze} calls it when it
    returns or raises: no template outlives the analysis (or the server
    request) that built it, and a later analysis on the same domain starts
    from an empty slot. *)

val unreliability :
  ?epsilon:float -> ?guard:Sdft_util.Guard.t ->
  ?workspace:Transient.workspace -> ?obs:Sdft_util.Obs.t -> built ->
  horizon:float -> float
(** [Pr(reach a failed product state within the horizon)]. [workspace]
    removes the solver's per-call vector allocations; [guard] is probed at
    every uniformization step. *)

val solve :
  ?max_states:int -> ?epsilon:float -> ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t -> Sdft.t -> horizon:float -> float
(** [build] + [unreliability] on the whole tree — the exact semantics
    [p(FT)] of Section III-C2. *)

(** {1 Low-level semantics}

    The component extraction and the trigger update closure: the one
    implementation of the Section III-C product process. Augmented
    explorations (the failure-order tracking of {!Cut_sequences}) and the
    Monte-Carlo engines ({!Simulator}, {!Rare_event}, which sample it
    through {!Sim_world}) all run on it. A semantics carries a scratch
    buffer for gate evaluations, so it must not be shared between domains:
    build one per domain ({!semantics} is cheap; it shares each event's
    chain arrays). *)

type component = {
  basic : int;  (** basic-event index in the tree *)
  n_local : int;
  row_ptr : int array;
  cols : int array;
  rates : float array;
      (** Outgoing transitions in CSR form: local state [s] owns entries
          [row_ptr.(s) .. row_ptr.(s + 1) - 1] of [cols] (destinations) and
          [rates]. A dynamic event's arrays are its {!Dbe.chain}'s own,
          shared with it: do not mutate them. A static event has
          [row_ptr = [|0; 0; 0|]] and no transitions. *)
  init_states : int array;
  init_weights : float array;
      (** The initial distribution: [init_states.(j)] has mass
          [init_weights.(j)]. Zero-mass states are left out; a static event
          with probability [p] lists state 0 with [1 - p] and state 1
          (failed) with [p]. *)
  failed_local : bool array;
  trigger_gate : int;  (** -1 when untriggered *)
  mode_on : bool array;
  partner : int array;
      (** the same state in the other mode (on <-> off); the identity for
          untriggered events *)
}

type semantics

val semantics : Sdft.t -> semantics
(** One component per basic event, in index order. *)

val sem_components : semantics -> component array

val sem_close : semantics -> int array -> unit
(** Apply the trigger update closure in place: switch triggered events
    on/off until every trigger gate's failure status agrees with its
    events' modes. *)

val sem_fails_top : semantics -> int array -> bool
(** Does the (consistent) state fail the top gate? *)

val sem_initial_states : semantics -> max_states:int -> (int array * float) list
(** Enumerate the closed initial product states with their masses. *)
