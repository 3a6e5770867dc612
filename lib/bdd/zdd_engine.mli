(** ZDD-backed cutset engine: modular BDD compilation, Rauzy
    minimal-solution extraction, and weighted-count quantification.

    A peer of MOCUS for static (or translated) trees. Per independent
    module — bottom-up, nested module gates appearing as pseudo-variables
    in their parent's diagram — the engine compiles the structure function
    to a BDD, extracts the minimal-cutset family as a ZDD, and folds the
    family's total rare-event mass, saturating cutset count, and
    enumeration bounds out of the shared diagram without materializing the
    (possibly astronomic) cutset list. Only the cutsets above the cutoff
    (and within the order bound) are composed across modules and emitted;
    the mass of everything else is [total_mass - emitted_mass], {e exact}
    rather than an upper bound — which is what lets the downstream
    certified interval carry zero unaccounted pruned mass.

    Resource governance: the caller's guard is threaded through BDD
    construction, the ZDD subsumption passes (see {!Zdd.manager}), the
    folds, and the enumeration walk; a tripped limit raises
    {!Sdft_util.Guard.Limit_hit} out of {!compile} and {!run}. Each
    module's ZDD manager is sealed ({!Zdd.seal}) as soon as the module is
    compiled. *)

type module_stats = {
  ms_gate : int;  (** the module's root gate *)
  ms_basics : int;  (** distinct basic events in the cut subtree *)
  ms_gates : int;  (** gates in the cut subtree *)
  ms_and : int;
  ms_or : int;
  ms_atleast : int;
  ms_inner_modules : int;
      (** nested module gates, which the engine treats as single
          pseudo-variables — [ms_basics + ms_inner_modules] is the
          variable count of the BDD compiled for this module *)
}

val module_stats : Fault_tree.t -> module_stats list
(** Structural statistics of every module's {e cut} subtree (the DFS stops
    at nested module gates), one entry per gate of {!Modules.find} — the
    inputs of the engine auto-selection heuristic. *)

type result = {
  cutsets : Sdft_util.Int_set.t list;
      (** minimal cutsets with probability product [>= cutoff] and
          cardinality [<= max_order], sorted by {!Sdft_util.Int_set.compare} *)
  total_mass : float;
      (** rare-event mass of {e all} minimal cutsets (the ZDD weighted
          count) — never enumerated *)
  emitted_mass : float;  (** rare-event mass of [cutsets] *)
  residual_mass : float;
      (** [total_mass - emitted_mass]: the exact mass of the cutsets
          dropped by the cutoff and order bounds (clamped at 0 against
          float noise); exactly [0.0] when every minimal cutset was
          emitted *)
  n_minimal : int;
      (** saturating count of all minimal cutsets ([max_int] = "at least") *)
  n_minimal_saturated : bool;
  n_modules : int;
  max_zdd_nodes : int;  (** largest per-module minimal-solutions ZDD *)
}

type compiled
(** What the tree's structure alone decides: per module, the
    minimal-solutions ZDD (its manager sealed, see {!Zdd.seal}) with its
    saturating cutset count and minimum order. Probabilities, the cutoff
    and the order bound play no part, so one compiled structure serves
    every tree of the same shape, e.g. the translations of one SD fault
    tree at every horizon. Read-only once built: any number of domains may
    enumerate it at once. *)

val compile :
  ?guard:Sdft_util.Guard.t -> ?obs:Sdft_util.Obs.t -> Fault_tree.t -> compiled
(** Compile every module of [tree], children before parents. [obs]'s
    [zdd.module] failpoint site fires before each module and its
    [zdd.compilations] counter counts a finished compilation.

    @raise Sdft_util.Guard.Limit_hit when the guard trips. *)

val run :
  ?cutoff:float ->
  ?max_order:int ->
  ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t ->
  ?compiled:(unit -> compiled) ->
  Fault_tree.t ->
  result
(** [run tree] quantifies the tree's minimal-cutset family with its own
    basic-event probabilities: the structure from [compiled ()] (default:
    {!compile} [tree]), then per module the rare-event mass and the
    enumeration bound folded with [tree]'s probabilities, then the walk.
    The folds and the walk answer to [guard], never to the one a compiled
    structure was built under. [cutoff] defaults to [0.0] (emit every
    minimal cutset); [max_order] defaults to unbounded. [obs] (default
    {!Sdft_util.Obs.default}) receives the [zdd.run] trace span, the
    [zdd.runs] / [zdd.modules] / [zdd.cutsets_emitted] tallies and the
    [zdd.peak_nodes] high-water gauge.

    @raise Invalid_argument when [compiled ()] was compiled from a tree
    of another shape (basic count, gate count or top differ).
    @raise Sdft_util.Guard.Limit_hit when the guard trips — unlike MOCUS
    there is no sound partial result to salvage; the caller degrades. *)
