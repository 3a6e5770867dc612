(** The MOCUS minimal-cutset generation algorithm (Section IV-B).

    MOCUS systematically refines {e partial cutsets} — sets of basic events
    already chosen to fail plus gates still to be failed — starting from
    [{g_top}]. An OR gate branches the partial cutset, an AND gate extends
    it. Partial cutsets whose basic-event probability product falls below
    the cutoff [c*] are discarded (the paper's "static cutoff"), which is
    what makes the method scale to industrial trees. The surviving cutsets
    are minimized by subsumption. *)

type options = {
  cutoff : float;
      (** discard partial cutsets with probability below this (paper uses
          [1e-15]); [0.] disables pruning *)
  max_order : int option;
      (** optionally discard cutsets with more basic events than this *)
}

val default_options : options
(** [cutoff = 1e-15], no order bound. *)

type result = {
  cutsets : Cutset.t list;  (** minimal cutsets, sorted by (size, lex) *)
  generated : int;  (** cutsets produced before minimization *)
  pruned_by_cutoff : int;  (** partial cutsets discarded by the cutoff *)
  pruned_mass : float;
      (** upper bound on the probability mass of the discarded branches: the
          Kahan sum, over every pruned partial cutset, of the probability
          product of its basic events (which bounds the probability that
          {e any} cutset refining the partial fails). Feeds the error budget
          of {!Sdft_analysis}. Sound because pruning looks only at the
          paper's basics-only product, never at per-gate estimates. *)
  truncated : bool;
      (** the cutset list is missing cutsets that no mass accounts for. Its
          only source is the ZDD engine's interrupted compilation (see
          {!Sdft_analysis.generate_cutsets}); {!run} never sets it. *)
  limit_hit : Sdft_util.Guard.reason option;
      (** a resource guard (or simulated limit) stopped the expansion early.
          Unlike [truncated], this degradation is {e accounted}: the basics
          product of every unexplored partial was folded into [pruned_mass],
          so the error budget built on it stays sound. *)
}

val run :
  ?options:options ->
  ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t ->
  Fault_tree.t ->
  result
(** K-of-N gates are expanded transparently. [guard] (default
    {!Sdft_util.Guard.none}) is checkpointed once per expansion step; on
    {!Sdft_util.Guard.Limit_hit} (or [Out_of_memory]) the run returns the
    cutsets found so far with [limit_hit] set and the unexplored mass folded
    into [pruned_mass] instead of raising. The [mocus.expand] failpoint site
    of [obs] (default {!Sdft_util.Obs.default}) is checkpointed at the same
    place; metrics and trace spans go to the same context, including the
    [mocus.peak_stack_depth] high-water gauge and the [mocus.minimize] span
    (a child of [mocus.run], with [candidates] and [kept] attributes), which
    splits generation time into expansion and minimization. *)

val minimal_cutsets :
  ?options:options ->
  ?guard:Sdft_util.Guard.t ->
  ?obs:Sdft_util.Obs.t ->
  Fault_tree.t ->
  Cutset.t list
(** Shorthand for [(run tree).cutsets]. *)
