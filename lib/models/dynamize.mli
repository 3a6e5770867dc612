(** Automatic dynamization of a static fault tree (Section VI-B).

    Reproduces the paper's procedure for turning a legacy static study into
    an SD fault tree: the given fraction of basic events with the highest
    Fussell-Vesely importance is replaced by dynamic basic events (Erlang
    failures preserving each event's mean time to failure over the mission),
    and triggering chains are created among dynamic events of equal
    importance (symmetric redundant trains): the first event of a chain
    directly triggers the second, the second the third, and so on — the
    simplest static-branching pattern of Figure 1, realised by a
    single-input wrapper gate above each triggering event. *)

type calibration =
  | Mttf
      (** preserve the event's mean time to failure (the paper's rule):
          [lambda = -ln(1-p)/mission]. With Erlang phases and [lambda *
          mission << 1] the within-mission failure probability drops
          sharply as [k] grows. *)
  | Mission_probability
      (** choose the Erlang rate so that the probability of failing within
          the mission equals the original static probability for every
          phase count — isolates the chain-size effect of [k]. *)

type config = {
  dynamic_fraction : float;  (** share of basic events made dynamic, [0,1] *)
  trigger_fraction : float;
      (** share of basic events that become triggered (paper: one tenth of
          [dynamic_fraction]) *)
  phases : int;
  repair_rate : float option;
  mission_hours : float;
      (** converts the static probability [p] back to a rate
          [-ln(1-p)/mission] *)
  candidates : int list option;
      (** restrict dynamization to these events (e.g. failure-in-operation
          events); [None] allows every event *)
  chain_groups : int list list option;
      (** explicit groups of symmetric redundant events to chain (e.g.
          {!Industrial.run_event_groups}); [None] falls back to grouping by
          equal Fussell-Vesely importance *)
  cutoff : float;
      (** cutoff for the importance-ranking cutset run, which always uses
          the ZDD engine (exact and fast on event-tree-shaped models) *)
  calibration : calibration;  (** default [Mttf] *)
}

val default_config : config
(** 10% dynamic, 1% triggered, one phase, no repair, 24h mission, all
    events, cutoff 1e-15. *)

type result = {
  sd : Sdft.t;
  n_dynamic : int;
  n_triggered : int;
  dynamic_events : string list;
}

val run : ?config:config -> Fault_tree.t -> result
