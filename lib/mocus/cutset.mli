(** Cutsets and lists of minimal cutsets (Section IV-A).

    A cutset is a set of basic-event indices whose joint failure fails the
    top gate; it is minimal when no proper subset is a cutset. This module
    provides the operations shared by the MOCUS and BDD back ends:
    subsumption-based minimization and the standard probabilistic
    aggregations. *)

type t = Sdft_util.Int_set.t

val probability : Fault_tree.t -> t -> float
(** [p(C) = prod_{a in C} p(a)] — the total probability of all scenarios the
    cutset represents (property (ii) in the paper). *)

val is_cutset : Fault_tree.t -> t -> bool
(** Does failing exactly the events of [t] fail the top gate? (For coherent
    trees this is equivalent to all represented scenarios failing.) *)

val is_minimal_cutset : Fault_tree.t -> t -> bool
(** Is [t] a cutset none of whose one-element-removed subsets is one? (For
    coherent trees, minimality reduces to this check.) *)

val minimize : t list -> t list
(** Remove every set that is a (non-strict) superset of another one;
    duplicates collapse to one representative. The result is sorted by
    cardinality then lexicographically. After the O(n log n) sort, a set [C]
    costs one O(|C|) subset test per kept set listed under an event of [C];
    each kept set is listed under its rarest event only. *)

val rare_event_approximation : Fault_tree.t -> t list -> float
(** Sum of cutset probabilities — the upper approximation used throughout
    the paper. *)

val sort_by_probability : Fault_tree.t -> t list -> t list
(** Decreasing probability (ties broken by the set order). *)

val pp : Fault_tree.t -> Format.formatter -> t -> unit
(** Render with event names, e.g. [{pump1_start, pump2_run}]. *)
