(** Zero-suppressed decision diagrams over families of sets.

    Cutset collections are families of sets of basic events; ZDDs represent
    them compactly and support the subsumption operation ({!without}) that
    the minimal-solutions algorithm ({!Minsol}) needs. Shares the
    variable-order convention of {!Bdd} (levels from the root down). *)

type manager

type node = private int

val manager :
  ?var_order:int array -> ?guard:Sdft_util.Guard.t -> n_vars:int -> unit ->
  manager
(** [guard] (default {!Sdft_util.Guard.none}) is checkpointed at every node
    construction {e and} on entry to each recursive [without] call and
    traversal, so a blowing-up subsumption pass raises
    {!Sdft_util.Guard.Limit_hit} once a resource limit trips instead of
    running to completion past it. *)

val seal : manager -> unit
(** Declare the manager's diagrams finished: its unique and memo tables
    and its guard are dropped, and only the node store, which every handle
    indexes, stays. Reading ({!node_var}, {!fold}, {!to_cutsets}, ...)
    still works; {!make_node} and {!without} raise [Invalid_argument]. A
    compiled structure kept across analyses holds no construction tables
    and answers to no earlier call's guard. *)

val bottom : node
(** The empty family, {[ {} ]}. *)

val top : node
(** The family containing only the empty set, {[ {{}} ]}. *)

val make_node : manager -> int -> node -> node -> node
(** [make_node m v low high] is the canonical node for
    [low ∪ { s ∪ {v} | s ∈ high }]. The variable [v] must sit strictly above
    the top variables of [low] and [high] in the order.

    @raise Invalid_argument when the level constraint is violated. *)

val node_var : manager -> node -> int
(** Root variable of an internal node. *)

val node_low : manager -> node -> node
(** Sets not containing the root variable. *)

val node_high : manager -> node -> node
(** Rests of the sets containing the root variable. *)

val without : manager -> node -> node -> node
(** [without m u v] removes from [u] every set that is a (non-strict)
    superset of some set in [v] — the subsumption difference at the heart of
    minimal-solution extraction. *)

val weighted_count :
  ?guard:Sdft_util.Guard.t -> manager -> (int -> float) -> node -> float
(** [weighted_count m w n] is [sum over sets S of (prod over v in S of w v)]
    — with [w] a probability map this is the rare-event approximation over
    the whole family, computed in one linear pass over the shared ZDD
    without ever enumerating the (possibly astronomic) sets. Memoized
    bottom-up: [W(bottom) = 0], [W(top) = 1],
    [W(v, low, high) = W(low) + w v * W(high)]. *)

val fold :
  ?guard:Sdft_util.Guard.t ->
  manager -> node -> bottom:'a -> top:'a -> node:(int -> 'a -> 'a -> 'a) ->
  'a
(** Memoized bottom-up structural fold (each shared node visited once);
    {!weighted_count} is an instance. Stack-safe. [guard] (default: the
    manager's) is checkpointed at each node. *)

val to_cutsets : manager -> node -> Sdft_util.Int_set.t list
(** The sets of the family, in enumeration order. Stack-safe on
    chain-shaped ZDDs. *)

val size : manager -> node -> int
