(** Zero-suppressed decision diagrams over families of sets.

    Cutset collections are families of sets of basic events; ZDDs represent
    them compactly and support the subsumption operations needed by the
    minimal-solutions algorithm. Shares the variable-order convention of
    {!Bdd} (levels from the root down). *)

type manager

type node = private int

val manager :
  ?var_order:int array -> ?guard:Sdft_util.Guard.t -> n_vars:int -> unit ->
  manager
(** [guard] (default {!Sdft_util.Guard.none}) is checkpointed at every node
    construction {e and} on entry to each recursive operation ([union],
    [inter], [diff], [without], [minimal]) and traversal, so a blowing-up
    subsumption pass raises {!Sdft_util.Guard.Limit_hit} once a resource
    limit trips instead of running to completion past it. *)

val clear_caches : manager -> unit
(** Drop the operation memo tables (union/inter/diff/without/minimal). The
    node store is kept, so every node handle stays valid; only memoized
    derivations are re-computed on demand. Call between independent modules
    of a long analysis so dead memo entries do not accumulate under a
    memory ceiling. *)

val bottom : node
(** The empty family, {[ {} ]}. *)

val top : node
(** The family containing only the empty set, {[ {{}} ]}. *)

val elem : manager -> int -> node
(** The family [{{v}}]. *)

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

val is_terminal : node -> bool

val union : manager -> node -> node -> node

val inter : manager -> node -> node -> node

val diff : manager -> node -> node -> node

val without : manager -> node -> node -> node
(** [without m u v] removes from [u] every set that is a (non-strict)
    superset of some set in [v] — the subsumption difference at the heart of
    minimal-solution extraction. *)

val minimal : manager -> node -> node
(** Keep only the inclusion-minimal sets of the family. *)

val count : manager -> node -> int
(** Number of sets in the family, {e saturating}: a result of [max_int]
    means "at least [max_int]" (a family over [k] variables can hold [2^k]
    sets, far past native-int range). Stack-safe on chain-shaped ZDDs. *)

val weighted_count : manager -> (int -> float) -> node -> float
(** [weighted_count m w n] is [sum over sets S of (prod over v in S of w v)]
    — with [w] a probability map this is the rare-event approximation over
    the whole family, computed in one linear pass over the shared ZDD
    without ever enumerating the (possibly astronomic) sets. Memoized
    bottom-up: [W(bottom) = 0], [W(top) = 1],
    [W(v, low, high) = W(low) + w v * W(high)]. *)

val fold :
  manager -> node -> bottom:'a -> top:'a -> node:(int -> 'a -> 'a -> 'a) ->
  'a
(** Memoized bottom-up structural fold (each shared node visited once);
    {!count} and {!weighted_count} are instances. Stack-safe. *)

val iter_sets : manager -> node -> (int list -> unit) -> unit
(** Enumerate the sets; elements are produced in level order. Stack-safe on
    chain-shaped ZDDs (depth used to be bounded by the recursion limit). *)

val to_cutsets : manager -> node -> Sdft_util.Int_set.t list

val of_sets : manager -> Sdft_util.Int_set.t list -> node

val size : manager -> node -> int
