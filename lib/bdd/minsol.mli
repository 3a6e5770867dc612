(** Minimal solutions of a coherent boolean function (Rauzy's algorithm).

    Converts the BDD of a monotone structure function into the ZDD of its
    minimal cutsets: at every node the cutsets of the high branch that are
    already subsumed by a cutset of the low branch are dropped. Together
    with {!Zdd.to_cutsets} this yields the exact minimal-cutset list — the
    oracle against which the MOCUS implementation is validated, and the
    engine used by the SD analysis to compute the trigger sets [A_1..A_k]
    of Section V-C. *)

val minimal_cutsets_zdd : Bdd.manager -> Bdd.node -> Zdd.manager * Zdd.node
(** The returned ZDD manager shares the BDD manager's variable order {e and}
    its resource guard, so the subsumption passes answer to the same
    deadline/memory ceiling as the compilation that fed them. *)

val minimal_cutsets : Bdd.manager -> Bdd.node -> Sdft_util.Int_set.t list
(** Enumerated cutsets (exact, no cutoff), sorted by (size, lex). *)

val fault_tree_cutsets :
  ?guard:Sdft_util.Guard.t -> Fault_tree.t -> Sdft_util.Int_set.t list
(** Compile the tree and extract all minimal cutsets. Exponential in the
    worst case; intended for moderate trees and cross-checking. [guard] is
    checkpointed during BDD construction (see {!Bdd.manager}). *)

val fault_tree_cutsets_above :
  ?max_order:int -> ?guard:Sdft_util.Guard.t -> Fault_tree.t -> cutoff:float ->
  Sdft_util.Int_set.t list
(** The minimal cutsets of the tree whose probability product reaches
    [cutoff] and whose cardinality is within [max_order]. Along a ZDD path
    the product of included variables only decreases and the cardinality
    only grows, so whole subtrees are pruned soundly {e inside} the walk —
    this makes the BDD pipeline usable as a cutset {e engine} on industrial
    models whose total cutset count is astronomic. [guard] is checkpointed
    during BDD construction (see {!Bdd.manager}). *)
