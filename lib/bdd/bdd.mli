(** Reduced ordered binary decision diagrams (hash-consed).

    Used as the exact engine for static fault trees: compilation of the gate
    structure yields the structure function, whose exact probability follows
    by Shannon expansion, and whose minimal cutsets follow by the Rauzy
    minimal-solutions construction (see {!Minsol}). This is the
    state-of-the-art alternative to MOCUS that the paper cites for cutset
    generation; we use it as a cross-checking baseline. *)

type manager

type node = private int
(** Node handle, valid within its manager. *)

val manager :
  ?var_order:int array -> ?guard:Sdft_util.Guard.t -> n_vars:int -> unit ->
  manager
(** [var_order] lists the variables from the root level downwards; it must
    be a permutation of [0 .. n_vars-1] (default: identity). [guard]
    (default {!Sdft_util.Guard.none}) is checkpointed at every node
    construction, so any apply/compile through this manager raises
    {!Sdft_util.Guard.Limit_hit} once a resource limit trips. *)

val n_vars : manager -> int

val guard : manager -> Sdft_util.Guard.t
(** The guard the manager was created with — lets derived structures (the
    minimal-solutions ZDD) inherit the same resource governance. *)

val zero : node

val one : node

val var : manager -> int -> node
(** The function "variable [v] is true". *)

val level_of_var : manager -> int -> int

val apply_and : manager -> node -> node -> node

val apply_or : manager -> node -> node -> node

val node_var : manager -> node -> int
(** @raise Invalid_argument on terminals. *)

val node_low : manager -> node -> node

val node_high : manager -> node -> node

val probability : manager -> (int -> float) -> node -> float
(** [probability m p f] — exact probability that [f] is true when variable
    [v] is independently true with probability [p v]. Linear in the number
    of nodes (memoised Shannon expansion). *)

val eval : manager -> (int -> bool) -> node -> bool

val of_fault_tree :
  ?assume:(int -> bool option) -> ?guard:Sdft_util.Guard.t -> Fault_tree.t ->
  manager * node
(** Compile a fault tree: variables are basic-event indices, ordered by
    first DFS visit from the top gate (a standard static ordering
    heuristic). [assume] fixes chosen basic events to constants — used by
    the SD analysis to condition on static events of a cutset being failed.
    K-of-N gates are compiled directly. *)

val of_fault_tree_gate :
  ?assume:(int -> bool option) -> ?guard:Sdft_util.Guard.t -> Fault_tree.t ->
  int -> manager * node
(** Same, but compile the function of an arbitrary gate of the tree. *)
