(** Finite continuous-time Markov chains with a sparse rate matrix.

    A CTMC over states [0 .. n-1] is given by its outgoing transitions
    [R(i,j) >= 0] for [i <> j]. Self-loops carry no semantics in a CTMC and
    are rejected by the builder.

    The matrix is stored in CSR form: three flat arrays [row_ptr]/[cols]/
    [rates] (the rate array is unboxed), plus per-row end markers so that
    {!restrict_absorbing} can share the transition arrays of its parent.
    Hot numeric loops should fetch the arrays once and index directly;
    {!outgoing} remains as an allocating compatibility view. *)

type t

val make : n_states:int -> transitions:(int * int * float) list -> t
(** [make ~n_states ~transitions] builds a chain from [(src, dst, rate)]
    triples. Parallel transitions between the same pair of states are merged
    by summing their rates.

    @raise Invalid_argument on out-of-range states, non-positive rates, or
    self-loops. *)

val of_arrays :
  n_states:int -> srcs:int array -> dsts:int array -> rates:float array -> t
(** [make] from parallel arrays instead of a list of triples: same
    validation and duplicate merging, without building the intermediate
    list. The input arrays are not retained. *)

(** {1 Plans: one structure, many rate vectors}

    A {!plan} is a chain with its rates left out: the CSR layout and, for
    every merged entry, which input rates it sums and in which order.
    Chains that differ only in their rates share one plan. *)

type plan

val plan :
  n_states:int -> srcs:int array -> dsts:int array -> refs:int array -> plan
(** [plan ~n_states ~srcs ~dsts ~refs] lays out the transitions
    [srcs.(k) -> dsts.(k)], whose rate will be [rates.(refs.(k))] in each
    {!instantiate}. Duplicate [(src, dst)] pairs merge into one entry, as in
    {!make}. The input arrays are not retained.

    @raise Invalid_argument on out-of-range states, self-loops or
    mismatched array lengths. *)

val instantiate : plan -> float array -> t
(** [instantiate p rates] is the chain of [p] with rate vector [rates]:
    bit for bit [of_arrays ~srcs ~dsts ~rates:(Array.map (Array.get rates)
    refs)]. Instances share the plan's [row_ptr] and [cols] arrays; their
    [row_end], [rates] and exit rates are fresh. [of_arrays] is
    [instantiate] of a plan whose [refs] are [0 .. n - 1].

    @raise Invalid_argument when a reference falls outside [rates] or a
    referenced rate is not positive and finite. *)

val n_states : t -> int

val rate : t -> int -> int -> float
(** [rate c i j] is [R(i,j)] (0 when there is no transition). *)

val exit_rate : t -> int -> float
(** Total outgoing rate of a state. *)

val max_exit_rate : t -> float
(** Uniformization constant [q >= max_i E(i)]. *)

(** {1 Flat CSR access}

    The returned arrays are the chain's internals, shared with the chain
    (and possibly with chains derived by {!restrict_absorbing}): do not
    mutate them. Row [i] spans [row_ptr.(i) .. row_end.(i) - 1] of
    [cols]/[rates]; destinations are sorted in increasing order. *)

val row_ptr : t -> int array
(** Row start offsets; length [n_states + 1]. *)

val row_end : t -> int array
(** Row end offsets; length [n_states]. Equal to [row_ptr.(i + 1)] for
    freshly built chains; smaller for rows emptied by
    {!restrict_absorbing}. *)

val cols : t -> int array
(** Transition destinations. *)

val rates : t -> float array
(** Transition rates (unboxed float array). *)

val exit_rates : t -> float array
(** Per-state exit rates; length [n_states]. Shared; do not mutate. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row c i f] calls [f dst rate] for every outgoing transition of
    [i], in increasing destination order, without allocating. *)

val outgoing : t -> int -> (int * float) array
(** Outgoing transitions of a state as [(dst, rate)] pairs. Compatibility
    view: unlike the CSR accessors it allocates a fresh array per call. *)

val n_transitions : t -> int

val iter_transitions : t -> (int -> int -> float -> unit) -> unit

val restrict_absorbing : t -> (int -> bool) -> t
(** [restrict_absorbing c is_absorbing] removes every outgoing transition of
    the states selected by [is_absorbing], making them absorbing. Used to
    turn transient occupancy of a target set into time-bounded
    reachability. The result shares the parent's transition arrays; the
    parent is not modified. *)

val embedded_dtmc_row : t -> int -> (int * float) array
(** Jump-chain probabilities of a state: outgoing rates normalised by the
    exit rate. Empty for absorbing states. *)

val pp : Format.formatter -> t -> unit
