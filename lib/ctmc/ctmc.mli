(** Finite continuous-time Markov chains with a sparse rate matrix.

    A CTMC over states [0 .. n-1] is given by its outgoing transitions
    [R(i,j) >= 0] for [i <> j]. Self-loops carry no semantics in a CTMC and
    are rejected by the builder.

    The matrix is stored in CSR form: three flat arrays [row_ptr]/[cols]/
    [rates] (the rate array is unboxed). Hot numeric loops should fetch
    the arrays once and index directly. *)

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

val plan_rows :
  row_ptr:int array -> cols:int array -> refs:int array -> plan
(** [plan_rows ~row_ptr ~cols ~refs] is {!plan} of transitions already
    grouped by source: those of state [i] are entries [row_ptr.(i)] to
    [row_ptr.(i + 1) - 1] of [cols] (destinations) and [refs], in input
    order, so [plan] of the same transitions listed row by row gives the
    same plan. The arrays become the plan's, sorted in place: do not use
    them afterwards.

    @raise Invalid_argument on out-of-range states, self-loops or
    inconsistent offsets. *)

val instantiate : plan -> float array -> t
(** [instantiate p rates] is the chain of [p] with rate vector [rates]:
    bit for bit [of_arrays ~srcs ~dsts ~rates:(Array.map (Array.get rates)
    refs)]. Instances share the plan's [row_ptr] and [cols] arrays; their
    [rates] and exit rates are fresh. [of_arrays] is [instantiate] of a
    plan whose [refs] are [0 .. n - 1].

    @raise Invalid_argument when a reference falls outside [rates] or a
    referenced rate is not positive and finite. *)

val plan_states : plan -> int
(** The state count of every instance of the plan. *)

val plan_entries : plan -> int
(** The number of merged entries, the length of an instance's rate
    vector. *)

val instantiate_into :
  plan -> float array -> rates:float array -> exit:float array -> t
(** [instantiate_into p r ~rates ~exit] is [instantiate p r], bit for bit,
    except that the instance's rate and exit vectors are the first
    {!plan_entries} and {!plan_states} entries of the given buffers,
    overwritten here. The instance reads them for as long as it is used,
    so a buffer must not be refilled while an earlier instance over it is
    still in use. Longer buffers are fine: a chain reads only its own
    prefix.

    @raise Invalid_argument as {!instantiate}, or when a buffer is too
    short. *)

val n_states : t -> int

val rate : t -> int -> int -> float
(** [rate c i j] is [R(i,j)] (0 when there is no transition). *)

val exit_rate : t -> int -> float
(** Total outgoing rate of a state. *)

val max_exit_rate : t -> float
(** Uniformization constant [q >= max_i E(i)]. *)

(** {1 Flat CSR access}

    The returned arrays are the chain's internals, shared with the chain
    (and with other instances of its plan): do not mutate them. Row [i]
    spans [row_ptr.(i) .. row_ptr.(i + 1) - 1] of [cols]/[rates];
    destinations are sorted in increasing order. *)

val row_ptr : t -> int array
(** Row offsets; length [n_states + 1]. *)

val cols : t -> int array
(** Transition destinations. *)

val rates : t -> float array
(** Transition rates (unboxed float array). At least {!n_transitions}
    entries; an instance over a reused buffer ({!instantiate_into}) may
    have more, which are not its own. *)

val exit_rates : t -> float array
(** Per-state exit rates; at least [n_states] entries, of which only the
    first [n_states] are the chain's (see {!rates}). Shared; do not
    mutate. *)

val n_transitions : t -> int

val iter_transitions : t -> (int -> int -> float -> unit) -> unit

val pp : Format.formatter -> t -> unit
