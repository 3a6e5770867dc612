(** Coherent static fault trees (Section II of the paper).

    A fault tree is a DAG whose leaves are {e basic events} (with a failure
    probability) and whose inner nodes are {e gates} of kind AND, OR, or
    K-of-N (the standard voting extension; AND and OR are the paper's
    formalism, K-of-N expands to them). A distinguished {e top gate} models
    the failure of the complete system.

    Basic events and gates are indexed densely from 0 so that analysis code
    can use plain arrays; names are kept for reporting. *)

type gate_kind =
  | And
  | Or
  | Atleast of int  (** [Atleast k]: fails when at least [k] inputs fail. *)

type node =
  | B of int  (** basic event index *)
  | G of int  (** gate index *)

type t

(** {1 Construction} *)

module Builder : sig
  type tree = t

  type t

  val create : unit -> t

  val basic : t -> ?prob:float -> string -> node
  (** Declare a basic event. [prob] defaults to [0.]; it must lie in
      [[0, 1]]. Names must be unique across basic events and gates.

      @raise Invalid_argument on duplicate name or invalid probability. *)

  val gate : t -> string -> gate_kind -> node list -> node
  (** Declare a gate over previously declared nodes. Inputs must be distinct
      and non-empty; [Atleast k] requires [1 <= k <=] number of inputs.
      Acyclicity holds by construction because inputs must already exist. *)

  val node_of_name : t -> string -> node option

  val build : t -> top:node -> tree
  (** Finalize. [top] must be a gate. Unreachable nodes are allowed (they are
      simply never failed by the top).

      @raise Invalid_argument when [top] is a basic event. *)
end

(** {1 Accessors} *)

val n_basics : t -> int

val n_gates : t -> int

val top : t -> int
(** Index of the top gate. *)

val basic_name : t -> int -> string

val gate_name : t -> int -> string

val prob : t -> int -> float
(** Failure probability of a basic event. *)

val with_probs : t -> float array -> t
(** Functional update of all basic-event probabilities. *)

val gate_kind : t -> int -> gate_kind

val gate_inputs : t -> int -> node array
(** Shared array; do not mutate. *)

val basic_index : t -> string -> int option

val gate_index : t -> string -> int option

val topological_gates : t -> int array
(** Gate indices ordered children-before-parents. *)

val gate_parents : t -> int -> int array
(** Gates that have the given gate as input. *)

val basic_parents : t -> int -> int array
(** Gates that have the given basic event as input. *)

(** {1 Semantics} *)

val eval_gates : t -> failed:(int -> bool) -> bool array
(** [eval_gates t ~failed] computes, for every gate, whether the scenario
    [{a | failed a}] fails it (bottom-up evaluation). *)

val eval_gates_into : t -> failed:(int -> bool) -> bool array -> unit
(** [eval_gates_into t ~failed values] is {!eval_gates} writing into the
    caller-supplied buffer [values] (at least [n_gates t] entries) instead
    of allocating. Hot closure loops evaluate gates per explored state;
    this keeps them allocation-free.

    @raise Invalid_argument when the buffer is too small. *)

val fails_top : t -> failed:(int -> bool) -> bool
(** Does the scenario fail the top gate? *)

val scenario_probability : t -> Sdft_util.Int_set.t -> float
(** [p(Xi)] — probability that exactly the events of the scenario fail
    (Section II): [prod_{a in Xi} p(a) * prod_{a notin Xi} (1 - p(a))]. *)

val exact_top_probability_enumerate : t -> float
(** Exact [p(FT)] by enumerating all [2^n] scenarios — exponential; intended
    as a test oracle for small trees.

    @raise Invalid_argument when there are more than 20 basic events. *)

(** {1 Structure} *)

val descendant_basics : t -> int -> Sdft_util.Int_set.t
(** Basic events in the subtree of a gate (memoised per tree). *)

val depth : t -> int
(** Longest path from the top gate to a leaf. *)

type stats = {
  n_basic : int;
  n_gate : int;
  n_and : int;
  n_or : int;
  n_atleast : int;
  tree_depth : int;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
