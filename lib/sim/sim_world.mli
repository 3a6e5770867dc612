(** Shared discrete-event machinery for the Monte-Carlo simulators.

    A {e world} holds the per-basic-event components of the product process
    of Section III-C in the flat [Ctmc] layout (static events as two-state
    zero-rate chains whose initial distribution is the Bernoulli failure,
    dynamic events as their triggered CTMCs) together with a reusable
    gate-evaluation buffer. Both the crude simulator ({!Simulator}) and the
    rare-event importance-sampling engine ({!Rare_event}) run their trials
    on this state; neither ever builds the product state space.

    A world carries mutable scratch space, so parallel workers must each
    build their own (construction is cheap — it only aliases the component
    chains). *)

type component = {
  row_ptr : int array;
  cols : int array;
  rates : float array;
      (** state [s] owns [cols]/[rates] entries
          [row_ptr.(s) .. row_ptr.(s + 1) - 1] *)
  init_states : int array;
  init_weights : float array;
  failed : bool array;
  trigger_gate : int;  (** -1 when untriggered *)
  mode_on : bool array;
  partner : int array;
  is_static : bool;
  static_prob : float;
      (** Bernoulli failure probability of a static event; [0.] for dynamic
          events *)
}

type t

val make : Sdft.t -> t

val components : t -> component array

val sample_categorical : Sdft_util.Rng.t -> float array -> int
(** Index into a weight vector summing to 1 (the last entry absorbs any
    rounding slack). Draws exactly one uniform. *)

val sample_initial : t -> Sdft_util.Rng.t -> int array
(** Draw an (unclosed) initial local state per component, one uniform per
    component. Call {!close} before evaluating gates. *)

val close : t -> int array -> unit
(** Apply the trigger update closure in place: switch triggered events
    on/off until every trigger gate's failure status agrees with its
    events' modes. *)

val top_failed : t -> int array -> bool
(** Does the (consistent) state fail the top gate? *)

val total_rate : t -> int array -> float
(** Total rate of all enabled transitions — the exponential race rate of
    the next jump. [0.] when the state is final. *)

val apply_jump : t -> Sdft_util.Rng.t -> int array -> total:float -> bool
(** Pick the jumping transition proportionally to its rate (one uniform),
    apply it and the trigger closure. [false] on the numerical corner where
    rounding picked no transition; the state is then unchanged. *)
