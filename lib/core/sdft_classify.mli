(** Classification of triggering gates (Section V-A of the paper).

    The cost of quantifying a minimal cutset depends on the shape of the
    subtrees of its triggering gates:

    - {e static branching}: every OR gate in the subtree has at most one
      dynamic child — only the dynamic events of the cutset itself matter;
    - {e static joins}: every AND gate in the subtree has no dynamic child —
      all dynamic events of the subtree matter; with {e uniform triggering}
      (all dynamic events under the gate are triggered by one common gate)
      chains of such systems stay cheap;
    - {e general}: anything else — all basic events of the subtree may
      matter.

    The classification is purely syntactic, so it can be computed up front
    and "indicated to the user" as a prediction of analysis cost. *)

type gate_class =
  | Static_branching
  | Static_joins of { uniform : bool }
  | General

val has_uniform_triggering : Sdft.t -> int -> bool
(** All dynamic basic events under the gate are triggered and share the same
    triggering gate. *)

val classify : ?obs:Sdft_util.Obs.t -> Sdft.t -> int -> gate_class
(** Class of a gate: [Static_branching] when that condition holds (it is
    checked first because it yields the cheapest quantification), otherwise
    [Static_joins] when that holds, otherwise [General]. [obs] (default
    {!Sdft_util.Obs.default}) receives the [classify.gate] trace span. *)

type report = {
  per_trigger_gate : (int * gate_class) list;
  n_static_branching : int;
  n_static_joins_uniform : int;
  n_static_joins_other : int;
  n_general : int;
}

val report : ?obs:Sdft_util.Obs.t -> Sdft.t -> report
(** Classify every triggering gate of the model. *)

val pp_class : Format.formatter -> gate_class -> unit

val pp_report : Sdft.t -> Format.formatter -> report -> unit
