(** Reusable SD modeling patterns (Figure 1 of the paper).

    Building an SD fault tree with the raw API means creating gates and
    separately accumulating the dynamic-event and trigger associations.
    These helpers build the recurring patterns — a component with a static
    failure-to-start and a dynamic failure-in-operation, a running/standby
    spare pair, a redundant system triggering its standby train — and return
    the {e pending} associations to pass to {!Sdft.make} at the end. *)

type pending = {
  dynamic : (string * Dbe.t) list;
  triggers : (string * string) list;
}

val merge : pending list -> pending

val make_sdft : Fault_tree.Builder.t -> top:Fault_tree.node -> pending -> Sdft.t
(** [Builder.build] followed by [Sdft.make] with the accumulated
    associations. *)

val component :
  Fault_tree.Builder.t ->
  name:string ->
  p_start:float ->
  lambda:float ->
  ?mu:float ->
  ?phases:int ->
  ?triggered:bool ->
  unit ->
  Fault_tree.node * pending
(** Figure 1 (left, 2): an OR gate ["<name>"] over a static
    failure-to-start ["<name>.start"] and a dynamic failure-in-operation
    ["<name>.run"]. With [triggered] the run event gets on/off structure
    (and must be connected by {!trigger} or inside {!standby_pair}). *)

val standby_pair :
  Fault_tree.Builder.t ->
  name:string ->
  p_start:float ->
  lambda:float ->
  ?mu:float ->
  ?phases:int ->
  unit ->
  Fault_tree.node * pending
(** Figure 1 (left, 3): an AND gate ["<name>"] over a running component
    ["<name>.A"] and a standby component ["<name>.B"] whose
    failure-in-operation is triggered by the failure of the running one.
    Fails when both trains are failed at the same time. *)
