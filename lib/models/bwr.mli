(** The fictive boiling-water-reactor safety study of Section VI-A.

    Five safety systems related to cooling, each with two redundant pump
    trains: ECC (Emergency Core Cooling), EFW (Emergency Feed Water), RHR
    (Residual Heat Removal), and the support systems CCW (Component Cooling
    Water, needed by both ECC and EFW) and SWS (Service Water, needed by
    CCW). If both RHR trains fail, the FEED&BLEED operator recovery is
    demanded. Core damage requires the initiating event and either the loss
    of both injection systems (ECC and EFW) or the loss of decay-heat
    removal (RHR and FEED&BLEED).

    Each pump can fail to start (static) or fail in operation (a candidate
    for dynamic treatment). Trigger edges follow the paper: the failure of
    the first train of a system triggers the failure-in-operation event of
    the second train's pump of the same system, and the failure of the
    complete RHR system triggers the FEED&BLEED injection event.

    The structure makes the train-level trigger gates satisfy {e static
    joins} (support-system chains hang under OR gates only), while the
    FEED&BLEED trigger gate (an AND over the two RHR trains) is {e general}
    — exercising all three classes of Section V-A. *)

type trigger_site =
  | Feed_and_bleed  (** RHR system failure triggers the F&B injection *)
  | Rhr_second_train
  | Efw_second_train
  | Ecc_second_train
  | Sws_second_train
  | Ccw_second_train

val all_trigger_sites : trigger_site list
(** In the cumulative order of the paper's table. *)

type config = {
  mission_hours : float;
      (** mission time used for the static probabilities of
          failure-in-operation events (paper: 24h) *)
  dynamic_pumps : bool;
      (** replace all failure-in-operation events by dynamic basic events *)
  phases : int;  (** Erlang phases [k] of the dynamic failures *)
  repair_rate : float option;  (** [mu]; [None] disables repairs *)
  triggers : trigger_site list;
  include_ccf : bool;
      (** add static common-cause failure events per pump pair (the paper
          disregards them in the dynamics experiment, noting they dominate
          otherwise) *)
}

val default_config : config
(** 24h mission, dynamic pumps with one phase, no repairs, no triggers, no
    CCF. *)

val build : config -> Sdft.t

val static_tree : ?include_ccf:bool -> ?mission_hours:float -> unit -> Fault_tree.t

