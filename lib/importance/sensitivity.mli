(** One-at-a-time sensitivity analysis (tornado diagrams).

    Each basic event's probability is pushed to its pessimistic and
    optimistic bound (by a multiplicative factor, clamped to [[0,1]]) while
    all other events stay at their point values; the swing of the rare-event
    approximation measures how much the result depends on that parameter.
    Sorting by swing gives the classical tornado diagram of a PSA review. *)

type entry = {
  event : int;
  low : float;  (** REA with the event's probability divided by the factor *)
  high : float;  (** REA with it multiplied by the factor *)
  swing : float;  (** [high - low] *)
}

type t = {
  point : float;
  entries : entry list;  (** decreasing swing *)
}

val tornado : ?factor:float -> Fault_tree.t -> Cutset.t list -> t
(** [factor] defaults to 10 (one order of magnitude each way). Only events
    appearing in some cutset are analysed. *)

val print_ascii : Fault_tree.t -> ?top:int -> t -> unit
(** Horizontal tornado bars on stdout. *)
