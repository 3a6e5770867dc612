(** The paper's running example: an emergency cooling system with a water
    tank and two redundant pumps (Examples 1-6).

    Basic events: [a]/[c] — pump 1/2 fails to start (probability 3e-3),
    [b]/[d] — pump 1/2 fails in operation (probability 1e-3 statically; rate
    1e-3 per hour with repair rate 5e-2 dynamically), [e] — water tank
    failure (3e-6). Structure:
    [cooling = OR(AND(OR(a,b), OR(c,d)), e)]. *)

val static_tree : unit -> Fault_tree.t
(** Example 1. Its minimal cutsets are [{e}], [{a,c}], [{a,d}], [{b,c}],
    [{b,d}]; the scenario [{a,d}] has probability ~2.988e-6. *)

val sd_tree : unit -> Sdft.t
(** Example 3: [b] and [d] become dynamic. [b] runs from time zero (pump 1
    operates from the start); [d] belongs to the spare pump and is triggered
    by the failure of pump 1 (gate ["pump1"]), with repair continuing while
    untriggered and no passive failures — exactly Example 2's chains. *)

val failure_rate : float
(** 1e-3 per hour. *)

