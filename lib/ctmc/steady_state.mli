(** Long-run behaviour of CTMCs.

    Repairable safety systems are often characterised by their steady-state
    unavailability (the long-run fraction of time spent failed) in addition
    to the mission unreliability computed by {!Transient}. This module
    solves the global balance equations by Gauss–Seidel sweeps on the
    embedded jump structure. *)

val solve : ?max_iter:int -> ?tolerance:float -> Ctmc.t -> float array option
(** [solve chain] is the stationary distribution [pi] with
    [pi Q = 0, sum pi = 1], or [None] when the iteration does not converge
    within [max_iter] (default 100_000) sweeps to [tolerance] (default
    1e-12). Intended for irreducible chains; on reducible chains the result
    depends on the (uniform) starting vector and is returned as-is. *)

val unavailability : ?max_iter:int -> ?tolerance:float -> Ctmc.t -> failed:(int -> bool) -> float option
(** Long-run probability mass of the failed states. *)
