(** Sets of small non-negative integers as sorted, duplicate-free arrays.

    Cutsets are sets of basic-event indices; this representation makes the
    subsumption tests at the heart of cutset minimization cache-friendly. *)

type t = private int array
(** Invariant: strictly increasing. *)

val empty : t

val of_array : int array -> t
(** Sorts and deduplicates a copy of the argument. *)

val of_list : int list -> t

val to_list : t -> int list

val singleton : int -> t

val cardinal : t -> int

val mem : int -> t -> bool
(** Binary search. *)

val add : int -> t -> t

val remove : int -> t -> t
(** Returns the argument unchanged (no copy) if the element is absent. *)

val union : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] — is [a ⊆ b]? Linear merge. *)

val inter : t -> t -> t

val diff : t -> t -> t

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: first by cardinality, then lexicographic — the order in
    which minimization wants to scan candidate cutsets. *)

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val exists : (int -> bool) -> t -> bool

val for_all : (int -> bool) -> t -> bool

val pp : Format.formatter -> t -> unit
