(** Growable arrays (OCaml 5.1 has no [Dynarray] yet).

    A [Vec.t] is a mutable sequence with amortized O(1) [push] and O(1)
    random access. Used pervasively by the state-space builders. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty vector; the first {!push} allocates its storage. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append an element at the end. *)

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element; raises [Invalid_argument] when out of
    bounds. *)

val clear : 'a t -> unit
(** Remove all elements (keeps capacity). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
(** Fresh array holding the current elements in order. *)

val to_list : 'a t -> 'a list
