(** Plain-text tables, in the style of the tables in the paper.

    The benchmark harness prints one [Table.t] per reproduced table so the
    output can be compared side by side with the publication. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows may be shorter than the header; missing cells render empty. *)

val print : t -> unit
(** Render to stdout with aligned columns and a rule under the header. *)

val to_string : t -> string

(** Formatting helpers for numeric cells. *)

val cell_sci : float -> string
(** Scientific notation with 3 significant digits, e.g. ["4.09e-09"]. *)

val cell_duration : float -> string
(** Seconds rendered like the paper ("7.9s", "1m 53s"). *)
