(** Minimal JSON emission and parsing helpers.

    Emission is shared by the observability sinks ({!Metrics}, {!Trace}):
    escaped string literals and floats that emit [null] for non-finite
    values instead of invalid JSON. Parsing is a small recursive-descent
    reader covering the full JSON value grammar — enough for the toolkit's
    own artifacts (result manifests, metric snapshots) to be loaded back
    without an external dependency. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string, escaping quotes, backslashes and
    control characters. *)

val add_float : Buffer.t -> float -> unit
(** Append a finite float with full precision; NaN/infinities become
    [null]. *)

(** {1 Parsing} *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

val parse : string -> (value, string) result
(** Parse a complete JSON document. The error string names the offset of
    the first offense. Numbers are represented as floats (like JSON
    itself); [\u] escapes decode to UTF-8. *)

val add_value : Buffer.t -> value -> unit
(** Re-emit a parsed value. Floats render via {!add_float}, so
    [parse] ∘ {!value_to_string} is the identity on any document our own
    writers emit; used to echo client-supplied fragments (request ids)
    back verbatim. *)

val value_to_string : value -> string
(** [value_to_string v] is [add_value] into a fresh buffer. *)

(** {2 Accessors}

    All total: a shape mismatch yields [None] rather than an exception, so
    loaders can fold a whole walk into one diagnostic. *)

val member : string -> value -> value option
(** Field lookup on an [Object]; [None] on missing field or non-object. *)

val to_string : value -> string option

val to_float : value -> float option

val to_int : value -> int option
(** [Some] only for numbers with zero fractional part. *)

val to_bool : value -> bool option

val to_list : value -> value list option
