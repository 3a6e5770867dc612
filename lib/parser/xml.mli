(** A minimal XML parser — just enough for the Open-PSA model exchange
    format (elements, attributes, text, comments, declarations, CDATA; no
    namespaces, no DTD processing). *)

type t = {
  tag : string;
  attributes : (string * string) list;
  children : node list;
}

and node =
  | Element of t
  | Text of string

exception Parse_error of { line : int; message : string }

val parse_string : string -> t
(** The root element (prologue and comments are skipped).
    @raise Parse_error on malformed input. *)

val parse_file : string -> t

val attribute : t -> string -> string option

val attribute_exn : t -> string -> string
(** @raise Parse_error (line 0) when missing. *)

val elements : t -> t list
(** Child elements (text nodes skipped). *)

val find_opt : t -> string -> t option

val text : t -> string
(** Concatenated text content of the element (direct children only). *)

val to_string : t -> string
(** Serialise with indentation; escapes special characters. *)
