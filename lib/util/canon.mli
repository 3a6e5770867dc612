(** Writers of a binary canonical form: tokens appended to a {!Buffer.t}
    that is then hashed (see {!Quant_cache.fingerprint} and
    {!Sdft_analysis.point_key}).

    Every writer is injective and self-delimiting, so a sequence of tokens
    whose shape is fixed by earlier tokens (a tag, a length) decodes
    uniquely. No text formatting is involved. *)

val add_int : Buffer.t -> int -> unit
(** LEB128 varint over the unsigned 63-bit view of the int: one byte below
    128, two below 16384; negative ints take nine bytes. *)

val add_float : Buffer.t -> float -> unit
(** The 8 raw bytes of [Int64.bits_of_float], little-endian: bit-exact, so
    [0.] and [-0.] (and distinct NaN payloads) stay distinct. *)

val add_string : Buffer.t -> string -> unit
(** Length, then the bytes. *)

val add_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
(** A presence byte, then the value if there is one. *)
