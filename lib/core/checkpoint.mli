(** Completed-point records of a resumable horizon/parameter sweep.

    A sweep run over a disk-backed quantification cache records one point
    per fully completed sweep point in the cache's own store (see
    {!Quant_cache.record_point}), next to the per-cutset entries. A sweep
    killed mid-flight (even [SIGKILL]) therefore leaves a store whose valid
    prefix holds the completed points: on [--resume] those points are
    skipped outright and their stored result reprinted bit-identically —
    floats travel as hex literals and round-trip exactly — while the
    unfinished ones re-solve only what the cache is missing. *)

type point = {
  pt_key : string;  (** {!Sdft_analysis.point_key} of model + options *)
  pt_horizon : float;
  pt_total : float;
  pt_lower : float;
  pt_upper : float;
  pt_vacuous : bool;
  pt_n_cutsets : int;
  pt_n_dynamic : int;
  pt_degraded : string option;
      (** {!Sdft_analysis.degradation_description} when the point
          degraded, [None] for a clean point *)
}

val encode_point : point -> string

val decode_point : string -> point option
(** Inverse of {!encode_point}; [None] on any malformed payload. *)
