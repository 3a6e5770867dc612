(** Saved result manifests and differential re-analysis.

    [analyze --save M.json] captures an analysis run as a JSON manifest:
    the run's parameters, its total and certified interval, every cutset
    with its quantification record (via the bit-exact
    {!Cutset_model.quantification_to_json} codec), and the
    quantification-cache entries the run looked up, each a
    {!Quant_cache.encode_record} string (manifest format 2). A later
    [analyze --diff M.json] seeds its cache from that snapshot — cutsets
    whose canonical fingerprints are unchanged hit and cost nothing, only
    cutsets affected by the model edit re-solve — and reports which
    cutsets moved the top-event certified interval and by how much.

    Manifests are stamped with {!Quant_cache.version_stamp}; a manifest
    written by a different solver build still diffs (the probability
    comparison stays meaningful) but its cache entries are not trusted for
    seeding (see {!stamp_matches}). A format-1 manifest (cache entries as
    JSON objects) still loads and diffs; its cache entries are dropped,
    since they predate the current stamp anyway. *)

type cutset_record = {
  events : string list;  (** sorted basic-event names of the cutset *)
  q : Cutset_model.quantification;
}

type t = {
  stamp : string;  (** {!Quant_cache.version_stamp} of the writing build *)
  engine : string;  (** CLI spelling of the resolved engine *)
  horizon : float;
  cutoff : float;
  epsilon : float;
  max_states : int;
  total : float;
  lower : float;
  upper : float;  (** the certified interval of the saved run *)
  cutsets : cutset_record list;
  cache_entries : (string * Quant_cache.entry) list;
      (** warm-start payload: the cache entries the saved run looked up,
          sorted by key *)
}

val of_result :
  ?cache:Quant_cache.t ->
  Sdft.t ->
  Sdft_analysis.options ->
  Sdft_analysis.result ->
  t
(** Capture a run. [cache] (the cache the run used) supplies the
    warm-start entries — only those of the run's own cutsets
    ({!Sdft_analysis.cache_keys}), however many other models share the
    cache; without it the manifest still diffs but cannot warm-start
    anything. *)

val stamp_matches : t -> bool
(** The manifest was written by this solver build, so its cache entries
    may seed a {!Quant_cache.t}. *)

val save : string -> t -> unit
(** Write as JSON. Floats are emitted with 17 significant digits and
    round-trip bit-exactly. @raise Sys_error on IO failure. *)

val load : string -> (t, string) result
(** Parse a saved manifest; the error names the first offense. *)

val to_json : t -> string
val of_json : Sdft_util.Json.value -> (t, string) result

(** {1 Differential comparison} *)

type change =
  | Moved of float * float  (** old and new [p~(C)]; bitwise different *)
  | Appeared of float  (** cutset only in the new run *)
  | Disappeared of float  (** cutset only in the saved run *)

type diff_entry = {
  d_events : string list;
  d_change : change;
  d_requantified : bool;
      (** the new run re-solved this cutset's product chain (a dynamic
          cutset that missed the warm cache); [false] for cutsets that only
          exist on the old side *)
}

type diff = {
  entries : diff_entry list;
      (** changed cutsets only, by decreasing absolute probability delta *)
  n_unchanged : int;  (** matched cutsets with bit-identical probability *)
  n_requantified : int;
      (** dynamic cutsets of the new run that missed the warm cache — with
          an intact warm-start this counts exactly the cutsets affected by
          the model edit *)
  old_total : float;
  new_total : float;
  old_interval : float * float;
  new_interval : float * float;
}

val diff : t -> Sdft.t -> Sdft_analysis.result -> diff
(** Match the saved cutsets against a fresh result by sorted
    basic-event-name sets. Probabilities are compared bitwise — the codec
    round-trips doubles exactly, so an unchanged cutset served from the
    warm cache shows up as exactly unchanged. *)

val pp_diff : Format.formatter -> diff -> unit
(** The [analyze --diff] report: old/new totals and intervals, then each
    changed cutset with its move. *)
