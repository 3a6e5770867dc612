(** Hierarchical tracing: nested spans with typed attributes and point
    events, buffered per domain, exported as JSONL or Chrome trace-event
    JSON (loadable in Perfetto / [chrome://tracing]).

    Complements {!Metrics}: metrics aggregate (one number per counter for a
    whole run), traces keep every interval with its start time, duration,
    nesting depth and domain — "which cutset cost the time" instead of "how
    much time cutsets cost in total".

    Events are recorded into a {e sink} ({!t}), which every call names:
    the process-global {!default} (disabled until {!set_enabled_in}; the
    executables' [--trace] flag flips it) or the sink of an observability
    context ({!Obs}), so concurrent analyses in one process never
    interleave events. Library code opens spans through {!Obs.span}, which
    also observes each duration into a histogram; {!with_span} is the
    primitive underneath it. The disabled path is one atomic load per call
    — nothing allocates, and no time source is read unless a close
    callback asks for the duration — so instrumentation can stay in hot
    library code permanently. Analysis results are bit-identical with
    tracing enabled or disabled: tracing only observes.

    Each domain writes to its own buffer within a sink (the writing side is
    only touched by the owning domain, never locked). Buffers outlive their
    domain, so spans recorded by {!Parallel.map_init} workers are merged
    into the export after the join. {!snapshot_in}, {!reset_in} and the
    exporters are meant to run while the traced workload is quiescent. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type kind =
  | Span
  | Instant

type event = {
  ev_name : string;
  ev_kind : kind;
  ev_start : float;  (** Unix epoch seconds *)
  ev_dur : float;  (** seconds; [0.] for instants *)
  ev_depth : int;  (** nesting depth at the time of recording *)
  ev_domain : int;  (** per-buffer id, stable across the export *)
  ev_attrs : (string * value) list;
}

(** {1 Sinks} *)

type t
(** A trace sink: an isolated set of per-domain buffers plus an enable
    flag. *)

val default : t
(** The process-global sink. Starts disabled. *)

val create : ?enabled:bool -> unit -> t
(** A fresh sink, isolated from every other. Enabled by default — creating
    a sink is the intent to record into it. *)

(** {1 Enabling} *)

val enabled_in : t -> bool

val set_enabled_in : t -> bool -> unit
(** Flip it before the traced workload starts; flipping it while spans are
    open is safe but those spans may be dropped. *)

(** {1 Recording} *)

val with_span :
  sink:t ->
  ?attrs:(string * value) list ->
  ?on_close:(float -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span ~sink name f] runs [f] inside a span. The span closes (and
    is recorded) whether [f] returns or raises. [attrs] are attached at
    close time, after any {!add_attr} made during the span. [on_close]
    receives the span's duration in seconds as it closes — the recorded
    event's [ev_dur] when the sink is enabled; when it is disabled the
    clock is read for the callback alone. *)

val add_attr : sink:t -> string -> value -> unit
(** Attach an attribute to the innermost open span of the calling domain;
    no-op when the sink is disabled or no span is open. *)

val instant : sink:t -> ?attrs:(string * value) list -> string -> unit
(** Record a point event at the current time and depth. *)

(** {1 Export} *)

val snapshot_in : t -> event list
(** Every recorded event from every domain buffer of the sink, sorted by
    start time. *)

val aggregate_in : t -> (string * (int * float)) list
(** Spans grouped by name as [(name, (count, total seconds))], sorted by
    decreasing total time with a stable tie-break on name — the "top spans"
    view. For a given set of events the result is deterministic regardless
    of which domain buffers recorded them: per-name durations are summed in
    a canonical order (start time, duration, domain) with Kahan
    compensation. *)

val reset_in : t -> unit
(** Drop all recorded events (buffers stay registered). *)

val to_jsonl_in : t -> string
(** One JSON object per line:
    [{"name":..,"kind":"span"|"instant","ts":..,"dur":..,"depth":..,
    "domain":..,"args":{..}}]. *)

val to_chrome_in : t -> string
(** Chrome trace-event JSON array: spans as complete ("X") events with
    microsecond timestamps rebased to the earliest event, one [tid] lane per
    domain, instants as thread-scoped "i" events. *)

val write_file_in : t -> string -> unit
(** Write the current snapshot to [path]: Chrome trace-event JSON when the
    path ends in [.json], JSONL otherwise. The write is atomic
    ({!Atomic_io.write_file}), so a kill mid-dump never leaves a truncated
    file. *)
