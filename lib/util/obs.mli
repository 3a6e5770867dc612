(** Observability contexts: one bundle of a {!Metrics} registry, a
    {!Trace} sink, a {!Failpoint} registry and an optional {!Progress}
    reporter, created per analysis and threaded through the pipeline as
    [?obs].

    Pipeline entry points default [?obs] to {!default}, the context of the
    process-global [Metrics.default] / [Trace.default] /
    [Failpoint.default] — the registries the executables' [--metrics],
    [--trace] and [SDFT_FAILPOINTS] act on. Below the entry points nothing
    is implicit: every instrument, span and failpoint names the registry
    it acts on. Code that must be reentrant — concurrent analyses in one
    process, the analysis server — calls {!create} per request and gets
    instruments, spans and failpoints that are fully isolated from every
    other context.

    Observability only observes: for a fixed model and options, analysis
    results are bit-identical whichever context is passed, with progress
    on or off. *)

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  failpoints : Failpoint.t;
  progress : Progress.t option;
  peak_heap : Metrics.gauge;
      (** the context's ["analysis.peak_heap_mb"] gauge, raised with
          [set_max] at every phase boundary, at {!finish}, and with
          progress on at every guard probe and {!step} *)
  probe : (unit -> unit) option;
      (** extra liveness callback folded into {!on_probe} — the analysis
          server's worker-watchdog heartbeat (see {!with_on_probe}) *)
}

val default : t
(** The process-global context: default registries, no progress. *)

val create :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?failpoints:Failpoint.t ->
  ?progress:Progress.t ->
  unit ->
  t
(** A fresh, fully isolated context. Omitted components are created fresh
    (the trace sink enabled); pass a component explicitly to share or
    preconfigure it. No progress reporter unless one is given. *)

val with_progress : t -> Progress.t -> t
(** The same context with a progress reporter attached — how the CLI adds
    [--progress] to {!default}. *)

val with_on_probe : t -> (unit -> unit) -> t
(** The same context with an extra probe callback: {!on_probe} then fires
    it on every guard probe, before the progress tick. The analysis server
    uses this to feed per-worker heartbeats to its watchdog without
    touching the progress machinery. *)

(** {1 Spans}

    The one way library code times an interval. A span reads the clock
    once when it opens and once when it closes, observes the duration into
    the histogram named after the span, and — when the context's trace
    sink is enabled — records the trace event with that same start and
    duration. So for every span name, the histogram's [count] is the
    number of trace events and its [sum] their total [ev_dur], whether or
    not tracing is on. *)

type span
(** A span name resolved against one registry: the name and its
    histogram. Modules resolve their spans once per run, in the same
    handles record as their counters, so a per-cutset span costs no
    registry lookup. *)

val span_in : Metrics.t -> string -> span
(** [span_in m name] registers (or finds) the histogram [name] in [m]. *)

val span :
  t -> ?attrs:(string * Trace.value) list -> span -> (unit -> 'a) -> 'a
(** [span obs s f] runs [f] inside span [s], recording on return and on
    raise. [s] must come from [obs.metrics]; [attrs] go to the trace event
    (see {!Trace.with_span}). *)

val span_timed :
  t -> ?attrs:(string * Trace.value) list -> span -> (unit -> 'a) ->
  'a * float
(** {!span}, also returning the duration it recorded — for results that
    report their own phase times. *)

(** {1 Progress and heap} *)

val step : t -> ?cost:float -> unit -> unit
(** One work item (cutset) finished, with its schedule-cost proxy. A no-op
    without progress: the heap is sampled at phase boundaries instead,
    not per cutset. *)

val begin_phase :
  t ->
  string ->
  ?total:int ->
  ?cost_total:float ->
  ?skipped:int ->
  ?n_done:int ->
  unit ->
  unit
(** Sample the heap into the peak-heap gauge and, with progress on, start
    the phase's display (see {!Progress.begin_phase}; [skipped]/[n_done]
    let a resumed sweep report remaining work instead of the full
    total). *)

val finish : t -> unit
(** End of an analysis: sample the heap into the peak-heap gauge and close
    the progress display, if any. *)

val on_probe : t -> (unit -> unit) option
(** [Some] probe callback for [Guard.create ?on_probe] when the context has
    a progress reporter or an extra probe ({!with_on_probe}), [None]
    otherwise — so guards stay passive when nothing wants the heartbeat.
    With progress on, each probe also samples the heap and refreshes the
    rate-limited display. *)

val write_dumps :
  t -> ?format:Metrics.format -> ?metrics:string -> ?trace:string -> unit ->
  string list
(** The executables' [--metrics FILE] / [--trace FILE] dumps of the
    context's registry and sink ({!Metrics.write_file_in},
    {!Trace.write_file_in}), each when given. Returns the messages of the
    writes that failed. *)
