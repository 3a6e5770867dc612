(** Observability contexts: one bundle of a {!Metrics} registry, a
    {!Trace} sink, a {!Failpoint} registry and an optional {!Progress}
    reporter, created per analysis and threaded through the pipeline as
    [?obs].

    The {e default-context compatibility rule}: every pipeline entry point
    defaults [?obs] to {!default}, which wraps the process-global
    [Metrics.default] / [Trace.default] / [Failpoint.default] — so
    existing call sites, the CLI flags ([--metrics], [--trace],
    [SDFT_FAILPOINTS]) and the benches behave exactly as before. Code that
    must be reentrant — concurrent analyses in one process, the future
    analysis server — calls {!create} per request and gets instruments,
    spans and failpoints that are fully isolated from every other context.

    Observability only observes: for a fixed model and options, analysis
    results are bit-identical whichever context is passed, with progress
    on or off. *)

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  failpoints : Failpoint.t;
  progress : Progress.t option;
  peak_heap : Metrics.gauge;
      (** the context's ["analysis.peak_heap_mb"] gauge, updated with
          [set_max] at every {!tick}/{!step} *)
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

(** {1 Progress driving}

    All of these are no-ops when the context has no progress reporter. *)

val tick : t -> unit
(** Heartbeat: update the peak-heap gauge ([set_max]) and rate-limited
    display. Wired into guard probes via {!on_probe}. *)

val step : t -> ?cost:float -> unit -> unit
(** One work item (cutset) finished, with its schedule-cost proxy. *)

val begin_phase :
  t ->
  string ->
  ?total:int ->
  ?cost_total:float ->
  ?skipped:int ->
  ?n_done:int ->
  unit ->
  unit
(** See {!Progress.begin_phase}; [skipped]/[n_done] let a resumed sweep
    report remaining work instead of the full total. *)

val finish_progress : t -> unit

val on_probe : t -> (unit -> unit) option
(** [Some] probe callback for [Guard.create ?on_probe] when the context has
    a progress reporter or an extra probe ({!with_on_probe}), [None]
    otherwise — so guards stay passive when nothing wants the heartbeat. *)

val write_dumps :
  ?format:Metrics.format -> ?metrics:string -> ?trace:string -> unit ->
  string list
(** The executables' [--metrics FILE] / [--trace FILE] dumps of the default
    registries ({!Metrics.write_file}, {!Trace.write_file}), each when
    given. Returns the messages of the writes that failed. *)

val heap_mb : unit -> float
(** Current major-heap size in MB ([Gc.quick_stat]). *)
