(** The resident analysis engine behind [sdft serve]: admission control,
    a fixed worker-domain pool, per-request isolation and the shared
    quantification cache — everything except the socket.

    The transport-free API is deliberate: the in-process test battery
    drives {!submit}/{!call} directly with the same code paths the socket
    daemon ({!Daemon}) uses, so concurrency and fault-injection properties
    proven here hold for the wire.

    {b Isolation.} Every [analyze] request runs under its own
    {!Sdft_util.Obs.create} context (fresh metrics and failpoint
    registries, and a disabled trace sink) and its own
    {!Sdft_util.Guard} budget (the request's [deadline]/[mem_limit_mb],
    falling back to the server defaults), so
    concurrent requests can never contaminate each other's instruments or
    injected faults, and a runaway request degrades itself instead of the
    daemon. A per-request [failpoints] spec arms only that request's
    registry. The aggregate server registry ({!metrics}) carries only the
    server's own instruments ([server.*]).

    {b Prepared models.} Besides the quantification cache, concurrent
    requests share one table: the {!Sdft_analysis.prepared} models of the
    last {!prepared_models} distinct model texts, keyed by the MD5 digest
    of the text, least recently used first out. A request whose text is in
    the table skips the parse and the preparation, and reuses the ZDD
    structure, plan entries and trigger sets earlier requests on the model
    computed. An entry is filled under its own mutex, and only once the
    parse completes: a text that does not parse takes no place in the
    table. The prepared model's parts are likewise stored only once their
    computation completes, so a guard trip stores nothing.
    Answers are bit-identical whichever worker filled an entry. A request
    that arms [failpoints] bypasses the table: it parses and prepares
    afresh, so every injection site of the analysis fires for it.

    {b Admission.} [analyze] requests pass a per-client in-flight quota
    and a bounded queue; both reject {e immediately} with a structured
    error carrying [retry_after] (an EWMA-based estimate of when capacity
    frees up) instead of queueing unboundedly. Cheap ops (ping, metrics,
    stats, shutdown) are answered inline and are not subject to quota.

    {b Crash containment.} Inside the analysis, per-cutset failures are
    contained by the [Worker_crash] machinery and degrade the result;
    anything that still escapes a worker is caught per request and
    answered as a [crash] error — a poisoned request can never kill the
    daemon or its pool.

    {b Self-healing.} With [watchdog_timeout] set, every busy worker
    domain heartbeats through its request's guard probes; a worker silent
    for longer than the timeout is declared {e lost}: its in-flight
    request is failed with a structured [worker_lost] error (safe to
    retry — the result was never sent), the slot is respawned with a fresh
    domain so pool capacity survives, and the zombie domain — should it
    ever wake — finds the reply already owned and exits without stealing
    work. An [answered] compare-and-swap arbitrates the race between a
    worker finishing and the watchdog firing, so the reply and all
    accounting happen exactly once either way.

    {b Idempotent retries.} A request carrying an [idem] key has its
    response line remembered in a bounded per-server window
    ([response_window]); a retry of the same (client, idem) pair is
    answered with the verbatim original bytes instead of recomputed.
    Watchdog [worker_lost] answers are never stored, so a retry after a
    lost worker really re-runs the analysis. *)

type config = {
  workers : int;  (** worker domains executing [analyze] requests *)
  queue_capacity : int;  (** admission queue bound *)
  client_quota : int;  (** max in-flight (queued + running) per client *)
  max_request_bytes : int;  (** hard frame-size cap *)
  max_request_domains : int;
      (** clamp on the per-request solver [domains] parameter *)
  default_deadline : float option;
      (** guard deadline for requests that do not set one *)
  default_mem_limit_mb : int option;
  watchdog_timeout : float option;
      (** seconds without a heartbeat before a busy worker is declared
          hung and its slot respawned; [None] disables the watchdog *)
  response_window : int;
      (** recent responses remembered per (client, idem) for idempotent
          retries; 0 disables the window *)
}

val default_config : config
(** 2 workers, queue 64, quota 16, 8 MiB frames, 1 solver domain per
    request, no default deadline or memory ceiling, watchdog off,
    response window 128. *)

type t

val prepared_models : int
(** 8: the distinct model texts whose prepared models a server keeps. *)

val create : ?config:config -> ?cache:Quant_cache.t -> unit -> t
(** Start the worker pool. [cache] (default: a fresh memory-only cache) is
    shared by every request; the caller keeps ownership and is responsible
    for {!Quant_cache.close} after {!shutdown}. *)

val submit : t -> client:string -> reply:(string -> unit) -> string -> unit
(** Admit one request line. [reply] is invoked exactly once with the
    response line — synchronously for inline ops and rejections, from a
    worker domain for admitted [analyze] requests. Exceptions raised by
    [reply] are swallowed (a vanished connection must not hurt the
    worker). [client] is the quota bucket unless the request carries its
    own ["client"] field. *)

val call : t -> client:string -> string -> string
(** Synchronous convenience over {!submit}: block until the response
    line. *)

val stopping : t -> bool
(** A shutdown has been requested (op or {!shutdown}); new requests are
    answered with [shutting_down]. *)

val request_shutdown : t -> unit
(** Flip into the [stopping] state, exactly as a [shutdown] op would; safe
    from a signal handler. Does not drain — follow with {!shutdown}. *)

val shutdown : t -> unit
(** Graceful shutdown: refuse new work, drain already-admitted requests,
    join the worker pool and {!Quant_cache.flush} the shared cache.
    Idempotent. *)

val clamp_retry_after : float -> float
(** Clamp a raw [retry_after] estimate into the sane band the server
    promises on the wire: at least 0.05 s (never "retry immediately", a
    stampede), at most 60 s (never an outage of our own pricing), NaN and
    non-finite values mapped to the floor. Every [retry_after] the server
    emits passes through this. *)

val metrics : t -> Sdft_util.Metrics.t
(** The aggregate server registry ([server.requests], [server.ok],
    [server.errors], [server.rejected_saturated], [server.rejected_quota],
    [server.crashes], [server.worker_lost], [server.idem_hits],
    [server.models_parsed] (model texts parsed: prepared-model table
    misses and requests that bypass the table),
    [server.queue_depth], [server.request_s], cache and breaker roll-up
    gauges). *)

val prometheus : t -> string
(** Prometheus exposition of {!metrics} with the cache roll-up gauges
    refreshed — the body of the [/metrics] scrape and of the [metrics]
    op. *)
