(** Cross-analysis cache for per-cutset quantification, with an optional
    persistent disk tier.

    A horizon/parameter sweep re-quantifies the same cutset sub-models over
    and over: industrial trees repeat the same component models across
    trains, so many cutsets build {e isomorphic} [FT_C] models, and repeated
    [Sdft_analysis.analyze] calls over one model rebuild identical ones.
    This cache keys the expensive part of {!Cutset_model.quantify} — the
    product-chain construction and transient solve — on a canonical
    fingerprint of the [FT_C] sub-model together with the numerical
    parameters (epsilon, state bound, horizon). The static multiplier is
    factored {e out} of the key, so cutsets that differ only in their static
    events share one entry.

    The fingerprint is a deterministic binary encoding of the model reached
    from its top gate: gate kinds and input order, static probabilities,
    full CTMC descriptors of dynamic events (states, transitions, initial
    distribution, failed set, on/off structure) and trigger wiring, with
    names replaced by first-visit indices. Two models with equal
    fingerprints are isomorphic up to renaming and therefore have equal
    time-aware probabilities. The rel-rule does not appear in the key
    because it acts upstream, during model {e construction}: its effect is
    already captured by the fingerprinted structure. In-memory and on disk
    the fingerprint is represented by its 128-bit MD5 digest (hex), memoized
    on the {!Cutset_model.t} so repeated lookups skip the O(sub-model)
    encoding; colliding digests of distinct non-adversarial model encodings
    are vastly less likely than solver-epsilon-sized noise.

    Safe to share across domains: lookups and inserts take a per-cache lock
    (negligible next to a CTMC solve), hit/miss tallies are atomics. *)

type t

val create : unit -> t
(** A memory-only cache. *)

val hits : t -> int

val misses : t -> int
(** Misses count only quantifications that were {e cacheable} (the cutset
    had a dynamic sub-model); purely static cutsets bypass the cache and
    count as neither. *)

val fingerprint : Sdft.t -> string
(** Canonical fingerprint of a model: a binary, self-delimiting token
    stream ({!Sdft_util.Canon}: tag bytes, length-prefixed lists, varint
    ints, floats as their raw [Int64.bits_of_float] bytes), written in one
    DFS from the top gate with first-visit ids for basics and gates. It is
    injective on what it covers — no two non-isomorphic models share it —
    and, being self-delimiting, stays injective when followed by other
    tokens (see {!Sdft_analysis.point_key}). Exposed for tests and the
    cache-key micro-benchmark; lookups use its memoized digest, see
    {!key_of}. *)

val key_of :
  ?engine_tag:string ->
  epsilon:float ->
  max_states:int ->
  horizon:float ->
  Cutset_model.t ->
  string option
(** The exact cache key {!quantify} would use for this cutset — the
    memoized fingerprint digest (hex) followed by the numerical parameters
    as [|e=<epsilon>|s=<max_states>|t=<horizon>] and, for a non-empty tag,
    [|eng=<engine_tag>] — or [None] for model-less (purely static /
    impossible) cutsets, which bypass the cache. First call on a cutset computes and memoizes the digest; the
    parameter suffix is built once and reused while the parameters stay
    the same, so a lookup after the first costs one string concatenation. *)

val quantify :
  t ->
  epsilon:float ->
  max_states:int ->
  ?guard:Sdft_util.Guard.t ->
  ?workspace:Transient.workspace ->
  ?engine_tag:string ->
  ?obs:Sdft_util.Obs.t ->
  Cutset_model.t ->
  horizon:float ->
  Cutset_model.quantification
(** Drop-in replacement for {!Cutset_model.quantify}. [engine_tag], when
    non-empty, becomes part of the cache key: entries stay attributable to
    the cutset engine whose analysis produced them, so two engines racing
    over one shared cache never alias each other's entries (at the cost of
    one extra solve per shared sub-model in such races). On a hit,
    [from_cache] is set and the provenance fields ([product_states],
    [product_transitions], [solver_steps]) report the originally solved
    chain; hits and misses are also published as {!Sdft_util.Trace} instant
    events when tracing is enabled.
    [Sdft_product.Too_many_states] — like {!Sdft_util.Guard.Limit_hit} from
    [guard] — propagates uncached, so retrying with a larger bound is never
    poisoned by a previous failure. [obs] (default {!Sdft_util.Obs.default})
    supplies the observability context: its [cache.lookup]
    {!Sdft_util.Failpoint} site fires before each cacheable lookup, each
    lookup's latency lands on its [cache.lookup_s] histogram, and the
    hit/miss counters and trace instants go to its registries. [workspace]
    is per-caller solver scratch (see {!Cutset_model.quantify}); the cache
    itself stays shareable across domains. *)

(** {1 Disk tier}

    A cache opened with {!open_disk} is backed by an append-only
    {!Sdft_util.Store} log: entries present in the file are preloaded into
    the table, and every fresh solve is appended (batched; a crash loses at
    most the last unflushed batch). The same file holds the completed-point
    records of resumable sweeps (see {!record_point}). The store header is stamped with
    {!version_stamp}, so a solver or codec change silently invalidates old
    files instead of replaying stale certified results. When another
    process (or another handle in this one) already owns the writer lock,
    the store degrades to read-only sharing: warm entries still hit, fresh
    solves stay memory-only.

    IO failures after a successful open — including the [store.append]
    {!Sdft_util.Failpoint} site — never fail the analysis: they feed a
    {e circuit breaker}. The breaker starts [closed]; [breaker_threshold]
    consecutive append failures (or a single failure that tore the
    {!Sdft_util.Store} handle down) trip it [open], where appends are
    skipped — but remembered — for a deterministic cooldown counted in
    skipped appends ([breaker_cooldown], doubling per consecutive open
    episode up to [breaker_cooldown_cap]). The cooldown's end moves the
    breaker to [half_open]; the next append becomes a {e probe} that
    reopens the file if necessary, backfills every entry the file is
    missing (skipped records, and — after a reopen — anything lost with an
    unflushed batch), writes the pending record and flushes. A successful
    probe closes the breaker and clears [disk_error] — the disk tier heals
    without restarting the process; a failed probe re-opens it with a
    doubled cooldown. State and counters are visible in {!disk_stats}; a
    failed {!open_disk} itself still degrades to a plain memory-only cache
    (no breaker — there is nothing to recover to). *)

type entry = {
  e_prob : float;  (** dynamic probability, before the static multiplier *)
  e_states : int;
  e_transitions : int;
  e_steps : int;
}
(** The cached value: result plus solve provenance. *)

val version_stamp : string
(** Store-header stamp: record-codec revision + build-time digest of the
    solver sources (see [tools/gen_stamp]). *)

val open_disk :
  ?batch:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:int ->
  ?breaker_cooldown_cap:int ->
  string ->
  t
(** [open_disk path] returns a cache warm-started from [path] (created
    empty if absent) that persists fresh solves back to it. [batch] is the
    append count between flushes (default 32). [breaker_threshold] (default
    3) is the consecutive-append-failure count that trips the circuit
    breaker; [breaker_cooldown] (default 4) the skipped-append count before
    the first half-open probe, doubling per consecutive open episode up to
    [breaker_cooldown_cap] (default 64). Never raises on IO trouble: the
    result is then an ordinary memory-only cache ({!disk_stats} =
    [None]). *)

val flush : t -> unit
(** Push buffered appends to disk (no-op for memory-only caches). *)

val close : t -> unit
(** Flush, release the writer lock and close the disk tier. Idempotent;
    the cache remains usable memory-only afterwards. *)

type disk_stats = {
  disk_path : string;
  read_only : bool;  (** another writer owns the file; sharing read-only *)
  entries_loaded : int;  (** valid records preloaded at open *)
  load_ms : float;  (** wall time of the preload *)
  disk_hits : int;  (** hits served by preloaded/seeded entries *)
  disk_misses : int;  (** misses while the disk tier was attached *)
  appends : int;  (** records appended, monotone across breaker reopens *)
  disk_error : string option;
      (** the failure that tripped the breaker; cleared when a probe
          recovers the tier *)
  breaker : string;  (** ["closed"], ["open"] or ["half_open"] *)
  breaker_opens : int;  (** times the breaker tripped *)
  breaker_probes : int;  (** half-open probes attempted *)
  breaker_recoveries : int;  (** probes that restored the disk tier *)
}

val disk_stats : t -> disk_stats option
(** [None] for memory-only caches (including an {!open_disk} whose open
    failed outright). The counters are also published as metrics
    [cache.disk_hits] / [cache.disk_misses] / [cache.appends] /
    [cache.load_ms] / [cache.breaker_opens] / [cache.breaker_recoveries],
    and the load and each flush emit {!Sdft_util.Trace} instants. *)

(** {1 Completed sweep points}

    The store also carries the resume certificates of a resumable sweep
    ({!Sdft_analysis.sweep_checkpointed}): one {!Checkpoint.point} record
    per completed point, next to the per-cutset entries and under the same
    stamp and circuit breaker. Point records are not cache entries: they
    never count in [entries_loaded] and never hit a lookup. *)

val find_point : t -> string -> Checkpoint.point option
(** The point record for a {!Sdft_analysis.point_key} that this cache
    knows to be in its store: loaded at open, or appended since. Always
    [None] on a memory-only cache. *)

val record_point : t -> Checkpoint.point -> unit
(** Append a point record and flush the store before returning, so a
    caller that prints the point afterwards never shows a row a crash
    could lose. Never raises on IO trouble: a record the breaker drops is
    simply not certified, and a resume re-runs that point. Skips the
    append when an identical record for the key is already in the store,
    and does nothing on a memory-only or read-only cache. *)

(** {1 Warm-start import/export}

    The manifest side of differential re-analysis ([analyze --save] /
    [--diff]): {!export} captures the (key, entry) pairs of a run for
    embedding in a result manifest, {!seed} preloads them into a fresh
    cache so unchanged-fingerprint cutsets hit and only changed ones
    re-solve. *)

val export : t -> (string * entry) list
(** Snapshot of all entries, in no particular order. *)

val seed : t -> (string * entry) list -> int
(** Insert entries that are not already present; returns how many were
    added. Seeded entries count as warm for {!disk_stats} and are appended
    to an attached writable store, so a manifest used once also warms the
    file. *)

(** {1 Record codec, exposed for tests} *)

val encode_record : string -> entry -> string
(** [encode_record key e] is the store payload for one entry:
    [<key length>:<key>|<prob %h>|<states>|<transitions>|<steps>]. *)

val decode_record : string -> (string * entry) option
(** Inverse of {!encode_record}; [None] on any malformed payload. *)
