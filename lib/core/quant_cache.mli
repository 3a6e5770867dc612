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
    the fingerprint is represented by its 128-bit MD5 digest (hex),
    computed once per lookup; colliding digests of distinct
    non-adversarial model encodings are vastly less likely than
    solver-epsilon-sized noise.

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
    tokens (see {!Sdft_analysis.point_key}, its other user). Keys use its
    digest, see {!key_of}. *)

val key_suffix :
  engine_tag:string ->
  epsilon:float ->
  max_states:int ->
  horizon:float ->
  string
(** The numerical half of a cache key:
    [|e=<epsilon>|s=<max_states>|t=<horizon>], floats as hex literals,
    then, unless [engine_tag] is empty, [|eng=<engine_tag>]. It depends
    on nothing else, so a caller making many lookups under one set of
    parameters builds it once and passes it to each {!lookup}. *)

val key_of :
  ?engine_tag:string ->
  epsilon:float ->
  max_states:int ->
  horizon:float ->
  Cutset_model.t ->
  string option
(** The exact cache key {!lookup} uses for this cutset — the fingerprint
    digest (hex) followed by the {!key_suffix} of the parameters — or
    [None] for model-less (purely static / impossible) cutsets, which
    bypass the cache. Applied to the parameters alone it builds the suffix
    once, and the function it returns only fingerprints each cutset. *)

val digest : Sdft.t -> string
(** The hex MD5 digest of a model's {!fingerprint}: the first half of
    every key. It depends on the [FT_C] alone, so a caller that meets one
    cutset at many horizons computes it once. *)

val lookup :
  t ->
  suffix:string ->
  ?obs:Sdft_util.Obs.t ->
  string ->
  string * Cutset_model.solution option
(** [lookup t ~suffix digest] is the cache's lookup site, for a cutset
    whose [FT_C] has the {!digest} [digest]: the cutset's key — [digest]
    followed by [suffix], a {!key_suffix}, so equal to {!key_of} under the
    same parameters — and, on a hit, the stored solution (a
    {!Cutset_model.of_solution} away from the cutset's quantification).
    Purely static and impossible cutsets have no [FT_C] and bypass the
    cache. A hit counts itself; a miss counts nothing yet,
    because the caller may answer several cutsets of one key with a single
    solve: {!answer} counts it. The engine tag in [suffix] keeps entries
    attributable to the cutset engine whose analysis produced them, so two
    engines racing over one shared cache never alias each other's entries.
    [obs] (default {!Sdft_util.Obs.default}) supplies the observability
    context: its [cache.lookup] {!Sdft_util.Failpoint} site fires before
    the key is formed, the lookup's latency lands on its
    [cache.lookup_s] histogram, and the hit counters and trace instant go
    to its registries. *)

val answer :
  t ->
  ?obs:Sdft_util.Obs.t ->
  string ->
  (unit -> Cutset_model.solution) ->
  Cutset_model.solution * bool
(** [answer t key solve] answers a key that {!lookup} missed: [true] with
    the stored solution when some solve has filled it since (a hit),
    otherwise [false] with [solve ()], counted as a miss and stored. Hits
    and misses are published on the [quant_cache.hits] and
    [quant_cache.misses] counters and as {!Sdft_util.Trace} instants.
    [Sdft_product.Too_many_states] — like {!Sdft_util.Guard.Limit_hit} —
    propagates from [solve] uncached, so retrying with a larger bound is
    never poisoned by a previous failure. *)

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
    {e circuit breaker}. The breaker starts [closed]; three consecutive
    append failures (or a single failure that tore the
    {!Sdft_util.Store} handle down) trip it [open], where appends are
    skipped — but remembered — for a deterministic cooldown counted in
    skipped appends (four, doubling per consecutive open episode up to
    64). The cooldown's end moves the
    breaker to [half_open]; the next append becomes a {e probe} that
    reopens the file if necessary, backfills every entry the file is
    missing (skipped records, and — after a reopen — anything lost with an
    unflushed batch), writes the pending record and flushes. A successful
    probe closes the breaker and clears [disk_error] — the disk tier heals
    without restarting the process; a failed probe re-opens it with a
    doubled cooldown. State and counters are visible in {!disk_stats}; a
    failed {!open_disk} itself still degrades to a plain memory-only cache
    (no breaker — there is nothing to recover to). *)

type entry = Cutset_model.solution = {
  e_prob : float;  (** dynamic probability, before the static multiplier *)
  e_states : int;
  e_transitions : int;
  e_steps : int;
}
(** The cached value: result plus solve provenance. *)

val version_stamp : string
(** Store-header stamp: record-codec revision + build-time digest of the
    solver sources (see [tools/gen_stamp]). *)

val open_disk : string -> t
(** [open_disk path] returns a cache warm-started from [path] (created
    empty if absent) that persists fresh solves back to it, flushing every
    32 appends. Three consecutive append failures trip the circuit breaker;
    it skips four appends before the first half-open probe, doubling per
    consecutive open episode up to 64. Never raises on IO trouble: the
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
