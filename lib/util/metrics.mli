(** Lightweight metrics: named monotonic counters, gauges and fixed-bucket
    histograms, grouped in registries, with JSON and Prometheus text
    serialization.

    A {e registry} ({!t}) holds one process- or analysis-scoped set of
    instruments, and every registration names its registry: library code
    resolves its instruments from the registry of the observability
    context it was handed ({!Obs.t}'s [metrics]), and process-level
    instruments with no analysis to belong to — the disk store's appends,
    the cache breaker — name {!default}, the registry the executables dump
    for [--metrics]. Span timings are histograms too: {!Obs.span} observes
    each span's duration into the histogram of the same name, whose [sum]
    and [count] are the span's total seconds and number of intervals.

    All updates are thread-safe under multiple domains: counters and
    histograms are updated with [Atomic] read-modify-write loops (no
    registry mutex on the hot path); only registration of a {e new} name
    takes a lock. Instruments are cheap enough to update from parallel
    workers, but code with a very hot inner loop should accumulate locally
    and publish once per call (see {!add}). *)

type counter
(** A monotonically increasing integer. *)

type gauge
(** A float cell: last-write-wins under {!set}, monotone max under
    {!set_max}. *)

type histogram
(** A lock-free distribution: observations are counted into fixed
    log-spaced buckets (four per decade over [1e-9 .. ~5.6e8], plus one
    overflow bucket), and their sum is accumulated. Because the bucket
    boundaries are fixed process-wide, snapshots taken on different domains
    or at different times merge {e exactly} — merging is integer addition
    per bucket (see {!hist_merge}). *)

(** {1 Registries} *)

type t
(** A registry of instruments. *)

val create : unit -> t
(** A fresh, empty registry, isolated from every other. *)

val default : t
(** The process-global registry: what the executables' [--metrics] flag
    dumps, and what pipeline entry points use when no context is passed
    (through {!Obs.default}). *)

(** {1 Registration}

    Registering the same name twice in one registry returns the same
    instrument, so instruments can be created at module-initialization time
    or lazily. Names are namespaced by convention, e.g.
    ["mocus.partials_generated"]. A name may be reused across kinds
    (counters, gauges and histograms live in separate namespaces). *)

val counter_in : t -> string -> counter

val gauge_in : t -> string -> gauge

val gauge_max_in : t -> string -> gauge
(** Same representation as {!gauge_in}; registered for updating with
    {!set_max} (peak-heap, max-queue-depth). The name distinguishes intent
    at the call site only — a [gauge_in] and a [gauge_max_in] with the same
    name are the same instrument. *)

val histogram_in : t -> string -> histogram

(** {1 Updates} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] bumps the counter by [n >= 0]. Use this to publish a locally
    accumulated total with a single atomic update. *)

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** [set_max g v] raises the gauge to [v] if [v] is larger, with a CAS
    loop, so concurrent updates from parallel domains converge on the
    maximum regardless of interleaving (plain {!set} keeps whichever write
    lands last). Monotone with respect to the gauge's current value; the
    initial value is [0.], so it is meant for non-negative quantities. *)

val observe : histogram -> float -> unit
(** Count one observation into its bucket and add it to the sum. Lock-free:
    one atomic increment plus one CAS-add. [NaN] counts as [0.]. *)

(** {1 Reads} *)

val counter_value : counter -> int

val gauge_value : gauge -> float

(** {1 Histogram values}

    The pure {!hist} record is both the snapshot form of a live
    {!histogram} and a free-standing value for tests: {!hist_merge} is
    associative and commutative, and exact on counts (bucket counts are
    integers; only [sum] is subject to float rounding). *)

type hist = {
  buckets : int array;
      (** per-bucket counts, {e not} cumulative; length {!n_buckets} *)
  sum : float;
  count : int;  (** sum of [buckets] *)
}

val n_buckets : int
(** Number of buckets, including the final overflow bucket. *)

val bucket_le : int -> float
(** Inclusive upper boundary of bucket [i]; [infinity] for the overflow
    bucket. Bucket [i] covers [(bucket_le (i-1), bucket_le i]], with
    everything at or below the first boundary (including [NaN]) in bucket
    0. *)

val hist_empty : hist

val hist_of_values : float array -> hist
(** Pure construction: bucket every value. *)

val hist_merge : hist -> hist -> hist

val hist_quantile : hist -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile as the upper boundary of
    the bucket holding the [q]-th ranked observation (the standard
    fixed-bucket estimate). [nan] when the histogram is empty; [infinity]
    when the rank falls in the overflow bucket. [q] is clamped to
    [\[0,1\]]. *)

val hist_value : histogram -> hist
(** Snapshot one live histogram. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}
(** All lists are sorted by name. *)

val snapshot_in : t -> snapshot

val reset_in : t -> unit
(** Zero every registered instrument (the registrations themselves are
    kept, so handles created earlier remain valid). Meant for tests and
    for harnesses that dump several windows from one process. *)

(** {1 Serialization} *)

val to_json_in : t -> string
(** The registry's snapshot as a JSON object:
    [{"counters": {..}, "gauges": {..}, "histograms": {"name": {"count": n,
    "sum": s, "p50": .., "p90": .., "p99": .., "buckets": [[le, count],
    ..]}, ..}}]. Histogram buckets list only non-empty buckets, with
    per-bucket (not cumulative) counts; the overflow boundary is the string
    ["+Inf"]. *)

val to_prometheus_in : t -> string
(** The registry's snapshot in Prometheus text exposition format: metric
    names are prefixed with [sdft_] and mangled to [\[a-zA-Z0-9_\]], each
    preceded by a [# TYPE] line. Counters and gauges map directly;
    histograms emit every bucket as [<name>_bucket{le="..."}] with
    {e cumulative} counts ending in [le="+Inf"], plus [_sum] and [_count].
    [_sum]/[_count] agree exactly with the JSON export, since both read
    the same snapshot. *)

type format =
  | Json_format
  | Prom_format

val write_file_in : ?format:format -> t -> string -> unit
(** Write the registry's snapshot to the given path — {!to_json_in} plus a
    trailing newline by default, {!to_prometheus_in} with
    [~format:Prom_format] — via {!Atomic_io.write_file}, so a kill mid-dump
    never leaves a truncated file. *)
