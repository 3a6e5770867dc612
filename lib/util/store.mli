(** Append-only record log with a versioned header and CRC-per-record
    framing: the persistence substrate behind the cross-run quantification
    cache.

    On-disk layout: a magic string, a length-prefixed opaque version
    {e stamp}, then a sequence of frames [u32le length | u32le crc32 |
    payload]. Opening walks the frames and returns every record whose
    length and CRC check out, stopping at the first that does not — a
    truncated or torn tail is cleanly discarded, never surfaced as
    garbage. A header carrying a different stamp (e.g. after a solver
    change) means the whole file is ignored; the writer then truncates and
    rewrites it under the current stamp.

    Exactly one handle per path is the {e writer} (guarded by a POSIX file
    lock between processes and an in-process registry within one, since
    POSIX locks never conflict with their own process); later openers
    degrade to {!Reader} mode and see a read-only snapshot of the records
    flushed so far. Appends are buffered and flushed every [batch] records
    (and on {!flush}/{!close}), so a crash loses at most the last
    unflushed batch. The writer truncates a torn tail back to the last
    valid frame before its first append.

    {!Failpoint} sites: ["store.open"] fires on every {!open_},
    ["store.append"] on every {!append} — both before any IO, so injected
    failures exercise the callers' degrade-to-memory-only paths. *)

type t

type mode =
  | Writer  (** owns the file lock; appends land on disk *)
  | Reader  (** someone else is writing; appends are dropped *)

val open_ : ?batch:int -> stamp:string -> string -> t * string list
(** [open_ ~stamp path] opens or creates the log and returns the valid
    records in file order. A missing file is created (writer) or read as
    empty (reader); a stamp mismatch yields no records and — for the
    writer — a truncate-and-rewrite under [stamp]. [batch] (default 32)
    is the append count between automatic flushes.

    Raises [Unix.Unix_error] / [Sys_error] on unrecoverable IO errors
    (callers are expected to degrade to memory-only operation). *)

val mode : t -> mode

val healthy : t -> bool
(** [true] while the handle is a {!Writer} whose descriptor is still live —
    i.e. appends can reach the disk. Becomes [false] permanently once an IO
    failure tears the handle down (or after {!close}); always [false] for a
    {!Reader}. Circuit-breaker callers use this to distinguish an injected
    (recoverable) append failure from a torn-down handle that needs a
    reopen. *)

val append : t -> string -> bool
(** Buffer one record for writing; flushes automatically every [batch]
    appends. Returns [false] — and drops the record — in {!Reader} mode or
    after the handle broke on an IO error. Raises on a flush-triggering IO
    failure, after which the handle is permanently read-only. *)

val appended : t -> int
(** Records accepted by {!append} over the lifetime of this handle. *)

val flush : t -> unit
(** Force buffered frames out. Raises on IO failure (handle then broken,
    see {!append}). *)

val close : t -> unit
(** Flush, release the writer lock and close. Idempotent. *)

(** {1 Codec internals, exposed for tests} *)

val crc32 : string -> int
(** The IEEE CRC-32 used by the framing. *)
