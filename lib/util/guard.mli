(** Per-analysis resource governance: wall-clock deadlines and memory
    ceilings with cheap cooperative checkpoints.

    A guard is created once per analysis from the caller's limits and then
    threaded through every potentially unbounded loop (MOCUS expansion,
    product-state exploration, BDD construction, uniformization). The loops
    call {!check} each iteration; the guard amortizes the actual clock and
    GC probes over a stride of ~4k calls, so the fast path is a couple of
    loads. When a limit is exceeded, {!Limit_hit} is raised with a typed
    reason and the enclosing analysis walks its degradation ladder instead
    of hanging or dying.

    A guard may be shared across domains: the deadline and ceiling are
    immutable, and the stride counter tolerates racy updates (a lost
    decrement only delays one probe). *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Mem_limit  (** the major-heap ceiling was exceeded *)
  | State_limit  (** a state-space cap was hit ({!Sdft_product.Too_many_states}) *)
  | Worker_crash  (** a quantification worker died; its slot was contained *)

exception Limit_hit of reason

val reason_to_string : reason -> string
(** Short lowercase label: ["deadline"], ["memory limit"], ["state limit"],
    ["worker crash"]. *)

type t

val create :
  ?deadline:float -> ?mem_limit_mb:int -> ?on_probe:(unit -> unit) -> unit -> t
(** [create ?deadline ?mem_limit_mb ()] starts the clock now: [deadline] is
    a relative wall-clock budget in seconds, [mem_limit_mb] a ceiling on the
    major-heap size in megabytes (probed with [Gc.quick_stat], so it tracks
    the heap the runtime has actually grown to). Omitted limits never trip.

    [on_probe] is called at every amortized probe of {!check} — once per
    ~4096 calls, before the limit checks — and is the hook for live
    progress reporting: it piggybacks on the stride the hot loops already
    pay for, and attaching it makes {!check} take the stride path even
    without limits. It must not raise and must be domain-safe when the
    guard is shared across domains. It only {e observes} — analysis
    results are bit-identical with or without it.

    @raise Invalid_argument on a negative deadline or non-positive
    ceiling. *)

val none : t
(** A guard with no limits; {!check} on it is a single load. Use as the
    default so unguarded call sites pay (almost) nothing. *)

val status : t -> reason option
(** Immediate (non-amortized) probe: [Some reason] when a limit is already
    exceeded. Use between work items, where raising would lose work that is
    already done. *)

val check_now : t -> unit
(** Immediate probe that raises {!Limit_hit} when a limit is exceeded. Use
    in loops whose single iteration is already expensive (one uniformization
    step), where amortization would skip too far ahead. *)

val check : t -> unit
(** Amortized cooperative checkpoint for hot loops: decrements a stride
    counter and probes the clock/GC (and runs [on_probe]) only every ~4096
    calls.

    @raise Limit_hit when a limit is exceeded. *)
