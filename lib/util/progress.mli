(** Live, rate-limited progress reporting for long analyses.

    A reporter renders a single status line — phase, items done/total,
    percent complete, an ETA extrapolated from the declared work costs,
    elapsed time, and peak heap — and emits it at most once per interval
    through an injectable sink (stderr by default; tests inject a
    capturing function). The default sink adapts to its destination: on a
    TTY it overwrites one line with a carriage return; when stderr is a
    pipe or file it falls back to plain newline-terminated updates, so
    captured logs are never garbled by CR framing.

    The reporter is driven from two places: {!step}, called once per
    completed work item (e.g. per quantified cutset), and {!tick}, wired
    into the {!Guard.check} amortized probe so even a single long-running
    item keeps the display alive. Both are cheap, domain-safe (all state is
    atomics) and purely observational: analysis results are bit-identical
    with progress on or off. *)

type t

val create :
  ?tty:bool ->
  ?interval:float ->
  ?emit:(string -> unit) ->
  ?emit_end:(unit -> unit) ->
  unit ->
  t
(** [create ()] starts the elapsed-time clock. [tty] selects the default
    sink's framing (see {!rendered}) and defaults to
    [Unix.isatty Unix.stderr]. [interval] rate-limits emission; its
    default is 0.2 s on a TTY and 1 s otherwise (appended lines are
    costlier to a log than overwritten ones). [emit] receives each
    {e unframed} status line (default: write [rendered ~tty line] to
    stderr); [emit_end] is called once by {!finish} if anything was
    emitted (default on a TTY: newline to stderr, leaving the last status
    visible; plain mode: nothing, its lines are already terminated). *)

val rendered : tty:bool -> string -> string
(** How the default sink frames one status line: [tty:true] prefixes a
    carriage return and pads to a fixed width so successive lines
    overwrite each other; [tty:false] is the line plus a newline, safe for
    pipes and captured logs. Exposed so tests can pin both modes. *)

val begin_phase :
  t ->
  string ->
  ?total:int ->
  ?cost_total:float ->
  unit ->
  unit
(** Enter a named phase and reset the item counters. [total] is the number
    of work items (0 = unknown: only phase, elapsed and heap are shown);
    [cost_total] the summed cost proxies of all items — when given, ETA is
    based on completed cost rather than item count, which is honest under
    the cost-descending schedule (expensive items run first). Emits
    immediately. *)

val step : t -> ?cost:float -> unit -> unit
(** One work item finished, with its cost proxy. May emit (rate-limited). *)

val tick : t -> heap_mb:float -> unit
(** Heartbeat from a guard probe: record the heap high-water mark for
    display and maybe emit (rate-limited). *)

val finish : t -> unit
(** Emit one final line and terminate the display. A no-op when nothing
    was emitted since the last [finish], so finishing a display twice
    closes it once. *)
