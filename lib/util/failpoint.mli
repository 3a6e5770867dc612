(** Deterministic fault-injection sites for robustness testing.

    Library code declares named sites by calling {!hit_in} at interesting
    points (the toolkit uses
    [mocus.expand], [product.explore], [transient.step], [cache.lookup] and
    [parallel.worker]). When no failpoint is armed — the production default
    — a hit is two atomic loads. Tests (via the API) or operators (via the
    [SDFT_FAILPOINTS] environment variable) arm sites with an action and a
    deterministic trigger, which lets every degradation path of the
    analysis be exercised on demand: injected exceptions, simulated
    [Out_of_memory], simulated resource limits, or plain delays.

    Sites live in a {e registry} ({!t}), which every call names. The
    process-global {!default} registry is the one the disk store, the
    worker pool and the server's request handler hit, and the only one that
    reads [SDFT_FAILPOINTS] by itself; fresh registries (one per
    {!Obs.create} context) start empty and are armed through the API, so an
    injection armed for one analysis can never fire inside a concurrent
    one.

    {2 Specification syntax}

    [SDFT_FAILPOINTS] is a comma-separated list of [SITE=SPEC] entries;
    {!configure_string_in} accepts the same syntax. A [SPEC] is
    [ACTION[@TRIGGER]]:

    - actions: [raise] (raise {!Injected}), [oom] (raise [Out_of_memory]),
      [deadline] / [mem] / [state] / [crash] (raise the corresponding
      {!Guard.Limit_hit}), [delay:SECONDS] (sleep, then continue);
    - triggers: [always] (default), [nth:N] (fire on exactly the [N]-th hit
      of the site, 1-based), [first:N] (fire on every hit up to and
      including the [N]-th — a deterministic transient fault that heals
      itself, made for exercising recovery paths), [prob:P:SEED] (fire each
      hit independently with probability [P], decided by a splitmix64 hash
      of [SEED] and the hit index — deterministic for a given seed and hit
      numbering).

    Example:
    [SDFT_FAILPOINTS="parallel.worker=raise@nth:3,transient.step=delay:0.001@prob:0.1:42"].

    Registries are domain-safe; hit indices are assigned with an atomic
    counter per site, so under parallelism the {e set} of firing hit
    indices is deterministic even though their assignment to work items can
    race. *)

exception Injected of string
(** Raised by the [raise] action; the payload is the site name. *)

type action =
  | Raise  (** raise [Injected site] *)
  | Oom  (** raise [Out_of_memory] *)
  | Limit of Guard.reason  (** raise [Guard.Limit_hit reason] *)
  | Delay of float  (** sleep this many seconds, then continue *)

type trigger =
  | Always
  | Nth of int  (** fire on exactly the n-th hit (1-based) *)
  | First of int  (** fire on hits 1..n, then heal *)
  | Prob of float * int  (** probability, seed *)

(** {1 Registries} *)

type t
(** A registry of armed sites. *)

val create : unit -> t
(** A fresh registry with no armed sites, isolated from every other. Never
    reads [SDFT_FAILPOINTS]. *)

val default : t
(** The process-global registry. *)

(** {1 Hitting sites} *)

val hit_in : t -> string -> unit
(** Checkpoint a site. No-op (two atomic loads) unless the site is armed.
    The first hit on {!default} in a process also arms any sites
    configured through [SDFT_FAILPOINTS]. Hot loops bind the registry once
    outside the loop. *)

(** {1 Arming} *)

val set_in : t -> string -> ?trigger:trigger -> action -> unit
(** Arm a site (replacing any previous arming and resetting its hit
    counter). [trigger] defaults to [Always]. *)

val clear_in : t -> string -> unit
(** Disarm one site. *)

val clear_all_in : t -> unit
(** Disarm every site (including environment-configured ones). *)

val hit_count_in : t -> string -> int
(** Hits recorded at an armed site so far; 0 when not armed. *)

val configure_string_in : t -> string -> unit
(** Parse and arm a comma-separated [SITE=SPEC] list (see above).

    @raise Failure on a malformed specification, naming the entry. *)

val load_env_in : t -> unit
(** Arm the sites described by [SDFT_FAILPOINTS], if set. The first hit on
    {!default} calls this implicitly; explicit calls re-read the
    variable. *)
