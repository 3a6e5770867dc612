(** Parallel map over domains with sound exception propagation.

    [Domain.join] re-raises a worker's exception, but a naive
    spawn/join/collect loop then trips over the slots the dead worker never
    filled, masking the original failure behind an [Option.get] error. This
    module captures the {e first} worker exception, lets every domain wind
    down, and re-raises the original with its backtrace. *)

val map_init :
  domains:int -> (unit -> 'state) -> ('state -> 'a -> 'b) -> 'a array -> 'b array
(** [map_init ~domains init f work] maps [f] over [work] using [domains]
    domains in total, but never more domains than [work] has items (the
    calling domain participates, so one fewer are spawned; one domain runs
    sequentially). Each domain calls [init ()]
    once and passes the resulting state to every [f] call it executes; use
    this for per-domain scratch space. Work items are claimed dynamically
    from a shared counter, so the output order always matches the input
    order but the assignment of items to domains does not. A call that
    spawns domains finishes a major GC cycle before the spawn and after
    the join, so the spawned domains' heaps return to the caller before
    [map_init] does; each costs in proportion to the caller's live heap.

    If any [f] or [init] call raises, the first exception (by completion
    order) is re-raised in the caller after all domains have joined;
    remaining unclaimed work is skipped. *)

val map_init_result :
  domains:int ->
  (unit -> 'state) ->
  ('state -> 'a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array
(** Crash-containing variant of {!map_init}: an exception raised by [f] on
    one item yields [Error (exn, backtrace)] in that item's slot instead of
    aborting the whole map, so one poisoned work item degrades rather than
    killing the batch. Scheduling and output order are those of
    {!map_init}; an [init] failure is still fatal and re-raised. *)
