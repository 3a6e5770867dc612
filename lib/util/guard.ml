type reason =
  | Deadline
  | Mem_limit
  | State_limit
  | Worker_crash

exception Limit_hit of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Mem_limit -> "memory limit"
  | State_limit -> "state limit"
  | Worker_crash -> "worker crash"

let stride = 4096

type t = {
  deadline_at : float; (* absolute gettimeofday; [infinity] = no deadline *)
  mem_limit_words : int; (* [max_int] = no ceiling *)
  limited : bool;
  on_probe : (unit -> unit) option;
      (* Ran at every amortized probe (every ~[stride] calls to [check]),
         before the limit checks. Progress reporting hangs off this hook;
         it must be domain-safe when the guard is shared. *)
  active : bool; (* [limited] or an [on_probe] is attached *)
  mutable credits : int;
      (* Racy when shared across domains: a lost decrement only postpones
         one probe by a few iterations, which is harmless. *)
}

let create ?deadline ?mem_limit_mb ?on_probe () =
  let deadline_at =
    match deadline with
    | None -> infinity
    | Some s ->
      if Float.is_nan s || s < 0.0 then
        invalid_arg "Guard.create: deadline must be non-negative";
      Unix.gettimeofday () +. s
  in
  let mem_limit_words =
    match mem_limit_mb with
    | None -> max_int
    | Some mb ->
      if mb <= 0 then invalid_arg "Guard.create: mem_limit_mb must be positive";
      mb * (1024 * 1024 / (Sys.word_size / 8))
  in
  let limited = deadline <> None || mem_limit_mb <> None in
  {
    deadline_at;
    mem_limit_words;
    limited;
    on_probe;
    active = limited || on_probe <> None;
    credits = stride;
  }

let none = create ()

let status t =
  if not t.limited then None
  else if Unix.gettimeofday () > t.deadline_at then Some Deadline
  else if
    t.mem_limit_words < max_int
    && (Gc.quick_stat ()).Gc.heap_words > t.mem_limit_words
  then Some Mem_limit
  else None

let check_now t =
  match status t with None -> () | Some r -> raise (Limit_hit r)

let check t =
  if t.active then begin
    let c = t.credits - 1 in
    t.credits <- c;
    if c <= 0 then begin
      t.credits <- stride;
      (match t.on_probe with None -> () | Some f -> f ());
      if t.limited then check_now t
    end
  end
