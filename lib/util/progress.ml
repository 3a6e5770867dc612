(* Live progress reporting. The reporter is pure observation: it is driven
   from Guard probes and per-work-item steps, keeps its state in atomics,
   and rate-limits emission by wall clock — it never influences the
   computation, so results are bit-identical with it on or off. *)

type t = {
  emit : string -> unit;
  emit_end : unit -> unit;
  interval : float;
  started_at : float;
  phase : string Atomic.t;
  n_done : int Atomic.t;
  total : int Atomic.t;
  cost_done : float Atomic.t;
  cost_total : float Atomic.t;
  heap_mb : float Atomic.t; (* peak heap seen at ticks, for display *)
  last_emit : float Atomic.t;
  emitted : bool Atomic.t;
}

(* Default sink: on a TTY, a single carriage-return-overwritten stderr
   line, padded to a fixed width so a shorter line fully covers its
   predecessor; everywhere else (piped logs, CI captures, redirects) plain
   newline-terminated lines — CR overwriting would garble the capture. *)
let rendered ~tty line =
  if tty then Printf.sprintf "\r%-79s" line else line ^ "\n"

let stderr_is_tty = lazy (Unix.isatty Unix.stderr)

let create ?tty ?interval ?emit ?emit_end () =
  let tty =
    match tty with Some b -> b | None -> Lazy.force stderr_is_tty
  in
  (* Plain-line mode appends instead of overwriting, so it defaults to a
     gentler cadence to keep captured logs readable. *)
  let interval =
    match interval with Some i -> i | None -> if tty then 0.2 else 1.0
  in
  let emit =
    match emit with
    | Some e -> e
    | None ->
      fun line ->
        output_string stderr (rendered ~tty line);
        flush stderr
  in
  let emit_end =
    match emit_end with
    | Some e -> e
    | None -> if tty then prerr_newline else fun () -> ()
  in
  {
    emit;
    emit_end;
    interval;
    started_at = Unix.gettimeofday ();
    phase = Atomic.make "";
    n_done = Atomic.make 0;
    total = Atomic.make 0;
    cost_done = Atomic.make 0.0;
    cost_total = Atomic.make 0.0;
    heap_mb = Atomic.make 0.0;
    last_emit = Atomic.make 0.0;
    emitted = Atomic.make false;
  }

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let rec atomic_max_float a x =
  let old = Atomic.get a in
  if x > old && not (Atomic.compare_and_set a old x) then atomic_max_float a x

let pp_eta seconds =
  if Float.is_finite seconds && seconds >= 0.0 then
    if seconds < 60.0 then Printf.sprintf "%.1fs" seconds
    else if seconds < 3600.0 then
      Printf.sprintf "%dm%02ds"
        (int_of_float seconds / 60)
        (int_of_float seconds mod 60)
    else Printf.sprintf "%.1fh" (seconds /. 3600.0)
  else "?"

let render t =
  let phase = Atomic.get t.phase in
  let n_done = Atomic.get t.n_done in
  let total = Atomic.get t.total in
  let elapsed = Unix.gettimeofday () -. t.started_at in
  let buf = Buffer.create 96 in
  Printf.ksprintf (Buffer.add_string buf) "[%s]"
    (if phase = "" then "…" else phase);
  if total > 0 then begin
    (* Fraction done by schedule cost when the phase declared costs (the
       cost-descending schedule front-loads expensive cutsets, so the cost
       fraction is the honest ETA basis), by plain count otherwise. *)
    let frac =
      let ct = Atomic.get t.cost_total in
      if ct > 0.0 then Float.min 1.0 (Atomic.get t.cost_done /. ct)
      else float_of_int n_done /. float_of_int total
    in
    Printf.ksprintf (Buffer.add_string buf) " %d/%d (%.0f%%)" n_done total
      (100.0 *. frac);
    if frac > 0.0 && frac < 1.0 then
      Printf.ksprintf (Buffer.add_string buf) " · ETA %s"
        (pp_eta (elapsed *. (1.0 -. frac) /. frac))
  end;
  Printf.ksprintf (Buffer.add_string buf) " · %.1fs elapsed" elapsed;
  let heap = Atomic.get t.heap_mb in
  if heap > 0.0 then
    Printf.ksprintf (Buffer.add_string buf) " · heap %.0f MB" heap;
  Buffer.contents buf

let force_emit t =
  Atomic.set t.last_emit (Unix.gettimeofday ());
  Atomic.set t.emitted true;
  t.emit (render t)

let maybe_emit t =
  let now = Unix.gettimeofday () in
  let last = Atomic.get t.last_emit in
  if now -. last >= t.interval && Atomic.compare_and_set t.last_emit last now
  then begin
    Atomic.set t.emitted true;
    t.emit (render t)
  end

let begin_phase t name ?(total = 0) ?(cost_total = 0.0) () =
  Atomic.set t.phase name;
  Atomic.set t.n_done 0;
  Atomic.set t.total total;
  Atomic.set t.cost_done 0.0;
  Atomic.set t.cost_total cost_total;
  force_emit t

let step t ?(cost = 0.0) () =
  ignore (Atomic.fetch_and_add t.n_done 1);
  if cost > 0.0 then atomic_add_float t.cost_done cost;
  maybe_emit t

let tick t ~heap_mb =
  atomic_max_float t.heap_mb heap_mb;
  maybe_emit t

(* Clearing [emitted] makes a second finish of the same display (the
   analysis closes it, then the front end at exit) a no-op. *)
let finish t =
  if Atomic.exchange t.emitted false then begin
    t.emit (render t);
    t.emit_end ()
  end
