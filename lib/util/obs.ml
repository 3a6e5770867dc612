type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  failpoints : Failpoint.t;
  progress : Progress.t option;
  peak_heap : Metrics.gauge;
  probe : (unit -> unit) option;
}

let word_mb = float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

let peak_heap_gauge m = Metrics.gauge_max_in m "analysis.peak_heap_mb"

let default =
  {
    metrics = Metrics.default;
    trace = Trace.default;
    failpoints = Failpoint.default;
    progress = None;
    peak_heap = peak_heap_gauge Metrics.default;
    probe = None;
  }

let create ?metrics ?trace ?failpoints ?progress () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    metrics;
    trace = (match trace with Some t -> t | None -> Trace.create ());
    failpoints =
      (match failpoints with Some f -> f | None -> Failpoint.create ());
    progress;
    peak_heap = peak_heap_gauge metrics;
    probe = None;
  }

let with_progress obs progress = { obs with progress = Some progress }

let with_on_probe obs f = { obs with probe = Some f }

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.heap_words *. word_mb

let tick obs =
  match obs.progress with
  | None -> ()
  | Some p ->
    let heap = heap_mb () in
    Metrics.set_max obs.peak_heap heap;
    Progress.tick p ~heap_mb:heap

let step obs ?cost () =
  match obs.progress with
  | None -> ()
  | Some p ->
    Metrics.set_max obs.peak_heap (heap_mb ());
    Progress.step p ?cost ()

let begin_phase obs name ?total ?cost_total ?skipped ?n_done () =
  match obs.progress with
  | None -> ()
  | Some p -> Progress.begin_phase p name ?total ?cost_total ?skipped ?n_done ()

let finish_progress obs =
  match obs.progress with None -> () | Some p -> Progress.finish p

(* The probe hook for Guard.create: [None] when nothing wants the
   heartbeat, so guards without limits stay completely passive and the hot
   loops pay nothing beyond the existing [active] test. An extra [probe]
   (the server's worker-watchdog heartbeat) composes with the progress
   tick. *)
let on_probe obs =
  match (obs.progress, obs.probe) with
  | None, None -> None
  | _, _ ->
    Some
      (fun () ->
        (match obs.probe with Some f -> f () | None -> ());
        tick obs)

let write_dumps ?format ?metrics ?trace () =
  let write path f =
    match path with
    | None -> []
    | Some path -> ( try f path; [] with Sys_error m -> [ m ])
  in
  write metrics (Metrics.write_file ?format) @ write trace Trace.write_file
