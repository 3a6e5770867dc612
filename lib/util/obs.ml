type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  failpoints : Failpoint.t;
  progress : Progress.t option;
  probe : (unit -> unit) option;
}

let g = Metrics.group ()
let peak_heap = Metrics.gauge g "analysis.peak_heap_mb"

let word_mb = float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

(* Every context lists its peak-heap gauge from creation on. *)
let make metrics trace failpoints =
  Metrics.register metrics g;
  { metrics; trace; failpoints; progress = None; probe = None }

let default = make Metrics.default Trace.default Failpoint.default

let create ?metrics ?trace ?failpoints ?progress () =
  let given o fresh = match o with Some x -> x | None -> fresh () in
  {
    (make
       (given metrics Metrics.create)
       (given trace (fun () -> Trace.create ()))
       (given failpoints Failpoint.create))
    with
    progress;
  }

let with_progress obs progress = { obs with progress = Some progress }

let with_on_probe obs f = { obs with probe = Some f }

(* The runtime samples its heap statistics at minor collections, so a
   process that has not had one yet reads a heap of 0 words. Only then is
   one minor collection run (never a major one), after which the sample
   holds the real heap. *)
let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  let words =
    if words > 0 then words
    else begin
      Gc.minor ();
      (Gc.quick_stat ()).Gc.heap_words
    end
  in
  float_of_int words *. word_mb

type span = Metrics.histogram Metrics.id

let declare_span = Metrics.histogram

let span_timed obs ?attrs s f =
  let hist = Metrics.get obs.metrics s in
  let seconds = ref 0.0 in
  let v =
    Trace.with_span ~sink:obs.trace ?attrs
      ~on_close:(fun dur ->
        Metrics.observe hist dur;
        seconds := dur)
      (Metrics.name s) f
  in
  (v, !seconds)

let span obs ?attrs s f = fst (span_timed obs ?attrs s f)

let raise_peak_heap obs heap =
  Metrics.set_max (Metrics.get obs.metrics peak_heap) heap

let sample_heap obs = raise_peak_heap obs (heap_mb ())

let tick obs =
  match obs.progress with
  | None -> ()
  | Some p ->
    let heap = heap_mb () in
    raise_peak_heap obs heap;
    Progress.tick p ~heap_mb:heap

let step obs ?cost () =
  match obs.progress with
  | None -> ()
  | Some p ->
    sample_heap obs;
    Progress.step p ?cost ()

(* The heap is sampled at phase boundaries and at the end whether or not
   progress is on, so [analysis.peak_heap_mb] does not depend on
   --progress; per-cutset sampling stays tied to progress, since a
   Gc.quick_stat per cutset would cost more than the display it feeds. *)
let begin_phase obs name ?total ?cost_total () =
  sample_heap obs;
  match obs.progress with
  | None -> ()
  | Some p -> Progress.begin_phase p name ?total ?cost_total ()

let finish obs =
  sample_heap obs;
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

let write_dumps obs ?format ?metrics ?trace () =
  let write path f =
    match path with
    | None -> []
    | Some path -> ( try f path; [] with Sys_error m -> [ m ])
  in
  write metrics (Metrics.write_file_in ?format obs.metrics)
  @ write trace (Trace.write_file_in obs.trace)
