(* Observability: histogram algebra, Prometheus exposition, scoped
   contexts, progress reporting, and crash-safe dumps.

   The load-bearing properties: histogram merges are exact on counts
   (associative and commutative), the Prometheus writer agrees with the
   JSON export on _sum/_count and emits monotone cumulative buckets, and
   two concurrent analyses with separate {!Obs.t} contexts share nothing —
   not counters, not spans, not failpoints, and neither leaks into the
   process-global default registry. *)

open Sdft_util

(* ------------------------------------------------------------------ *)
(* Histogram algebra *)

(* Deterministic value arrays spanning many decades (and a few extremes),
   derived from a qcheck seed so failures shrink to a reproducer. *)
let values_of_seed seed =
  let rng = Rng.create seed in
  let n = Rng.int rng 60 in
  Array.init n (fun _ ->
      match Rng.int rng 20 with
      | 0 -> 0.0
      | 1 -> -1.0
      | 2 -> infinity
      | 3 -> 1e12
      | _ -> (0.1 +. Rng.float rng) *. (10.0 ** float_of_int (Rng.int rng 20 - 10)))

let hist_counts_equal a b =
  a.Metrics.buckets = b.Metrics.buckets && a.Metrics.count = b.Metrics.count

let qcheck_merge_assoc =
  QCheck.Test.make ~name:"hist_merge associative (exact counts)" ~count:200
    Gen_sdft.seed_gen (fun seed ->
      let a = Metrics.hist_of_values (values_of_seed seed)
      and b = Metrics.hist_of_values (values_of_seed (seed + 1))
      and c = Metrics.hist_of_values (values_of_seed (seed + 2)) in
      let l = Metrics.hist_merge (Metrics.hist_merge a b) c
      and r = Metrics.hist_merge a (Metrics.hist_merge b c) in
      hist_counts_equal l r
      (* sums differ only by float-addition reassociation (and compare
         equal when an infinite observation saturates both) *)
      && (l.Metrics.sum = r.Metrics.sum
          || Float.abs (l.Metrics.sum -. r.Metrics.sum)
             <= 1e-9 *. (1.0 +. Float.abs l.Metrics.sum)))

let qcheck_merge_comm =
  QCheck.Test.make ~name:"hist_merge commutative" ~count:200 Gen_sdft.seed_gen
    (fun seed ->
      let a = Metrics.hist_of_values (values_of_seed seed)
      and b = Metrics.hist_of_values (values_of_seed (seed + 7)) in
      Metrics.hist_merge a b = Metrics.hist_merge b a)

let qcheck_count_conservation =
  QCheck.Test.make ~name:"hist split/merge conserves every bucket" ~count:200
    Gen_sdft.seed_gen (fun seed ->
      let vs = values_of_seed seed in
      let n = Array.length vs in
      let k = if n = 0 then 0 else Rng.int (Rng.create (seed + 13)) (n + 1) in
      let left = Array.sub vs 0 k and right = Array.sub vs k (n - k) in
      let whole = Metrics.hist_of_values vs in
      let merged =
        Metrics.hist_merge
          (Metrics.hist_of_values left)
          (Metrics.hist_of_values right)
      in
      hist_counts_equal whole merged
      && whole.Metrics.count = n
      && Array.fold_left ( + ) 0 whole.Metrics.buckets = n)

let test_hist_quantile_brackets () =
  let v = 3.7e-4 in
  let h = Metrics.hist_of_values [| v |] in
  let q = Metrics.hist_quantile h 0.5 in
  if q < v then Alcotest.failf "quantile %g below observation %g" q v;
  (* bucket boundaries are 4 per decade *)
  if q > v *. (10.0 ** 0.25) *. 1.000001 then
    Alcotest.failf "quantile %g more than one bucket above %g" q v;
  Alcotest.(check bool)
    "empty quantile is nan" true
    (Float.is_nan (Metrics.hist_quantile Metrics.hist_empty 0.5));
  Alcotest.(check (float 0.0))
    "overflow rank maps to +Inf" infinity
    (Metrics.hist_quantile (Metrics.hist_of_values [| 1e300 |]) 0.5)

let test_hist_boundaries () =
  Alcotest.(check bool)
    "boundaries strictly increasing" true
    (let ok = ref true in
     for i = 1 to Metrics.n_buckets - 1 do
       if not (Metrics.bucket_le i > Metrics.bucket_le (i - 1)) then ok := false
     done;
     !ok);
  Alcotest.(check (float 0.0))
    "last boundary is +Inf" infinity
    (Metrics.bucket_le (Metrics.n_buckets - 1))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_golden () =
  let m = Metrics.create () in
  let c = Metrics.counter_in m "analysis.runs" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.incr c;
  Metrics.set (Metrics.gauge_in m "analysis.peak_heap_mb") 12.5;
  (* A span's durations land in the histogram of its name. *)
  let h = Metrics.histogram_in m "analysis.analyze" in
  Metrics.observe h 0.25;
  Metrics.observe h 0.5;
  let expected =
    "# TYPE sdft_analysis_runs counter\n\
     sdft_analysis_runs 3\n\
     # TYPE sdft_analysis_peak_heap_mb gauge\n\
     sdft_analysis_peak_heap_mb 12.5\n\
     # TYPE sdft_analysis_analyze histogram\n\
     sdft_analysis_analyze_bucket{le=\"1e-09\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e-09\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e-09\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e-09\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1e-08\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e-08\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e-08\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e-08\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1e-07\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e-07\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e-07\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e-07\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1e-06\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e-06\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e-06\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e-06\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1e-05\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e-05\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e-05\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e-05\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.0001\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.000177828\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.000316228\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.000562341\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.001\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.00177828\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.00316228\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.00562341\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.01\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.0177828\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.0316228\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.0562341\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.1\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.177828\"} 0\n\
     sdft_analysis_analyze_bucket{le=\"0.316228\"} 1\n\
     sdft_analysis_analyze_bucket{le=\"0.562341\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1.77828\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"3.16228\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"5.62341\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"10\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"17.7828\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"31.6228\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"56.2341\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"100\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"177.828\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"316.228\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"562.341\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1000\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1778.28\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"3162.28\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"5623.41\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"10000\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"17782.8\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"31622.8\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"56234.1\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"100000\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"177828\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"316228\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"562341\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1e+06\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e+06\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e+06\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e+06\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1e+07\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e+07\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e+07\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e+07\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1e+08\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"1.77828e+08\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"3.16228e+08\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"5.62341e+08\"} 2\n\
     sdft_analysis_analyze_bucket{le=\"+Inf\"} 2\n\
     sdft_analysis_analyze_sum 0.75\n\
     sdft_analysis_analyze_count 2\n"
  in
  Alcotest.(check string) "exposition" expected (Metrics.to_prometheus_in m)

(* Pull every `name_bucket{le="..."} n` line out of an exposition. *)
let bucket_lines text name =
  let prefix = name ^ "_bucket{le=\"" in
  List.filter_map
    (fun line ->
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        let rest =
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
        in
        match String.index_opt rest '"' with
        | None -> None
        | Some q ->
          let le = String.sub rest 0 q in
          let count =
            int_of_string
              (String.trim
                 (String.sub rest (q + 2) (String.length rest - q - 2)))
          in
          Some (le, count)
      else None)
    (String.split_on_char '\n' text)

let scalar_line text name =
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
        Some (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' text)

let test_prometheus_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram_in m "cache.lookup_s" in
  let values = [ 1e-6; 3e-6; 3e-6; 0.02; 150.0; 1e300 ] in
  List.iter (Metrics.observe h) values;
  let text = Metrics.to_prometheus_in m in
  let buckets = bucket_lines text "sdft_cache_lookup_s" in
  Alcotest.(check int) "one line per bucket" Metrics.n_buckets
    (List.length buckets);
  (* cumulative and monotone, ending at +Inf with the total count *)
  let rec monotone prev = function
    | [] -> true
    | (_, c) :: rest -> c >= prev && monotone c rest
  in
  Alcotest.(check bool) "cumulative counts monotone" true (monotone 0 buckets);
  let last_le, last_count = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check string) "last bucket is +Inf" "+Inf" last_le;
  Alcotest.(check int) "+Inf bucket holds everything" (List.length values)
    last_count;
  (* _sum/_count agree with the snapshot (and hence the JSON export,
     which reads the same snapshot) *)
  let snap = (Metrics.snapshot_in m).Metrics.histograms in
  let hist = List.assoc "cache.lookup_s" snap in
  Alcotest.(check (option string))
    "_count matches snapshot"
    (Some (string_of_int hist.Metrics.count))
    (scalar_line text "sdft_cache_lookup_s_count");
  (match scalar_line text "sdft_cache_lookup_s_sum" with
  | None -> Alcotest.fail "missing _sum line"
  | Some s ->
    Alcotest.(check (float 0.0)) "_sum matches snapshot" hist.Metrics.sum
      (float_of_string s));
  (* and the JSON export names the same count *)
  let json = Metrics.to_json_in m in
  let has_fragment fragment =
    let rec search i =
      i + String.length fragment <= String.length json
      && (String.sub json i (String.length fragment) = fragment
          || search (i + 1))
    in
    search 0
  in
  Alcotest.(check bool)
    "JSON export carries the same count" true
    (has_fragment (Printf.sprintf "\"count\": %d" hist.Metrics.count))

(* ------------------------------------------------------------------ *)
(* gauge_max under contention *)

let test_gauge_max_parallel () =
  let m = Metrics.create () in
  let g = Metrics.gauge_max_in m "peak" in
  let per_domain = 2000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (100 + d) in
            let local_max = ref neg_infinity in
            for _ = 1 to per_domain do
              let v = Rng.float rng *. 1000.0 in
              if v > !local_max then local_max := v;
              Metrics.set_max g v
            done;
            !local_max))
  in
  let expected =
    List.fold_left (fun acc d -> Float.max acc (Domain.join d)) neg_infinity
      domains
  in
  Alcotest.(check (float 0.0)) "max survives the race" expected
    (Metrics.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Scoped contexts: two concurrent analyses share nothing *)

let counter_of snap name =
  match List.assoc_opt name snap.Metrics.counters with Some n -> n | None -> 0

let span_count_of snap name =
  match List.assoc_opt name snap.Metrics.histograms with
  | Some h -> h.Metrics.count
  | None -> 0

let test_concurrent_isolation () =
  (* Quiesce the default registries so any leak is visible. *)
  Metrics.reset_in Metrics.default;
  Trace.reset_in Trace.default;
  Failpoint.clear_all_in Failpoint.default;
  let default_before = Metrics.snapshot_in Metrics.default in
  let obs_a = Obs.create () and obs_b = Obs.create () in
  (* Arm a hot-path site in A only, with a trigger that never fires: the
     hit counter advances without perturbing the analysis. *)
  Failpoint.set_in obs_a.Obs.failpoints "mocus.expand"
    ~trigger:(Failpoint.Nth max_int) Failpoint.Raise;
  let run obs seed = Sdft_analysis.analyze ~obs (Gen_sdft.sd seed) in
  let da = Domain.spawn (fun () -> run obs_a 41) in
  let db = Domain.spawn (fun () -> run obs_b 42) in
  let ra = Domain.join da and rb = Domain.join db in
  Alcotest.(check bool)
    "both analyses produced totals" true
    (Float.is_finite ra.Sdft_analysis.total
     && Float.is_finite rb.Sdft_analysis.total);
  let sa = Metrics.snapshot_in obs_a.Obs.metrics
  and sb = Metrics.snapshot_in obs_b.Obs.metrics in
  (* Each context saw exactly its own run. *)
  Alcotest.(check int) "A: one run" 1 (counter_of sa "analysis.runs");
  Alcotest.(check int) "B: one run" 1 (counter_of sb "analysis.runs");
  Alcotest.(check int) "A: one quantification span" 1
    (span_count_of sa "analysis.quantification");
  Alcotest.(check int) "B: one quantification span" 1
    (span_count_of sb "analysis.quantification");
  Alcotest.(check int) "A: its own cutsets only"
    (List.length ra.Sdft_analysis.cutsets)
    (counter_of sa "analysis.cutsets_quantified");
  Alcotest.(check int) "B: its own cutsets only"
    (List.length rb.Sdft_analysis.cutsets)
    (counter_of sb "analysis.cutsets_quantified");
  (* The failpoint armed in A was exercised there and nowhere else. *)
  Alcotest.(check bool)
    "A's failpoint saw hits" true
    (Failpoint.hit_count_in obs_a.Obs.failpoints "mocus.expand" > 0);
  Alcotest.(check int) "B's registry silent" 0
    (Failpoint.hit_count_in obs_b.Obs.failpoints "mocus.expand");
  Alcotest.(check int) "default registry silent" 0
    (Failpoint.hit_count_in Failpoint.default "mocus.expand");
  (* Traces stayed in their own sinks. *)
  Alcotest.(check bool)
    "A traced its own analyze span" true
    (List.mem_assoc "analysis.analyze" (Trace.aggregate_in obs_a.Obs.trace));
  Alcotest.(check bool)
    "B traced its own analyze span" true
    (List.mem_assoc "analysis.analyze" (Trace.aggregate_in obs_b.Obs.trace));
  (* And nothing bled into the process-global default context. *)
  let default_after = Metrics.snapshot_in Metrics.default in
  let dump s =
    String.concat ", "
      (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) s.Metrics.counters
      @ List.map
          (fun (n, v) -> Printf.sprintf "%s=%g" n v)
          s.Metrics.gauges
      @ List.map
          (fun (n, h) -> Printf.sprintf "%s#%d" n h.Metrics.count)
          s.Metrics.histograms)
  in
  if default_after <> default_before then
    Alcotest.failf "default metrics changed:\nbefore: %s\nafter:  %s"
      (dump default_before) (dump default_after);
  Alcotest.(check (list string)) "default trace untouched" []
    (List.map fst (Trace.aggregate_in Trace.default))

(* ------------------------------------------------------------------ *)
(* Observability only observes: results are bit-identical whichever
   context is passed, with progress on or off *)

let test_bit_identity_across_contexts () =
  Metrics.reset_in Metrics.default;
  let module A = Sdft_analysis in
  let run obs = A.analyze ~obs (Gen_sdft.sd 4242) in
  let baseline = A.analyze (Gen_sdft.sd 4242) in
  let fresh = run (Obs.create ()) in
  let progress_lines = ref 0 in
  let progress =
    Progress.create ~interval:0.0
      ~emit:(fun _ -> Stdlib.incr progress_lines)
      ~emit_end:(fun () -> ())
      ()
  in
  let with_progress = run (Obs.with_progress (Obs.create ()) progress) in
  let same a b =
    a.A.total = b.A.total
    && a.A.budget.A.lower = b.A.budget.A.lower
    && a.A.budget.A.upper = b.A.budget.A.upper
    && List.map (fun i -> i.A.probability) a.A.cutsets
       = List.map (fun i -> i.A.probability) b.A.cutsets
  in
  Alcotest.(check bool) "fresh context bit-identical" true (same baseline fresh);
  Alcotest.(check bool)
    "progress context bit-identical" true
    (same baseline with_progress);
  Alcotest.(check bool) "progress actually reported" true (!progress_lines > 0)

(* ------------------------------------------------------------------ *)
(* Progress rendering *)

let test_progress_rendering () =
  let lines = ref [] and ended = ref false in
  let p =
    Progress.create ~interval:0.0
      ~emit:(fun l -> lines := l :: !lines)
      ~emit_end:(fun () -> ended := true)
      ()
  in
  Progress.begin_phase p "quantification" ~total:4 ~cost_total:10.0 ();
  List.iter (fun c -> Progress.step p ~cost:c ()) [ 4.0; 3.0; 2.0; 1.0 ];
  Progress.tick p ~heap_mb:12.0;
  Progress.finish p;
  Alcotest.(check bool) "emitted lines" true (!lines <> []);
  Alcotest.(check bool) "finish called emit_end" true !ended;
  let contains hay needle =
    let rec search i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || search (i + 1))
    in
    search 0
  in
  let final = List.hd !lines in
  Alcotest.(check bool) "final line names the phase" true
    (contains final "quantification");
  Alcotest.(check bool) "final line shows 4/4" true (contains final "4/4")

(* A resumed sweep reports checkpoint-skipped items separately from live
   work: the count segment stays done/total over the items actually run,
   with a "(+N checkpointed)" annotation for the store-certified rest. *)
let test_progress_skipped_rendering () =
  let lines = ref [] in
  let p =
    Progress.create ~interval:0.0
      ~emit:(fun l -> lines := l :: !lines)
      ~emit_end:(fun () -> ())
      ()
  in
  Progress.begin_phase p "sweep" ~total:2 ~skipped:3 ~n_done:1 ();
  Progress.step p ();
  Progress.finish p;
  let contains hay needle =
    let rec search i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || search (i + 1))
    in
    search 0
  in
  let final = List.hd !lines in
  Alcotest.(check bool) "shows live progress over run items" true
    (contains final "2/2");
  Alcotest.(check bool) "annotates checkpointed items" true
    (contains final "(+3 checkpointed)");
  (* A phase with nothing skipped renders without the annotation. *)
  let lines2 = ref [] in
  let q =
    Progress.create ~interval:0.0
      ~emit:(fun l -> lines2 := l :: !lines2)
      ~emit_end:(fun () -> ())
      ()
  in
  Progress.begin_phase q "sweep" ~total:1 ();
  Progress.step q ();
  Progress.finish q;
  Alcotest.(check bool) "no annotation without skips" true
    (not (contains (List.hd !lines2) "checkpointed"))

(* The default sink frames lines for its destination: CR-overwriting on a
   TTY, plain newline-terminated lines anywhere else — a captured log or
   CI pipe must never receive carriage returns. *)
let test_progress_rendered_modes () =
  let tty = Progress.rendered ~tty:true "phase 1/2" in
  Alcotest.(check bool) "tty framing leads with CR" true (tty.[0] = '\r');
  Alcotest.(check int) "tty framing pads to a fixed width" 80
    (String.length tty);
  Alcotest.(check bool) "tty framing has no newline" true
    (not (String.contains tty '\n'));
  Alcotest.(check string) "plain framing appends a newline" "phase 1/2\n"
    (Progress.rendered ~tty:false "phase 1/2");
  Alcotest.(check bool) "plain framing has no CR" true
    (not (String.contains (Progress.rendered ~tty:false "x") '\r'))

(* Drive the real default sink in both modes, capturing stderr through a
   temporary file. *)
let capture_stderr f =
  let path = Filename.temp_file "sdft_progress" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

let test_progress_sink_adapts () =
  let run ~tty =
    capture_stderr (fun () ->
        let p = Progress.create ~tty ~interval:0.0 () in
        Progress.begin_phase p "demo" ~total:2 ();
        Progress.step p ();
        Progress.finish p)
  in
  let on_tty = run ~tty:true in
  Alcotest.(check bool) "tty sink overwrites with CR" true
    (String.contains on_tty '\r');
  Alcotest.(check bool) "tty sink terminates the display" true
    (String.length on_tty > 0 && on_tty.[String.length on_tty - 1] = '\n');
  let plain = run ~tty:false in
  Alcotest.(check bool) "captured log is CR-free" true
    (not (String.contains plain '\r'));
  Alcotest.(check bool) "captured log lines are newline-terminated" true
    (String.length plain > 0 && plain.[String.length plain - 1] = '\n');
  Alcotest.(check bool) "captured log names the phase" true
    (let contains hay needle =
       let rec search i =
         i + String.length needle <= String.length hay
         && (String.sub hay i (String.length needle) = needle || search (i + 1))
       in
       search 0
     in
     contains plain "demo")

(* ------------------------------------------------------------------ *)
(* Trace aggregation determinism *)

let test_aggregate_deterministic () =
  (* Rows sort by total time, then by name. Empty spans would tie or not
     depending on clock jitter, so alpha's spans do measurable work. *)
  let sink = Trace.create ~enabled:true () in
  Trace.with_span ~sink "beta" (fun () -> ());
  Trace.with_span ~sink "alpha" (fun () -> Unix.sleepf 0.002);
  Trace.with_span ~sink "alpha" (fun () -> Unix.sleepf 0.002);
  let names = List.map fst (Trace.aggregate_in sink) in
  Alcotest.(check (list string)) "sorted by total time" [ "alpha"; "beta" ] names;
  let count name =
    match List.assoc_opt name (Trace.aggregate_in sink) with
    | Some (n, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "alpha counted twice" 2 (count "alpha");
  Alcotest.(check int) "beta counted once" 1 (count "beta")

(* ------------------------------------------------------------------ *)
(* Crash-safe dumps *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdft_obs_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_atomic_write () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "metrics.json" in
  Atomic_io.write_file path "first";
  Atomic_io.write_file path "second";
  Alcotest.(check string) "overwrite wins" "second"
    (In_channel.with_open_bin path In_channel.input_all);
  (* No temporary droppings left behind. *)
  Alcotest.(check (list string)) "directory holds only the target"
    [ "metrics.json" ]
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  (* A failing rename (destination is a directory) leaves the original
     world intact and cleans up its temp file. *)
  let blocked = Filename.concat dir "blocked" in
  Unix.mkdir blocked 0o755;
  (try
     Atomic_io.write_file blocked "overwrite a directory";
     Alcotest.fail "expected Sys_error"
   with Sys_error _ -> ());
  Alcotest.(check bool) "destination untouched" true (Sys.is_directory blocked);
  Alcotest.(check (list string)) "no temp residue after failure"
    [ "blocked"; "metrics.json" ]
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  Unix.rmdir blocked

let test_metrics_write_file_formats () =
  with_temp_dir @@ fun dir ->
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter_in m "runs");
  Metrics.observe (Metrics.histogram_in m "lat") 0.01;
  let json_path = Filename.concat dir "m.json" in
  let prom_path = Filename.concat dir "m.prom" in
  Metrics.write_file_in m json_path;
  Metrics.write_file_in ~format:Metrics.Prom_format m prom_path;
  Alcotest.(check string) "json file is export plus newline"
    (Metrics.to_json_in m ^ "\n")
    (In_channel.with_open_bin json_path In_channel.input_all);
  Alcotest.(check string) "prom file is the exposition"
    (Metrics.to_prometheus_in m)
    (In_channel.with_open_bin prom_path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Product template reuse is observable *)

let test_product_template_observed () =
  (* A fresh domain starts with an empty template slot: the first pumps
     build explores, the second reuses its template. *)
  let sd = Pumps.sd_tree () in
  let obs = Obs.create () in
  Domain.join
    (Domain.spawn (fun () ->
         ignore (Sdft_product.build ~obs sd);
         ignore (Sdft_product.build ~obs sd)));
  let snap = Metrics.snapshot_in obs.Obs.metrics in
  Alcotest.(check int) "one exploration" 1
    (counter_of snap "product.explorations");
  Alcotest.(check int) "one template hit" 1
    (counter_of snap "product.template_hits");
  let flags =
    List.filter_map
      (fun e ->
        if e.Trace.ev_name = "product.build" then
          match List.assoc_opt "template" e.Trace.ev_attrs with
          | Some (Trace.Bool b) -> Some b
          | _ -> None
        else None)
      (Trace.snapshot_in obs.Obs.trace)
  in
  Alcotest.(check (list bool)) "template attribute per build span"
    [ false; true ] flags

let test_template_counters_in_metrics_dump () =
  (* What [analyze --metrics] writes: both counters are present, and
     together they count every product build of the analysis. *)
  let obs = Obs.create () in
  let r = Sdft_analysis.analyze ~obs (Pumps.sd_tree ()) in
  let snap = Metrics.snapshot_in obs.Obs.metrics in
  let builds =
    List.length
      (List.filter
         (fun (c : Sdft_analysis.cutset_info) -> c.product_states > 0)
         r.Sdft_analysis.cutsets)
  in
  Alcotest.(check bool) "both counters registered" true
    (List.mem_assoc "product.explorations" snap.Metrics.counters
     && List.mem_assoc "product.template_hits" snap.Metrics.counters);
  Alcotest.(check int) "explorations + hits = builds" builds
    (counter_of snap "product.explorations"
    + counter_of snap "product.template_hits");
  let json = Metrics.to_json_in obs.Obs.metrics in
  let mentions name =
    let n = String.length name in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = name || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "dump names both counters" true
    (mentions "\"product.explorations\"" && mentions "\"product.template_hits\"")

(* ------------------------------------------------------------------ *)
(* Each span is timed once: a span's histogram and its trace events come
   from the same two clock reads per interval *)

(* For every span name in the context's trace: the histogram of that name
   counts its events and sums their durations — bit for bit for the names
   in [once], which must have exactly one event; within float
   reassociation for the others. Timing the histogram with clock reads of
   its own would leave its sum short of the trace's. *)
let check_spans_timed_once ~label ~expect ~once obs =
  let events =
    List.filter
      (fun e -> e.Trace.ev_kind = Trace.Span)
      (Trace.snapshot_in obs.Obs.trace)
  in
  let hists = (Metrics.snapshot_in obs.Obs.metrics).Metrics.histograms in
  let names =
    List.sort_uniq String.compare (List.map (fun e -> e.Trace.ev_name) events)
  in
  List.iter
    (fun name ->
      if not (List.mem name names) then
        Alcotest.failf "%s: no %s span recorded" label name)
    (expect @ once);
  List.iter
    (fun name ->
      let durs =
        List.filter_map
          (fun e -> if e.Trace.ev_name = name then Some e.Trace.ev_dur else None)
          events
      in
      let total = List.fold_left ( +. ) 0.0 durs in
      match List.assoc_opt name hists with
      | None -> Alcotest.failf "%s: span %s has no histogram" label name
      | Some h ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s histogram count = trace events" label name)
          (List.length durs) h.Metrics.count;
        if List.mem name once then begin
          Alcotest.(check int)
            (Printf.sprintf "%s: %s recorded once" label name)
            1 (List.length durs);
          if Int64.bits_of_float h.Metrics.sum <> Int64.bits_of_float total then
            Alcotest.failf "%s: %s histogram sum %h <> ev_dur %h" label name
              h.Metrics.sum total
        end
        else if Float.abs (h.Metrics.sum -. total) > 1e-12 *. total then
          Alcotest.failf "%s: %s histogram sum %.17g <> trace total %.17g"
            label name h.Metrics.sum total)
    names

let analysis_once =
  [ "analysis.analyze"; "analysis.mcs_generation"; "analysis.quantification" ]

let test_spans_timed_once () =
  let analyze label ~engine_span sd =
    let obs = Obs.create () in
    ignore (Sdft_analysis.analyze ~obs sd);
    let once =
      if engine_span = "mocus.run" then "mocus.run" :: analysis_once
      else analysis_once
    in
    check_spans_timed_once ~label ~once obs
      ~expect:[ engine_span; "analysis.cutset" ]
  in
  analyze "pumps" ~engine_span:"mocus.run" (Pumps.sd_tree ());
  analyze "bwr" ~engine_span:"mocus.run"
    (Sdft_format.of_file "../models/bwr.sdft");
  analyze "industrial_small" ~engine_span:"zdd.run"
    (Sdft_format.of_file "../models/industrial_small.sdft");
  let obs = Obs.create () in
  ignore
    (Rare_event.run ~obs
       ~options:{ Rare_event.default_options with trials = 2000 }
       (Pumps.sd_tree ()) ~horizon:24.0);
  check_spans_timed_once ~label:"simulate" ~expect:[] ~once:[ "sim.run" ] obs

(* OCaml 5's Gc.quick_stat reports the major heap as of the last minor
   collection, so the model must be big enough to have had one: BWR is,
   pumps in a fresh process is not. *)
let test_peak_heap_without_progress () =
  let obs = Obs.create () in
  ignore
    (Sdft_analysis.analyze ~obs (Sdft_format.of_file "../models/bwr.sdft"));
  let gauges = (Metrics.snapshot_in obs.Obs.metrics).Metrics.gauges in
  match List.assoc_opt "analysis.peak_heap_mb" gauges with
  | Some mb when mb > 0.0 -> ()
  | Some mb -> Alcotest.failf "analysis.peak_heap_mb reads %g" mb
  | None -> Alcotest.fail "analysis.peak_heap_mb not registered"

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        qcheck [ qcheck_merge_assoc; qcheck_merge_comm; qcheck_count_conservation ]
        @ [
            Alcotest.test_case "quantile brackets observation" `Quick
              test_hist_quantile_brackets;
            Alcotest.test_case "bucket boundaries" `Quick test_hist_boundaries;
          ] );
      ( "prometheus",
        [
          Alcotest.test_case "golden exposition" `Quick test_prometheus_golden;
          Alcotest.test_case "cumulative histogram buckets" `Quick
            test_prometheus_histogram_buckets;
        ] );
      ( "contexts",
        [
          Alcotest.test_case "gauge_max under contention" `Quick
            test_gauge_max_parallel;
          Alcotest.test_case "two concurrent analyses are isolated" `Quick
            test_concurrent_isolation;
          Alcotest.test_case "results bit-identical across contexts" `Quick
            test_bit_identity_across_contexts;
          Alcotest.test_case "product template observed" `Quick
            test_product_template_observed;
          Alcotest.test_case "template counters in the metrics dump" `Quick
            test_template_counters_in_metrics_dump;
        ] );
      ( "progress",
        [
          Alcotest.test_case "rendering and finish" `Quick
            test_progress_rendering;
          Alcotest.test_case "checkpoint-skipped annotation" `Quick
            test_progress_skipped_rendering;
          Alcotest.test_case "tty vs plain framing" `Quick
            test_progress_rendered_modes;
          Alcotest.test_case "default sink adapts to non-TTY stderr" `Quick
            test_progress_sink_adapts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "aggregate is deterministic" `Quick
            test_aggregate_deterministic;
        ] );
      ( "spans",
        [
          Alcotest.test_case "each span timed once" `Quick
            test_spans_timed_once;
          Alcotest.test_case "peak heap without progress" `Quick
            test_peak_heap_without_progress;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "atomic write" `Quick test_atomic_write;
          Alcotest.test_case "metrics write_file formats" `Quick
            test_metrics_write_file_formats;
        ] );
    ]
