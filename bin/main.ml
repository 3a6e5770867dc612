(* sdft — command-line front end for the SD fault tree toolkit. *)

open Cmdliner

(* Exit discipline: 2 = bad input (unparseable model, missing file), 1 = the
   analysis itself reached a failing verdict (disjoint verification
   intervals, --on-limit=fail degradation, unusable model). Raised instead
   of calling [exit] directly so that the [Fun.protect] finalizers of
   [with_observability] still flush the --metrics/--trace dumps on the way
   out — [exit] does not unwind the stack. *)
exception Exit_code of int

let load_model path =
  try
    if Filename.check_suffix path ".xml" then
      Ok (Sdft.static_only (Open_psa.of_file path))
    else Ok (Sdft_format.of_file path)
  with
  | Sdft_format.Error m -> Error m
  | Open_psa.Error m -> Error m
  | Sys_error m -> Error m
  | Failure m -> Error m
  | Invalid_argument m -> Error m

let or_die = function
  | Ok v -> v
  | Error m ->
    Printf.eprintf "sdft: %s\n" m;
    raise (Exit_code 2)

(* Shared arguments. *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Model file (SD fault tree text format).")

let horizon_arg =
  Arg.(value & opt float Sdft_analysis.default_options.horizon & info [ "horizon"; "t" ] ~docv:"HOURS" ~doc:"Analysis horizon in hours.")

let cutoff_arg =
  Arg.(value & opt float Sdft_analysis.default_options.cutoff & info [ "cutoff"; "c" ] ~docv:"P" ~doc:"Probabilistic cutoff $(i,c*) for cutset generation.")

(* Observability: every analysis-flavoured subcommand accepts the same
   [--metrics FILE] / [--metrics-format] / [--trace FILE] / [--progress]
   quartet.  Tracing is enabled before the command body runs (the library's
   spans only feed their histograms otherwise) and both dumps are written
   on the way out, even if the body raises.  The body receives an
   {!Sdft_util.Obs.t} built on the process-default registries, optionally
   carrying a live stderr progress reporter; results are bit-identical
   either way. *)

type observability = {
  obs_metrics : string option;
  obs_format : Sdft_util.Metrics.format;
  obs_trace : string option;
  obs_progress : bool;
}

let observability_term =
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Dump internal counters, gauges and histograms (one per trace span name, timing every span) to $(docv) on exit (format per $(b,--metrics-format)).")
  in
  let format =
    Arg.(value
         & opt (enum [ ("json", Sdft_util.Metrics.Json_format);
                       ("prom", Sdft_util.Metrics.Prom_format) ])
             Sdft_util.Metrics.Json_format
         & info [ "metrics-format" ] ~docv:"FMT" ~doc:"Format of the $(b,--metrics) dump: $(b,json) (default) or $(b,prom) (Prometheus text exposition 0.0.4: counters, gauges, and histograms — span timings included — with cumulative $(i,le) buckets).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Record hierarchical trace spans and write them to $(docv) on exit ($(b,.json) selects the Chrome trace-event format, anything else JSONL).")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ] ~doc:"Live one-line progress reporter on stderr: phase, cutsets done/total, cost-weighted ETA, elapsed time and peak heap. Purely observational — results are bit-identical with and without it.")
  in
  Term.(const (fun obs_metrics obs_format obs_trace obs_progress ->
            { obs_metrics; obs_format; obs_trace; obs_progress })
        $ metrics $ format $ trace $ progress)

let with_observability obs f =
  if obs.obs_trace <> None then
    Sdft_util.Trace.set_enabled_in Sdft_util.Trace.default true;
  let ctx =
    if obs.obs_progress then
      Sdft_util.Obs.with_progress Sdft_util.Obs.default
        (Sdft_util.Progress.create ())
    else Sdft_util.Obs.default
  in
  let write () =
    Sdft_util.Obs.finish ctx;
    List.iter
      (Printf.eprintf "sdft: %s\n")
      (Sdft_util.Obs.write_dumps ctx ~format:obs.obs_format
         ?metrics:obs.obs_metrics ?trace:obs.obs_trace ())
  in
  Fun.protect ~finally:write (fun () -> f ctx)

(* Resource governance: analysis-flavoured subcommands accept the same
   --deadline / --mem-limit-mb / --on-limit triple; the third says whether
   a degraded result fails the run. *)

let resource_term =
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the analysis. When it expires the analysis degrades gracefully (conservative bounds, DEGRADED banner) instead of running on.")
  in
  let mem =
    Arg.(value & opt (some int) None & info [ "mem-limit-mb" ] ~docv:"MB" ~doc:"Major-heap ceiling in megabytes; exceeded means degrade, like $(b,--deadline).")
  in
  let on_limit =
    Arg.(value & opt (enum [ ("degrade", false); ("fail", true) ]) false
         & info [ "on-limit" ] ~docv:"POLICY" ~doc:"What a degraded result means for the exit status: $(b,degrade) (default) exits 0 with the DEGRADED banner, $(b,fail) exits 1.")
  in
  Term.(const (fun deadline mem fail -> (deadline, mem, fail))
        $ deadline $ mem $ on_limit)

(* Persistent quantification cache: the analysis-flavoured subcommands
   share one [--cache FILE] option (env: SDFT_CACHE). The store is opened
   before the command body and flushed/closed on the way out, even if the
   body raises; IO trouble degrades to memory-only silently here and
   visibly through [report_disk_cache]. *)

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"FILE" ~env:(Cmd.Env.info "SDFT_CACHE")
           ~doc:"Persistent cross-run quantification cache: warm-start from \
                 $(docv) (created if absent) and append fresh solves to it \
                 (in batches, and on exit). $(b,sweep) also records each \
                 completed point there, flushed before its row prints, so \
                 a killed sweep can be finished with $(b,--resume). A \
                 corrupted tail or a file written by a different solver \
                 build is ignored (and rewritten); when another process \
                 holds the writer lock the file is shared read-only.")

let with_disk_cache path_opt f =
  match path_opt with
  | None -> f None
  | Some path ->
    let cache = Quant_cache.open_disk path in
    Fun.protect
      ~finally:(fun () ->
        try Quant_cache.close cache
        with Sys_error m -> Printf.eprintf "sdft: cache: %s\n" m)
      (fun () -> f (Some cache))

let report_disk_cache cache =
  match Quant_cache.disk_stats cache with
  | None -> ()
  | Some s ->
    Printf.printf
      "disk cache: %s%s — %d entries loaded (%.1f ms), %d disk hits / %d \
       disk misses, %d appended\n"
      s.Quant_cache.disk_path
      (if s.Quant_cache.read_only then " (read-only)" else "")
      s.Quant_cache.entries_loaded s.Quant_cache.load_ms
      s.Quant_cache.disk_hits s.Quant_cache.disk_misses s.Quant_cache.appends;
    (match s.Quant_cache.disk_error with
    | Some e ->
      Printf.eprintf "sdft: cache degraded to memory-only: %s\n" e
    | None -> ())

let engine_doc =
  "Cutset engine, one of "
  ^ String.concat ", "
      (List.map (fun (n, _) -> "$(b," ^ n ^ ")") Sdft_analysis.engines)
  ^ ". $(b,zdd) counts the minimal cutsets by modular ZDD weighted counting \
     and accounts the residual mass exactly; $(b,auto) picks $(b,zdd) for \
     static models whose modules are narrow enough and $(b,mocus) for \
     translated trigger logic or very wide modules."

let engine_arg =
  Arg.(value
       & opt (enum Sdft_analysis.engines)
           Sdft_analysis.default_options.engine
       & info [ "engine" ] ~docv:"ENGINE" ~doc:engine_doc)

let domains_arg =
  Arg.(value & opt int Sdft_analysis.default_options.domains & info [ "domains"; "j" ] ~docv:"N" ~doc:"Worker domains for cutset quantification.")

(* A session is what every analysis-flavoured subcommand starts from: the
   loaded model, its shared flags turned into [Sdft_analysis.options],
   the observability context and the disk cache. [session_term] takes the
   flags a subcommand has (the rest keep their [default_options] values)
   and yields the wrapper that sets all of it up around the command
   body. *)

type session = {
  sd : Sdft.t;
  options : Sdft_analysis.options;
  fail : bool;  (* --on-limit=fail: degraded results exit nonzero *)
  obs : Sdft_util.Obs.t;
  cache : Quant_cache.t option;
  engine_flag : bool;  (* the subcommand has --engine *)
}

let session_term ?(horizon = true) ?(cutoff = true) ?(engine = false)
    ?(domains = false) ?(cache = false) ?(resource = true) () =
  let d = Sdft_analysis.default_options in
  let flag present arg default = if present then arg else Term.const default in
  let setup file horizon cutoff engine_choice domains cache_path
      (deadline, mem_limit_mb, fail) observability body =
    let options =
      { d with horizon; cutoff; engine = engine_choice; domains; deadline;
               mem_limit_mb }
    in
    with_observability observability (fun obs ->
        with_disk_cache cache_path (fun cache ->
            body
              {
                sd = or_die (load_model file);
                options;
                fail;
                obs;
                cache;
                engine_flag = engine;
              }))
  in
  Term.(const setup $ file_arg
        $ flag horizon horizon_arg d.horizon
        $ flag cutoff cutoff_arg d.cutoff
        $ flag engine engine_arg d.engine
        $ flag domains domains_arg d.domains
        $ flag cache cache_arg None
        $ flag resource resource_term (None, None, false)
        $ observability_term)

let check_on_limit_fail s result =
  if s.fail && Sdft_analysis.degraded result then begin
    Printf.eprintf "sdft: analysis degraded (%s) and --on-limit=fail is set\n"
      (Sdft_analysis.degradation_description result);
    raise (Exit_code 1)
  end

(* Report a cutset generation cut short by a resource limit. MOCUS keeps a
   sound partial list (the run goes on, subject to --on-limit); an
   interrupted ZDD compilation has no partial list to go on with. *)
let report_generation s (p : Sdft_analysis.phase1) =
  let g = p.generation in
  match g.Mocus.limit_hit with
  | None -> ()
  | Some r when g.Mocus.truncated ->
    Printf.eprintf "sdft: %s cutset generation hit the %s; rerun with a larger \
                    budget%s\n"
      (Sdft_analysis.engine_name p.engine_used)
      (Sdft_util.Guard.reason_to_string r)
      (if s.engine_flag then " or --engine mocus" else "");
    raise (Exit_code 1)
  | Some r ->
    Printf.eprintf
      "sdft: DEGRADED: cutset generation stopped early (%s); results cover \
       only the cutsets generated before the limit\n"
      (Sdft_util.Guard.reason_to_string r);
    if s.fail then raise (Exit_code 1)

(* Phase 1 for the subcommands that work on the cutset list itself. *)
let cutsets s =
  let p = Sdft_analysis.phase1 ~obs:s.obs s.options s.sd in
  report_generation s p;
  p

(* analyze *)

let analyze_cmd =
  let run session top_n show_histogram show_budget save_path diff_path =
    session @@ fun s ->
    (* --save/--diff need a cache even without --cache: --save exports
       its entries into the manifest, --diff seeds them back so only
       changed-fingerprint cutsets re-solve. *)
    let cache =
      match s.cache with
      | Some c -> Some c
      | None ->
        if save_path <> None || diff_path <> None then
          Some (Quant_cache.create ())
        else None
    in
    let old_manifest =
      Option.map (fun p -> or_die (Manifest.load p)) diff_path
    in
    (match (old_manifest, cache) with
    | Some m, Some c ->
      if Manifest.stamp_matches m then
        ignore (Quant_cache.seed c m.Manifest.cache_entries)
      else
        Printf.eprintf
          "sdft: note: manifest %s was written by a different solver \
           build; its cached results are not trusted, every dynamic \
           cutset re-solves\n"
          (Option.get diff_path)
    | _ -> ());
    let result =
      Sdft_analysis.analyze ~options:s.options ?cache ~obs:s.obs s.sd
    in
    Format.printf "%a@." Sdft_analysis.pp_summary result;
    if show_budget then Format.printf "%a@." Sdft_analysis.pp_budget result;
    if show_histogram then begin
      print_endline "dynamic events per minimal cutset:";
      Sdft_analysis.print_histogram (Sdft_analysis.dynamic_histogram result)
    end;
    if top_n > 0 then begin
      Printf.printf "top %d cutsets:\n" top_n;
      let tree = Sdft.tree s.sd in
      List.iteri
        (fun i (info : Sdft_analysis.cutset_info) ->
          if i < top_n then
            Format.printf "  %.3e  %a  (%d dynamic, %d states)@."
              info.probability (Cutset.pp tree) info.cutset info.n_dynamic
              info.product_states)
        result.cutsets
    end;
    (match old_manifest with
    | Some m ->
      Format.printf "%a@." Manifest.pp_diff (Manifest.diff m s.sd result)
    | None -> ());
    (match save_path with
    | Some path ->
      Manifest.save path (Manifest.of_result ?cache s.sd s.options result);
      Printf.printf "manifest saved to %s\n" path
    | None -> ());
    (match cache with Some c -> report_disk_cache c | None -> ());
    check_on_limit_fail s result
  in
  let top_n =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Print the $(docv) most important cutsets (0 disables).")
  in
  let histogram =
    Arg.(value & flag & info [ "histogram" ] ~doc:"Print the dynamic-events-per-cutset histogram (Figure 2).")
  in
  let budget =
    Arg.(value & flag & info [ "budget" ] ~doc:"Print the itemized error budget behind the certified interval.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Save the result as a JSON manifest (parameters, certified interval, per-cutset quantifications, warm-start cache entries) for later $(b,--diff).")
  in
  let diff =
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"FILE" ~doc:"Differential re-analysis against a manifest saved with $(b,--save): warm-start from its cache entries so only cutsets whose canonical fingerprints changed re-solve, then report which cutsets moved the certified interval and by how much.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the full SD fault tree analysis (Section V).")
    Term.(const run
          $ session_term ~engine:true ~domains:true ~cache:true ()
          $ top_n $ histogram $ budget $ save $ diff)

(* explain *)

let explain_cmd =
  let run session top_n spans_n =
    session @@ fun s ->
    (* Tracing is always on inside [explain]: the top-spans section needs
       it even when no --trace file was requested. *)
    Sdft_util.Trace.set_enabled_in s.obs.Sdft_util.Obs.trace true;
    let cache =
      match s.cache with
      | Some c -> c
      | None -> Quant_cache.create ()
    in
    let result =
      Sdft_analysis.analyze ~options:s.options ~cache ~obs:s.obs s.sd
    in
    let tree = Sdft.tree s.sd in
    Format.printf "%a@.@." Sdft_analysis.pp_summary result;
    Format.printf "%a@.@." Sdft_analysis.pp_budget result;
    let report = Sdft_classify.report s.sd in
    if report.Sdft_classify.per_trigger_gate <> [] then
      Format.printf "%a@.@." (Sdft_classify.pp_report s.sd) report;
    let shown = min top_n result.Sdft_analysis.n_cutsets in
    Printf.printf "top %d of %d cutsets (by contribution):\n" shown
      result.Sdft_analysis.n_cutsets;
    Printf.printf "%12s %7s %4s %8s %9s %7s %6s %9s  %s\n" "p~(C)"
      "share" "dyn" "states" "trans" "steps" "cache" "time" "cutset";
    List.iteri
      (fun i (info : Sdft_analysis.cutset_info) ->
        if i < top_n then begin
          let share =
            if result.Sdft_analysis.total > 0.0 then
              100.0 *. info.probability /. result.Sdft_analysis.total
            else 0.0
          in
          Format.printf "%12.3e %6.2f%% %4d %8d %9d %7d %6s %9s  %a@."
            info.probability share info.n_dynamic info.product_states
            info.product_transitions info.solver_steps
            (* Degraded cutsets show the reason for their worst-case
               fallback where exact solves show cache provenance. *)
            (match info.degraded with
             | Some Sdft_util.Guard.Deadline -> "ddl!"
             | Some Sdft_util.Guard.Mem_limit -> "mem!"
             | Some Sdft_util.Guard.State_limit -> "state!"
             | Some Sdft_util.Guard.Worker_crash -> "crash!"
             | None ->
               if info.used_fallback then "fall!"
               else if info.from_cache then "hit"
               else if info.product_states > 0 then "miss"
               else "-")
            (Format.asprintf "%a" Sdft_util.Timer.pp_duration
               info.solve_seconds)
            (Cutset.pp tree) info.cutset
        end)
      result.Sdft_analysis.cutsets;
    Printf.printf "\nquantification cache: %d hits / %d misses\n"
      (Quant_cache.hits cache) (Quant_cache.misses cache);
    report_disk_cache cache;
    let spans = Sdft_util.Trace.aggregate_in s.obs.Sdft_util.Obs.trace in
    if spans <> [] then begin
      Printf.printf "\ntop trace spans (by total time):\n";
      Printf.printf "%-28s %8s %12s\n" "span" "count" "total";
      List.iteri
        (fun i (name, (count, total)) ->
          if i < spans_n then
            Format.printf "%-28s %8d %12s@." name count
              (Format.asprintf "%a" Sdft_util.Timer.pp_duration total))
        spans
    end;
    (* Span histograms repeat the top-spans rows above; this section keeps
       to the other latency and throughput distributions. *)
    let histograms =
      List.filter
        (fun (name, h) ->
          h.Sdft_util.Metrics.count > 0 && not (List.mem_assoc name spans))
        (Sdft_util.Metrics.snapshot_in s.obs.Sdft_util.Obs.metrics)
          .Sdft_util.Metrics.histograms
    in
    if histograms <> [] then begin
      Printf.printf "\nlatency/throughput histograms (bucket quantiles):\n";
      Printf.printf "%-28s %8s %11s %11s %11s\n" "histogram" "count"
        "p50" "p90" "p99";
      List.iter
        (fun (name, h) ->
          let q p = Sdft_util.Metrics.hist_quantile h p in
          Printf.printf "%-28s %8d %11.3e %11.3e %11.3e\n" name
            h.Sdft_util.Metrics.count (q 0.5) (q 0.9) (q 0.99))
        histograms
    end;
    check_on_limit_fail s result
  in
  let top_n =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows of the per-cutset provenance table (0 disables).")
  in
  let spans_n =
    Arg.(value & opt int 10 & info [ "spans" ] ~docv:"N" ~doc:"Rows of the top-trace-spans table.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Account for an analysis result: per-cutset provenance (contribution, chain sizes, solver effort, cache traffic, degradation), the error budget behind the certified interval, and the top trace spans.")
    Term.(const run
          $ session_term ~engine:true ~domains:true ~cache:true ()
          $ top_n $ spans_n)

(* sweep *)

let sweep_cmd =
  let print_header () =
    Printf.printf "%10s %14s %9s %11s %11s\n" "horizon" "frequency" "cutsets"
      "cache-hits" "cache-miss"
  in
  (* Rows are flushed as they complete so a killed sweep leaves a readable
     prefix on the terminal to match the point records in its store. *)
  let print_item = function
    | Sdft_analysis.Sweep_run p ->
      Printf.printf "%10g %14.6e %9d %11d %11d\n%!"
        p.Sdft_analysis.sweep_options.Sdft_analysis.horizon
        p.Sdft_analysis.sweep_result.Sdft_analysis.total
        p.Sdft_analysis.sweep_result.Sdft_analysis.n_cutsets
        p.Sdft_analysis.cache_hits p.Sdft_analysis.cache_misses
    | Sdft_analysis.Sweep_skipped pt ->
      Printf.printf "%10g %14.6e %9d %11d %11d (checkpointed)\n%!"
        pt.Checkpoint.pt_horizon pt.Checkpoint.pt_total
        pt.Checkpoint.pt_n_cutsets 0 0
  in
  let item_degradation = function
    | Sdft_analysis.Sweep_run p ->
      if Sdft_analysis.degraded p.Sdft_analysis.sweep_result then
        Some
          ( p.Sdft_analysis.sweep_options.Sdft_analysis.horizon,
            Sdft_analysis.degradation_description
              p.Sdft_analysis.sweep_result )
      else None
    | Sdft_analysis.Sweep_skipped pt ->
      Option.map
        (fun d -> (pt.Checkpoint.pt_horizon, d))
        pt.Checkpoint.pt_degraded
  in
  let run session horizons resume =
    session @@ fun s ->
    if resume && s.cache = None then
      or_die (Error "--resume needs --cache FILE (or SDFT_CACHE)");
    let option_sets =
      List.map
        (fun horizon -> { s.options with Sdft_analysis.horizon })
        horizons
    in
    print_header ();
    let items, cache =
      Sdft_analysis.sweep_checkpointed ?cache:s.cache ~obs:s.obs ~resume
        ~on_point:print_item s.sd option_sets
    in
    Printf.printf "cache: %d hits / %d misses\n" (Quant_cache.hits cache)
      (Quant_cache.misses cache);
    report_disk_cache cache;
    let degradations = List.filter_map item_degradation items in
    List.iter
      (fun (h, d) -> Printf.printf "DEGRADED at horizon %g: %s\n" h d)
      degradations;
    if s.fail && degradations <> [] then begin
      Printf.eprintf "sdft: sweep degraded and --on-limit=fail is set\n";
      raise (Exit_code 1)
    end
  in
  let horizons =
    Arg.(value & opt (list float) [ 8.0; 24.0; 72.0 ]
         & info [ "horizons" ] ~docv:"H1,H2,.." ~doc:"Comma-separated analysis horizons in hours.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume an interrupted sweep from its $(b,--cache) store: \
                   points already certified there are printed from the \
                   store (marked $(i,checkpointed)) without re-analysis, \
                   cached quantifications hit, and only unfinished points \
                   run. The completed output is bit-identical to an \
                   uninterrupted run. Requires $(b,--cache) (or \
                   $(b,SDFT_CACHE)).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Analyze one model over several horizons, sharing the quantification cache across points.")
    Term.(const run
          $ session_term ~horizon:false ~engine:true ~domains:true ~cache:true ()
          $ horizons $ resume)

(* mcs *)

let mcs_cmd =
  let run session =
    session @@ fun s ->
    let p = cutsets s in
    let tree = p.translation.Sdft_translate.static_tree in
    let cutsets = p.generation.Mocus.cutsets in
    let engine = Sdft_analysis.engine_name p.engine_used in
    Printf.printf "%d minimal cutsets (engine: %s)\n" (List.length cutsets)
      engine;
    if p.generation.Mocus.pruned_mass > 0.0 then
      Printf.printf "mass below cutoff/order bounds: %.3e%s\n"
        p.generation.Mocus.pruned_mass
        (if p.engine_used = Sdft_analysis.Zdd_engine then " (exact)"
         else " (upper bound)");
    List.iter
      (fun c ->
        Format.printf "%.3e  %a@." (Cutset.probability tree c)
          (Cutset.pp tree) c)
      (Cutset.sort_by_probability tree cutsets)
  in
  Cmd.v
    (Cmd.info "mcs" ~doc:"Generate minimal cutsets of the translated static tree.")
    Term.(const run $ session_term ~engine:true ())

(* classify *)

let classify_cmd =
  let run file =
    let sd = or_die (load_model file) in
    let report = Sdft_classify.report sd in
    Format.printf "%a@." (Sdft_classify.pp_report sd) report
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify every triggering gate (static branching / static joins / general).")
    Term.(const run $ file_arg)

(* simulate *)

let simulate_cmd =
  let run session trials seed method_ batch bias no_forcing rel_error level
      verify =
    session @@ fun s ->
    let sd = s.sd and horizon = s.options.horizon in
    let z =
      match level with
      | `P90 -> 1.6448536269514722
      | `P95 -> Rare_event.z95
      | `P99 -> Rare_event.z99
    in
    let pct = match level with `P90 -> 90 | `P95 -> 95 | `P99 -> 99 in
    let lo, hi =
      match method_ with
      | `Crude ->
        let stats = Simulator.unreliability ~seed sd ~horizon ~trials in
        let lo, hi = Simulator.wilson_interval ~z stats in
        Printf.printf
          "method: crude Monte-Carlo\n\
           failures: %d / %d\n\
           estimate: %.4e (%d%% Wilson CI [%.4e, %.4e])\n"
          stats.Simulator.failures stats.Simulator.trials
          stats.Simulator.estimate pct lo hi;
        (lo, hi)
      | `Is ->
        let options =
          {
            Rare_event.default_options with
            trials;
            seed;
            domains = s.options.domains;
            batch;
            static_bias = bias;
            forcing = not no_forcing;
            target_rel_error = rel_error;
          }
        in
        let e = Rare_event.run ~options ~obs:s.obs sd ~horizon in
        let lo, hi = Rare_event.confidence ~z e in
        Printf.printf
          "method: importance sampling (%s, static bias x%g)\n\
           trials: %d (hits: %d)\n\
           estimate: %.4e (%d%% CI [%.4e, %.4e])\n\
           std error: %.3e (rel %.2e)\n\
           mean likelihood weight: %.4f\n"
          (if no_forcing then "no forcing" else "forcing")
          bias e.Rare_event.trials e.Rare_event.hits
          e.Rare_event.estimate pct lo hi e.Rare_event.std_error
          e.Rare_event.rel_error e.Rare_event.mean_weight;
        (match Rare_event.variance_reduction e with
        | Some f -> Printf.printf "variance reduction vs crude MC: %.3gx\n" f
        | None -> ());
        (lo, hi)
    in
    if verify then begin
      (* The verification side is an ordinary analysis, so a warm
         persistent cache makes repeated cross-checks nearly free. *)
      let result =
        Sdft_analysis.analyze ~options:s.options ?cache:s.cache ~obs:s.obs
          sd
      in
      let check = Sdft_analysis.verify_sim result ~sim_ci:(lo, hi) in
      Printf.printf "analytic rare-event total: %.4e\n"
        result.Sdft_analysis.total;
      Format.printf "%a@." Sdft_analysis.pp_sim_check check;
      Option.iter report_disk_cache s.cache;
      if not check.Sdft_analysis.overlaps then raise (Exit_code 1)
    end
  in
  let trials =
    Arg.(value & opt int 100_000 & info [ "trials"; "n" ] ~docv:"N" ~doc:"Number of Monte-Carlo trials.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let method_ =
    Arg.(value & opt (enum [ ("is", `Is); ("crude", `Crude) ]) `Is
         & info [ "method" ] ~docv:"METHOD" ~doc:"$(b,is) (rare-event importance sampling, the default) or $(b,crude) (plain Monte-Carlo).")
  in
  let batch =
    Arg.(value & opt int 4096 & info [ "batch" ] ~docv:"N" ~doc:"Trials per RNG stream (importance sampling).")
  in
  let bias =
    Arg.(value & opt float 50.0 & info [ "bias" ] ~docv:"F" ~doc:"Multiplicative failure-biasing boost of static probabilities; 1 disables.")
  in
  let no_forcing =
    Arg.(value & flag & info [ "no-forcing" ] ~doc:"Disable forcing (truncated-exponential conditioning of jump times).")
  in
  let rel_error =
    Arg.(value & opt (some float) None & info [ "target-rel-error" ] ~docv:"R" ~doc:"Stop early once the relative standard error falls below $(docv).")
  in
  let level =
    Arg.(value & opt (enum [ ("90", `P90); ("95", `P95); ("99", `P99) ]) `P95
         & info [ "level" ] ~docv:"PCT" ~doc:"Confidence level of the reported interval: 90, 95 or 99.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Also run the analytic pipeline and check that the simulation CI overlaps its certified budget interval; exit 1 when the intervals are disjoint.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Statistical estimate of the failure probability (full SD semantics): rare-event importance sampling or crude Monte-Carlo, optionally cross-checked against the analytic certified interval.")
    Term.(const run
          $ session_term ~engine:true ~domains:true ~cache:true ~resource:false ()
          $ trials $ seed $ method_ $ batch $ bias $ no_forcing $ rel_error
          $ level $ verify)

(* exact *)

let exact_cmd =
  let run session max_states =
    session @@ fun s ->
    let horizon = s.options.horizon in
    let guard = Sdft_analysis.resource_guard ~obs:s.obs s.options in
    Sdft_util.Obs.begin_phase s.obs "exact" ();
    match Sdft_product.solve ~max_states ~guard ~obs:s.obs s.sd ~horizon with
    | p -> Printf.printf "p(FT, %gh) = %.6e\n" horizon p
    | exception Sdft_product.Too_many_states n ->
      Printf.eprintf
        "sdft: product state space exceeds %d states; use 'analyze' or 'simulate'\n"
        n;
      raise (Exit_code 1)
    | exception Sdft_util.Guard.Limit_hit r ->
      (* Exact semantics cannot degrade — a partial product chain is
         not a bound on anything. *)
      Printf.eprintf
        "sdft: exact analysis hit the %s; use 'analyze' (which degrades \
         gracefully) or 'simulate'\n"
        (Sdft_util.Guard.reason_to_string r);
      raise (Exit_code 1)
  in
  let max_states =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~docv:"N" ~doc:"State-space safety limit.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact failure probability via the full product Markov chain (small models only).")
    Term.(const run $ session_term ~cutoff:false () $ max_states)

(* translate *)

let translate_cmd =
  let run file horizon =
    let sd = or_die (load_model file) in
    let translation = Sdft_translate.translate sd ~horizon in
    print_string
      (Sdft_format.to_string (Sdft.static_only translation.Sdft_translate.static_tree))
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Print the static fault tree with equivalent minimal cutsets (Section V-B).")
    Term.(const run $ file_arg $ horizon_arg)

(* importance *)

let importance_cmd =
  let run session top_n =
    session @@ fun s ->
    let p = cutsets s in
    let tree = p.translation.Sdft_translate.static_tree in
    let imp = Importance.compute tree p.generation.Mocus.cutsets in
    Printf.printf "%-30s %12s %12s %10s %10s\n" "event" "FV" "Birnbaum"
      "RAW" "RRW";
    List.iteri
      (fun i a ->
        if i < top_n then
          Printf.printf "%-30s %12.4e %12.4e %10.3f %10.3f\n"
            (Fault_tree.basic_name tree a)
            (Importance.fussell_vesely imp a)
            (Importance.birnbaum imp a) (Importance.raw imp a)
            (Importance.rrw imp a))
      (Importance.rank_by_fussell_vesely imp)
  in
  let top_n =
    Arg.(value & opt int 25 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) most important events.")
  in
  Cmd.v
    (Cmd.info "importance" ~doc:"Importance measures (Fussell-Vesely, Birnbaum, RAW, RRW).")
    Term.(const run $ session_term () $ top_n)

(* uncertainty *)

let uncertainty_cmd =
  let run session samples seed error_factor =
    session @@ fun s ->
    let p = cutsets s in
    let spec _ = Uncertainty.Lognormal { error_factor } in
    let stats =
      Uncertainty.propagate ~samples ~seed p.translation.Sdft_translate.static_tree
        p.generation.Mocus.cutsets ~spec
    in
    Format.printf "%a@." Uncertainty.pp_stats stats
  in
  let samples =
    Arg.(value & opt int 2000 & info [ "samples"; "n" ] ~docv:"N" ~doc:"Monte-Carlo parameter samples.")
  in
  let seed = Arg.(value & opt int 20240 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let ef =
    Arg.(value & opt float 3.0 & info [ "error-factor" ] ~docv:"EF" ~doc:"Lognormal error factor applied to every basic event.")
  in
  Cmd.v
    (Cmd.info "uncertainty" ~doc:"Propagate lognormal parameter uncertainty over the cutset list.")
    Term.(const run $ session_term () $ samples $ seed $ ef)

(* sensitivity *)

let sensitivity_cmd =
  let run session factor top_n =
    session @@ fun s ->
    let p = cutsets s in
    let tree = p.translation.Sdft_translate.static_tree in
    let t = Sensitivity.tornado ~factor tree p.generation.Mocus.cutsets in
    Sensitivity.print_ascii tree ~top:top_n t
  in
  let factor =
    Arg.(value & opt float 10.0 & info [ "factor" ] ~docv:"F" ~doc:"Multiplicative swing applied to each probability.")
  in
  let top_n =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) largest swings.")
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"One-at-a-time tornado sensitivity over the cutset list.")
    Term.(const run $ session_term () $ factor $ top_n)

(* convert *)

let convert_cmd =
  let run file output format =
    let sd = or_die (load_model file) in
    let contents =
      match format with
      | `Sdft -> Sdft_format.to_string sd
      | `Opsa ->
        (* The exchange format carries the static structure only; dynamic
           annotations are dropped with a warning. *)
        if Sdft.dynamic_basics sd <> [] then
          prerr_endline
            "sdft: note: Open-PSA output drops the dynamic annotations";
        Open_psa.to_string (Sdft.tree sd)
    in
    match output with
    | None -> print_string contents
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc contents)
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  let format =
    Arg.(value & opt (enum [ ("sdft", `Sdft); ("opsa", `Opsa) ]) `Sdft
         & info [ "to" ] ~docv:"FORMAT" ~doc:"Output format: $(b,sdft) (native) or $(b,opsa) (Open-PSA XML, static part).")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between the native text format and Open-PSA XML (input format by extension).")
    Term.(const run $ file_arg $ output $ format)

(* sequences *)

let sequences_cmd =
  let run session top_n =
    session @@ fun s ->
    let p = cutsets s in
    let tree = Sdft.tree s.sd in
    List.iteri
      (fun i c ->
        if i < top_n then begin
          let r =
            Cut_sequences.of_cutset s.sd c ~horizon:s.options.horizon
          in
          Format.printf "%a (p~ = %.3e):@." (Cutset.pp tree) c
            r.Cut_sequences.total;
          List.iter
            (fun seq -> Format.printf "  %a@." (Cut_sequences.pp s.sd) seq)
            r.Cut_sequences.sequences
        end)
      (Cutset.sort_by_probability p.translation.Sdft_translate.static_tree
         p.generation.Mocus.cutsets)
  in
  let top_n =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Analyse the $(docv) most important cutsets.")
  in
  Cmd.v
    (Cmd.info "sequences" ~doc:"Minimal cut sequences: failure orders of each cutset with their probabilities.")
    Term.(const run $ session_term () $ top_n)

(* availability *)

let availability_cmd =
  let run session =
    session @@ fun s ->
    match Availability.analyze ~options:s.options ~obs:s.obs s.sd with
    | Some r ->
      report_generation s r.Availability.phase1;
      Printf.printf
        "steady-state unavailability (REA over %d cutsets): %.4e\n"
        r.Availability.n_cutsets r.Availability.unavailability;
      let tree = Sdft.tree s.sd in
      List.iter
        (fun (b, q) ->
          Printf.printf "  %-30s q = %.4e\n"
            (Fault_tree.basic_name tree b) q)
        r.Availability.per_event
    | None ->
      Printf.eprintf
        "sdft: some dynamic event has no steady state (not repairable)\n";
      raise (Exit_code 1)
  in
  Cmd.v
    (Cmd.info "availability" ~doc:"Long-run unavailability of a repairable SD fault tree.")
    Term.(const run $ session_term ~horizon:false ())

(* dot *)

let dot_cmd =
  let run file output =
    let sd = or_die (load_model file) in
    let tree = Sdft.tree sd in
    let dot =
      Dot.to_dot
        ~dynamic_basics:(Sdft.is_dynamic sd)
        ~trigger_edges:(Sdft.trigger_edges sd) tree
    in
    match output with
    | None -> print_string dot
    | Some path -> Dot.write_file path dot
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the model as a Graphviz graph.")
    Term.(const run $ file_arg $ output)

(* gen *)

let gen_cmd =
  let run which output =
    let sd =
      match which with
      | `Pumps -> Pumps.sd_tree ()
      | `Bwr ->
        Bwr.build
          {
            Bwr.default_config with
            repair_rate = Some 0.1;
            triggers = Bwr.all_trigger_sites;
          }
      | `Small -> Sdft.static_only (Industrial.generate Industrial.small)
      | `Medium -> Sdft.static_only (Industrial.generate Industrial.medium)
      | `Model1 -> Sdft.static_only (Industrial.generate Industrial.model_1)
      | `Model2 -> Sdft.static_only (Industrial.generate Industrial.model_2)
    in
    match output with
    | None -> print_string (Sdft_format.to_string sd)
    | Some path -> Sdft_format.to_file path sd
  in
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("pumps", `Pumps);
                  ("bwr", `Bwr);
                  ("small", `Small);
                  ("medium", `Medium);
                  ("model1", `Model1);
                  ("model2", `Model2);
                ]))
          None
      & info [] ~docv:"MODEL" ~doc:"One of pumps, bwr, small, medium, model1, model2.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit one of the bundled models in the text format.")
    Term.(const run $ which $ output)

(* serve — the resident analysis daemon. *)

let listen_arg =
  Arg.(value & opt string "unix:sdft.sock"
       & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Endpoint to serve on: $(b,unix:PATH) (default: \
                 $(b,unix:sdft.sock)), $(b,tcp:HOST:PORT), or a bare path \
                 (a Unix socket). A stale socket file is replaced.")

let serve_cmd =
  let run listen workers queue quota request_domains default_deadline
      default_mem watchdog idem_window cache_path metrics_path metrics_format
      =
    let addr = or_die (Sdft_server.Daemon.addr_of_string listen) in
    let config =
      {
        Sdft_server.Server_core.default_config with
        Sdft_server.Server_core.workers;
        queue_capacity = queue;
        client_quota = quota;
        max_request_domains = request_domains;
        default_deadline;
        default_mem_limit_mb = default_mem;
        watchdog_timeout = (if watchdog > 0.0 then Some watchdog else None);
        response_window = idem_window;
      }
    in
    (* A client vanishing mid-response must degrade to a failed write on
       that connection, not a fatal SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    with_disk_cache cache_path (fun disk_cache ->
        let cache =
          match disk_cache with Some c -> c | None -> Quant_cache.create ()
        in
        let core = Sdft_server.Server_core.create ~config ~cache () in
        let stop_on_signal =
          Sys.Signal_handle
            (fun _ -> Sdft_server.Daemon.request_stop core)
        in
        Sys.set_signal Sys.sigint stop_on_signal;
        Sys.set_signal Sys.sigterm stop_on_signal;
        let write_metrics () =
          match metrics_path with
          | None -> ()
          | Some path -> (
            try
              Sdft_util.Metrics.write_file_in ~format:metrics_format
                (Sdft_server.Server_core.metrics core)
                path
            with Sys_error m -> Printf.eprintf "sdft: %s\n" m)
        in
        Fun.protect ~finally:write_metrics (fun () ->
            Sdft_server.Daemon.serve core addr ~on_ready:(fun () ->
                Printf.printf
                  "sdft: serving on %s (%d workers, queue %d, quota %d)\n%!"
                  (Sdft_server.Daemon.addr_to_string addr)
                  config.Sdft_server.Server_core.workers queue quota));
        (match disk_cache with
        | Some c -> report_disk_cache c
        | None -> ());
        Printf.printf "sdft: server stopped\n%!")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing analyze requests.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound; a saturated queue rejects with a \
                   structured $(i,retry_after) response instead of queueing \
                   unboundedly.")
  in
  let quota =
    Arg.(value & opt int 16
         & info [ "quota" ] ~docv:"N"
             ~doc:"Maximum in-flight (queued plus running) requests per \
                   client.")
  in
  let request_domains =
    Arg.(value & opt int 1
         & info [ "request-domains" ] ~docv:"N"
             ~doc:"Clamp on the per-request $(i,domains) parameter (solver \
                   domains nested inside one worker).")
  in
  let default_deadline =
    Arg.(value & opt (some float) None
         & info [ "default-deadline" ] ~docv:"SECONDS"
             ~doc:"Guard deadline applied to requests that do not set \
                   their own; requests degrade gracefully when it \
                   expires.")
  in
  let default_mem =
    Arg.(value & opt (some int) None
         & info [ "default-mem-limit-mb" ] ~docv:"MB"
             ~doc:"Guard heap ceiling applied to requests that do not set \
                   their own.")
  in
  let watchdog =
    Arg.(value & opt float 60.0
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Declare a busy worker domain lost after $(docv) seconds \
                   without a heartbeat: its request is failed with a \
                   retryable $(i,worker_lost) error and its pool slot is \
                   respawned, so one hung analysis cannot shrink the pool. \
                   $(b,0) disables the watchdog.")
  in
  let idem_window =
    Arg.(value & opt int 128
         & info [ "idem-window" ] ~docv:"N"
             ~doc:"Remember the last $(docv) response lines per \
                   (client, idem) pair so retried requests carrying an \
                   $(i,idem) key are answered verbatim instead of \
                   recomputed. $(b,0) disables the window.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Dump the server registry (requests, rejections, request \
                   latency histogram, cache roll-up) to $(docv) on exit. \
                   The live equivalents are the $(b,metrics) op and a plain \
                   HTTP $(b,GET /metrics) on the same socket.")
  in
  let metrics_format =
    Arg.(value
         & opt (enum [ ("json", Sdft_util.Metrics.Json_format);
                       ("prom", Sdft_util.Metrics.Prom_format) ])
             Sdft_util.Metrics.Json_format
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Format of the $(b,--metrics) dump: $(b,json) or \
                   $(b,prom).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident analysis server: accept newline-delimited JSON \
             analysis requests over a Unix or TCP socket, multiplexed over \
             a worker-domain pool and one shared quantification cache \
             (flushed on graceful shutdown). Each request runs under its \
             own observability context and resource guard; errors are \
             answered, never fatal.")
    Term.(const run $ listen_arg $ workers $ queue $ quota $ request_domains
          $ default_deadline $ default_mem $ watchdog $ idem_window
          $ cache_arg $ metrics $ metrics_format)

(* client — line-oriented scripting client for serve. *)

let client_cmd =
  let run connect op file id client_name idem timeout retries horizon cutoff
      engine domains deadline mem_limit_mb max_order failpoints verbose raw =
    let addr = or_die (Sdft_server.Daemon.addr_of_string connect) in
    (* Retried analyzes get an idempotency key automatically so a resend
       after a broken socket or a lost worker is answered from the
       server's response window instead of recomputed. *)
    let idem =
      match (idem, raw, op) with
      | (Some _ as k), _, _ -> k
      | None, None, "analyze" when retries > 0 ->
        Some
          (Digest.to_hex
             (Digest.string
                (Printf.sprintf "%d|%.9f|%s" (Unix.getpid ())
                   (Unix.gettimeofday ()) connect)))
      | _ -> None
    in
    let line =
      match raw with
      | Some l -> l
      | None -> (
        match op with
        | "analyze" ->
          let path =
            match file with
            | Some f -> f
            | None ->
              or_die (Error "analyze needs a MODEL file (or use --raw)")
          in
          (* .xml goes through the Open-PSA reader and is re-serialized;
             the native text format travels as-is. *)
          let model =
            if Filename.check_suffix path ".xml" then
              Sdft_format.to_string (or_die (load_model path))
            else
              or_die
                (try
                   Ok In_channel.(with_open_bin path input_all)
                 with Sys_error m -> Error m)
          in
          Sdft_server.Protocol.analyze_line ?id ?client:client_name ?idem
            ?horizon ?cutoff ?engine ?domains ?deadline ?mem_limit_mb
            ?max_order ?failpoints ~verbose ~model ()
        | other -> Sdft_server.Protocol.simple_line ?id ?client:client_name other)
    in
    let cl =
      try Sdft_server.Client.connect ?timeout ~retries addr with
      | Unix.Unix_error (e, _, _) ->
        or_die
          (Error
             (Printf.sprintf "cannot connect to %s: %s" connect
                (Unix.error_message e)))
      | Sdft_server.Client.Timeout tmo ->
        or_die
          (Error
             (Printf.sprintf "connecting to %s timed out after %gs" connect
                tmo))
    in
    let response =
      match Sdft_server.Client.request cl line with
      | r -> r
      | exception End_of_file ->
        or_die (Error "server closed the connection before replying")
      | exception Unix.Unix_error (e, _, _) ->
        or_die (Error (Unix.error_message e))
      | exception Sdft_server.Client.Timeout tmo ->
        or_die
          (Error (Printf.sprintf "no response after %gs (--timeout)" tmo))
    in
    Sdft_server.Client.close cl;
    (* The metrics op unwraps to the raw exposition text (scrape-friendly);
       everything else prints the raw response line for jq-style piping. *)
    let module J = Sdft_util.Json in
    (match
       if op = "metrics" && raw = None then
         Option.bind (Result.to_option (J.parse response)) (fun v ->
             Option.bind (J.member "result" v) (fun r ->
                 Option.bind (J.member "prometheus" r) J.to_string))
       else None
     with
    | Some text -> print_string text
    | None -> print_endline response);
    match Result.to_option (J.parse response) with
    | Some v when J.member "ok" v = Some (J.Bool true) -> ()
    | _ -> raise (Exit_code 1)
  in
  let connect =
    Arg.(value & opt string "unix:sdft.sock"
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Server endpoint: $(b,unix:PATH), $(b,tcp:HOST:PORT) or a \
                   bare socket path.")
  in
  let op =
    Arg.(value
         & opt (enum [ ("analyze", "analyze"); ("ping", "ping");
                       ("metrics", "metrics"); ("stats", "stats");
                       ("health", "health"); ("shutdown", "shutdown") ])
             "analyze"
         & info [ "op" ] ~docv:"OP"
             ~doc:"Request op: $(b,analyze) (default), $(b,ping), \
                   $(b,metrics), $(b,stats), $(b,health) or \
                   $(b,shutdown).")
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"MODEL" ~doc:"Model file for $(b,analyze).")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id, echoed in the response.")
  in
  let client_name =
    Arg.(value & opt (some string) None
         & info [ "client" ] ~docv:"NAME" ~doc:"Quota bucket to bill this request to.")
  in
  let idem =
    Arg.(value & opt (some string) None
         & info [ "idem" ] ~docv:"KEY"
             ~doc:"Idempotency key: the server answers a retry of the same \
                   (client, $(docv)) pair with the remembered response line \
                   instead of recomputing. Auto-generated for $(b,analyze) \
                   when $(b,--retries) is positive.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Give up on the connect handshake or on waiting for the \
                   response after $(docv) seconds, with a structured error \
                   and exit 2, instead of blocking forever. Timeouts are \
                   never retried.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget for this request: reconnect-and-resend on a \
                   broken socket and re-submit after $(i,retry_after) on \
                   retryable rejections (saturated, quota_exceeded, \
                   shutting_down, worker_lost), with capped exponential \
                   backoff. Default $(b,0): fail fast.")
  in
  let horizon =
    Arg.(value & opt (some float) None
         & info [ "horizon"; "t" ] ~docv:"HOURS" ~doc:"Analysis horizon.")
  in
  let cutoff =
    Arg.(value & opt (some float) None
         & info [ "cutoff"; "c" ] ~docv:"P" ~doc:"Generation cutoff.")
  in
  let engine =
    let names = List.map (fun (n, _) -> (n, n)) Sdft_analysis.engines in
    Arg.(value & opt (some (enum names)) None
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:(engine_doc ^ " Absent: the server's default."))
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains"; "j" ] ~docv:"N"
             ~doc:"Requested solver domains (server clamps).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-request guard deadline.")
  in
  let mem_limit =
    Arg.(value & opt (some int) None
         & info [ "mem-limit-mb" ] ~docv:"MB" ~doc:"Per-request heap ceiling.")
  in
  let max_order =
    Arg.(value & opt (some int) None
         & info [ "max-order" ] ~docv:"K" ~doc:"Cutset order bound.")
  in
  let failpoints =
    Arg.(value & opt (some string) None
         & info [ "failpoints" ] ~docv:"SPEC"
             ~doc:"Fault-injection spec armed on this request's private \
                   registry only (SDFT_FAILPOINTS syntax).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Ask for the nondeterministic timing/cache section in \
                   the response.")
  in
  let raw =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send $(docv) verbatim as the request frame (overrides \
                   every other request option).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running $(b,sdft serve) daemon and \
             print the response line (exit 0 on ok, 1 on a structured \
             error, 2 on transport trouble).")
    Term.(const run $ connect $ op $ file $ id $ client_name $ idem
          $ timeout $ retries $ horizon $ cutoff $ engine $ domains
          $ deadline $ mem_limit $ max_order $ failpoints $ verbose $ raw)

let main_cmd =
  let info =
    Cmd.info "sdft" ~version:"1.0.0"
      ~doc:"Scalable analysis of fault trees with dynamic features (SD fault trees)"
  in
  Cmd.group info
    [
      analyze_cmd;
      explain_cmd;
      sweep_cmd;
      mcs_cmd;
      classify_cmd;
      simulate_cmd;
      exact_cmd;
      translate_cmd;
      importance_cmd;
      uncertainty_cmd;
      availability_cmd;
      sequences_cmd;
      convert_cmd;
      sensitivity_cmd;
      dot_cmd;
      gen_cmd;
      serve_cmd;
      client_cmd;
    ]

(* [~catch:false] so our exceptions reach this handler instead of cmdliner's
   generic backtrace printer: [Exit_code] carries the intended exit status
   (2 = bad input, 1 = analysis verdict), and the named input-error
   exceptions become one-line diagnostics with exit 2. *)
let () =
  let code =
    try Cmd.eval ~catch:false main_cmd with
    | Exit_code n -> n
    | Sdft_format.Error m | Open_psa.Error m | Sys_error m | Failure m ->
      Printf.eprintf "sdft: %s\n" m;
      2
  in
  (* Fold cmdliner's own usage-error code into the input-error convention:
     2 = bad input (files, models, flags), 1 = analysis verdict. *)
  let code = if code = Cmd.Exit.cli_error then 2 else code in
  exit code
