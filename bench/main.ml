(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) on the bundled models, plus validation tables and
   bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 -- everything, scaled models
     dune exec bench/main.exe -- --full       -- paper-scale industrial models
     dune exec bench/main.exe -- e2 e6        -- selected experiments only
     dune exec bench/main.exe -- --no-micro   -- skip the bechamel pass

   Experiment ids (see DESIGN.md):
     e1 running example   e2 BWR repairs+triggers   e3 model parameters
     e4 dynamization sweep  e5 Figure 2 histograms  e6 Figure 3 per-MCS cost
     e7 phases table        e8 horizon table        v1 validation
     a1 cutoff ablation     a2 relevant-set ablation a3 CCF ablation
     u1 parameter uncertainty

   Cutset generation runs on the modular ZDD engine (exact residual mass)
   unless a row names MOCUS; those are the two engines the library has. *)

module Table = Sdft_util.Table
module Timer = Sdft_util.Timer

let scaled_model_1 () = Industrial.generate Industrial.small

let scaled_model_2 () = Industrial.generate Industrial.medium

let full_scale = ref false

let model_1 () =
  if !full_scale then Industrial.generate Industrial.model_1
  else scaled_model_1 ()

let model_2 () =
  if !full_scale then Industrial.generate Industrial.model_2
  else scaled_model_2 ()

let zdd_options =
  { Sdft_analysis.default_options with engine = Sdft_analysis.Zdd_engine }

(* The fully dynamic BWR study: repairs at rate 1/10h and every trigger
   site. *)
let bwr_all_triggers () =
  Bwr.build
    {
      Bwr.default_config with
      repair_rate = Some 0.1;
      triggers = Bwr.all_trigger_sites;
    }

(* n AND-ed Erlang-k events: one cutset of n dynamic events (the Figure 3
   family). *)
let erlang_cutset_sd ~n_dyn ~phases =
  let b = Fault_tree.Builder.create () in
  let leaves =
    List.init n_dyn (fun i -> Fault_tree.Builder.basic b (Printf.sprintf "x%d" i))
  in
  let top = Fault_tree.Builder.gate b "top" Fault_tree.And leaves in
  let tree = Fault_tree.Builder.build b ~top in
  Sdft.make tree
    ~dynamic:
      (List.init n_dyn (fun i ->
           (Printf.sprintf "x%d" i, Dbe.erlang ~phases ~lambda:1e-3 ~mu:0.05 ())))
    ~triggers:[]

(* ------------------------------------------------------------------ *)
(* E1: the running example (Section II, Examples 1-8). *)

let e1_running_example () =
  let tree = Pumps.static_tree () in
  let t = Table.create ~title:"E1: running example (paper Examples 1-8)"
      ~columns:[ "quantity"; "paper"; "ours" ] in
  let a = Option.get (Fault_tree.basic_index tree "a") in
  let d = Option.get (Fault_tree.basic_index tree "d") in
  let p_ad =
    Fault_tree.scenario_probability tree (Sdft_util.Int_set.of_list [ a; d ])
  in
  Table.add_row t [ "p({a,d})"; "2.988e-06"; Table.cell_sci p_ad ];
  let mcs = Mocus.minimal_cutsets tree in
  Table.add_row t [ "# minimal cutsets"; "5"; string_of_int (List.length mcs) ];
  let bdd = Minsol.fault_tree_cutsets tree in
  Table.add_row t
    [ "MOCUS = BDD engine"; "-"; string_of_bool (List.length bdd = List.length mcs) ];
  Table.add_row t
    [ "rare-event approx"; "-"; Table.cell_sci (Cutset.rare_event_approximation tree mcs) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E2: BWR — repairs and cumulative triggers (Section VI-A table). *)

let e2_bwr () =
  let tree = Bwr.static_tree () in
  let static_rea, n_mcs = Sdft_analysis.static_rare_event tree in
  Printf.printf
    "BWR model: %d basic events, %d gates, %d minimal cutsets above 1e-15\n"
    (Fault_tree.n_basics tree) (Fault_tree.n_gates tree) n_mcs;
  let t =
    Table.create ~title:"E2: BWR failure frequency (24h, k=1) — cf. Sec. VI-A"
      ~columns:[ "setting"; "failure freq."; "analysis time" ]
  in
  Table.add_row t [ "no timing"; Table.cell_sci static_rea; "-" ];
  let row label config =
    let result, seconds =
      Timer.time (fun () -> Sdft_analysis.analyze (Bwr.build config))
    in
    Table.add_row t
      [ label; Table.cell_sci result.Sdft_analysis.total; Table.cell_duration seconds ];
    result
  in
  let _ = row "dynamic, no repairs" Bwr.default_config in
  let _ = row "repair rate 1/100h" { Bwr.default_config with repair_rate = Some 0.01 } in
  let _ = row "repair rate 1/10h" { Bwr.default_config with repair_rate = Some 0.1 } in
  let base = { Bwr.default_config with repair_rate = Some 0.1 } in
  let labels =
    [ "+FEED&BLEED trigger"; "+RHR trigger"; "+EFW trigger"; "+ECC trigger";
      "+SWS trigger"; "+CCW trigger" ]
  in
  let last = ref None in
  List.iteri
    (fun i label ->
      let triggers = List.filteri (fun j _ -> j <= i) Bwr.all_trigger_sites in
      last := Some (row label { base with triggers }))
    labels;
  Table.print t;
  match !last with
  | Some result ->
    Printf.printf
      "fully dynamic: %d of %d cutsets analysed dynamically; %.2f dynamic \
       events per dynamic cutset on average, of which %.2f added by \
       triggering logic\n"
      result.Sdft_analysis.n_dynamic_cutsets result.Sdft_analysis.n_cutsets
      (let h = Sdft_analysis.dynamic_histogram result in
       let num = ref 0 and acc = ref 0 in
       Array.iteri
         (fun b c ->
           if b > 0 then begin
             num := !num + c;
             acc := !acc + (b * c)
           end)
         h;
       if !num = 0 then 0.0 else float_of_int !acc /. float_of_int !num)
      (Sdft_analysis.mean_added_dynamic result)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* E3: industrial model parameters (Section VI-B first table), with the
   ZDD-versus-MOCUS comparison substituting for RiskSpectrum timings. *)

let e3_models () =
  let t =
    Table.create
      ~title:"E3: industrial models — cutset generation (cf. Sec. VI-B)"
      ~columns:[ "model"; "engine"; "# BE"; "# gates"; "# MCS"; "generation time" ]
  in
  let run name tree engine engine_name =
    let result, seconds =
      Timer.time (fun () -> Sdft_analysis.generate_cutsets ~cutoff:1e-15 engine tree)
    in
    Table.add_row t
      [
        name;
        engine_name;
        string_of_int (Fault_tree.n_basics tree);
        string_of_int (Fault_tree.n_gates tree);
        string_of_int (List.length result.Mocus.cutsets);
        Table.cell_duration seconds;
      ]
  in
  let m1 = model_1 () and m2 = model_2 () in
  run "model 1" m1 Sdft_analysis.Zdd_engine "ZDD";
  if not !full_scale then run "model 1" m1 Sdft_analysis.Mocus_sound "MOCUS";
  run "model 2" m2 Sdft_analysis.Zdd_engine "ZDD";
  Table.print t;
  print_endline
    "(the sound basics-only MOCUS is skipped at full scale; at this scale it\n\
    \ takes seconds, so nothing here reproduces the hours-scale generation\n\
    \ times the paper reports for the commercial solver)"

(* ------------------------------------------------------------------ *)
(* E4 + E5: dynamization sweep on model 1 (Section VI-B sweep table) and
   the Figure 2 histograms of dynamic events per cutset. *)

let sweep_percentages = [ 10; 20; 30; 40; 50; 100 ]

let e4_sweep_and_histograms ~histograms () =
  let tree = model_1 () in
  let chain_groups = Industrial.run_event_groups tree in
  let t =
    Table.create ~title:"E4: failure frequency vs share of dynamic events (24h, k=1)"
      ~columns:[ "% dyn. BE"; "% trigg. BE"; "failure freq."; "# MCS"; "dyn. MCS"; "time" ]
  in
  let static_rea, n_static =
    Sdft_analysis.static_rare_event ~engine:Sdft_analysis.Zdd_engine tree
  in
  Table.add_row t
    [ "0"; "0"; Table.cell_sci static_rea; string_of_int n_static; "0"; "-" ];
  let results =
    List.map
      (fun percent ->
        let config =
          {
            Dynamize.default_config with
            dynamic_fraction = float_of_int percent /. 100.0;
            trigger_fraction = float_of_int percent /. 1000.0;
            repair_rate = Some 0.05;
            chain_groups = Some chain_groups;
          }
        in
        let d = Dynamize.run ~config tree in
        let result, seconds =
          Timer.time (fun () -> Sdft_analysis.analyze ~options:zdd_options d.Dynamize.sd)
        in
        Table.add_row t
          [
            string_of_int percent;
            Printf.sprintf "%.1f" (float_of_int percent /. 10.0);
            Table.cell_sci result.Sdft_analysis.total;
            string_of_int result.Sdft_analysis.n_cutsets;
            string_of_int result.Sdft_analysis.n_dynamic_cutsets;
            Table.cell_duration seconds;
          ];
        (percent, result))
      sweep_percentages
  in
  Table.print t;
  if histograms then begin
    print_endline
      "\nE5 (Figure 2): dynamic basic events per minimal cutset, per setting";
    List.iter
      (fun (percent, result) ->
        Sdft_analysis.print_histogram
          ~label:(Printf.sprintf "-- %d%% dynamic --" percent)
          (Sdft_analysis.dynamic_histogram result))
      results
  end

(* ------------------------------------------------------------------ *)
(* E6: Figure 3 — time to solve one cutset's Markov model as a function of
   the number of dynamic events in it and the number of phases. *)

let e6_per_mcs_cost () =
  let t =
    Table.create
      ~title:
        "E6 (Figure 3): per-cutset Markov solve time (chain states | time)"
      ~columns:[ "# dyn events"; "k=1"; "k=2"; "k=3" ]
  in
  let cell n_dyn phases =
    let sd = erlang_cutset_sd ~n_dyn ~phases in
    let cutset =
      Sdft_util.Int_set.of_list (List.init n_dyn Fun.id)
    in
    let model = Cutset_model.build sd cutset in
    (* One warm-up, then measure a few repetitions for a stable number. *)
    let _ = Cutset_model.quantify model ~horizon:24.0 in
    let reps = 5 in
    let t0 = Timer.start () in
    let states = ref 0 in
    for _ = 1 to reps do
      let q = Cutset_model.quantify model ~horizon:24.0 in
      states := q.Cutset_model.product_states
    done;
    let seconds = Timer.elapsed_s t0 /. float_of_int reps in
    Printf.sprintf "%d | %.4fs" !states seconds
  in
  List.iter
    (fun n_dyn ->
      Table.add_row t
        [ string_of_int n_dyn; cell n_dyn 1; cell n_dyn 2; cell n_dyn 3 ])
    [ 1; 2; 3; 4; 5; 6 ];
  Table.print t;
  print_endline
    "(chain size is (k+1)^n for n events with k phases: exponential in n\n\
    \ with base growing in k, hence the paper's log-scale growth)"

(* ------------------------------------------------------------------ *)
(* E7: phases table — total analysis time for k = 1, 2, 3. *)

let e7_phases () =
  let t =
    Table.create
      ~title:"E7: quantification cost vs phases k (24h; cells: dyn. MCS | time)"
      ~columns:[ "model"; "k=1"; "k=2"; "k=3" ]
  in
  (* Rates are calibrated so that every event's mission-window failure
     probability is independent of k (Dynamize.Mission_probability):
     otherwise preserving the MTTF makes Erlang failures vanish within the
     mission for rare events and the cutoff empties the cutset list. With
     the probability fixed, k changes only the chain sizes — the paper's
     (k+1)^n effect. *)
  let row name tree fraction =
    let chain_groups = Industrial.run_event_groups tree in
    let cells =
      List.map
        (fun phases ->
          let config =
            {
              Dynamize.default_config with
              dynamic_fraction = fraction;
              trigger_fraction = fraction /. 10.0;
              phases;
              repair_rate = Some 0.05;
              chain_groups = Some chain_groups;
              calibration = Dynamize.Mission_probability;
            }
          in
          let d = Dynamize.run ~config tree in
          let result, seconds =
            Timer.time (fun () ->
                Sdft_analysis.analyze ~options:zdd_options d.Dynamize.sd)
          in
          Printf.sprintf "%d | %s" result.Sdft_analysis.n_dynamic_cutsets
            (Table.cell_duration seconds))
        [ 1; 2; 3 ]
    in
    Table.add_row t (name :: cells)
  in
  row "model 1" (model_1 ()) 1.0;
  row "model 2" (model_2 ()) 0.5;
  Table.print t

(* ------------------------------------------------------------------ *)
(* E8: horizon table on model 2. *)

let e8_horizon () =
  let tree = model_2 () in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.3;
      trigger_fraction = 0.03;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
    }
  in
  let d = Dynamize.run ~config tree in
  let t =
    Table.create ~title:"E8: failure frequency and time vs horizon (model 2)"
      ~columns:[ "horizon"; "failure freq."; "analysis time"; "cache h/m" ]
  in
  let option_sets =
    List.map (fun horizon -> { zdd_options with horizon }) [ 24.0; 48.0; 72.0; 96.0 ]
  in
  let points, _cache = Sdft_analysis.sweep d.Dynamize.sd option_sets in
  List.iter
    (fun (p : Sdft_analysis.sweep_point) ->
      Table.add_row t
        [
          Printf.sprintf "%.0fh" p.Sdft_analysis.sweep_options.Sdft_analysis.horizon;
          Table.cell_sci p.Sdft_analysis.sweep_result.Sdft_analysis.total;
          Table.cell_duration
            (p.Sdft_analysis.sweep_result.Sdft_analysis.mcs_generation_seconds
            +. p.Sdft_analysis.sweep_result.Sdft_analysis.quantification_seconds);
          Printf.sprintf "%d/%d" p.Sdft_analysis.cache_hits
            p.Sdft_analysis.cache_misses;
        ])
    points;
  Table.print t;
  print_endline
    "(points share one quantification cache: identical cutset sub-models are\n\
    \ solved once per horizon, repeated component models once overall)"

(* ------------------------------------------------------------------ *)
(* V1: validation — analytic pipeline vs exact product chain vs
   Monte-Carlo on models where all three are feasible. *)

let v1_validation () =
  let t =
    Table.create ~title:"V1: cross-validation of the three engines"
      ~columns:[ "model"; "REA (analysis)"; "exact product"; "Monte-Carlo (95% CI)" ]
  in
  let row name sd horizon trials =
    let options = { Sdft_analysis.default_options with horizon } in
    let r = Sdft_analysis.analyze ~options sd in
    let exact = Sdft_product.solve sd ~horizon in
    let mc = Simulator.unreliability sd ~horizon ~trials in
    let lo, hi = Simulator.confidence_95 mc in
    Table.add_row t
      [
        name;
        Table.cell_sci r.Sdft_analysis.total;
        Table.cell_sci exact;
        Printf.sprintf "[%s, %s]" (Table.cell_sci lo) (Table.cell_sci hi);
      ]
  in
  row "pumps (paper)" (Pumps.sd_tree ()) 24.0 400_000;
  let rng = Sdft_util.Rng.create 2024 in
  row "random SDFT #1"
    (Random_tree.sd rng ~max_prob:0.2 ~n_basics:5 ~n_gates:4 ~n_dynamic:2 ~n_triggers:1)
    8.0 100_000;
  row "random SDFT #2"
    (Random_tree.sd rng ~max_prob:0.2 ~n_basics:6 ~n_gates:5 ~n_dynamic:3 ~n_triggers:2)
    8.0 100_000;
  Table.print t;
  print_endline
    "(the rare-event approximation upper-bounds the exact value — it can\n\
    \ exceed 1 when events are not rare; the CI should cover the exact value)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per reproduced table, measuring the
   table's characteristic kernel. *)

let micro_tests () =
  let open Bechamel in
  let pumps_tree = Pumps.static_tree () in
  let pumps_sd = Pumps.sd_tree () in
  let small_tree = scaled_model_1 () in
  let bd = Option.get (Fault_tree.basic_index pumps_tree "b") in
  let dd = Option.get (Fault_tree.basic_index pumps_tree "d") in
  let cutset_bd = Sdft_util.Int_set.of_list [ bd; dd ] in
  let chain = Ctmc.make ~n_states:2 ~transitions:[ (0, 1, 0.01); (1, 0, 0.5) ] in
  [
    Test.make ~name:"e1/mocus-pumps"
      (Staged.stage (fun () -> Mocus.minimal_cutsets pumps_tree));
    Test.make ~name:"e2/analyze-pumps"
      (Staged.stage (fun () -> Sdft_analysis.analyze pumps_sd));
    Test.make ~name:"e3/bdd-cutsets-small-industrial"
      (Staged.stage (fun () ->
           Minsol.fault_tree_cutsets_above small_tree ~cutoff:1e-15));
    Test.make ~name:"e4/translate-pumps"
      (Staged.stage (fun () -> Sdft_translate.translate pumps_sd ~horizon:24.0));
    Test.make ~name:"e6/quantify-cutset-bd"
      (Staged.stage (fun () ->
           let m = Cutset_model.build pumps_sd cutset_bd in
           Cutset_model.quantify m ~horizon:24.0));
    Test.make ~name:"e8/transient-2state"
      (Staged.stage (fun () ->
           Transient.reach_within chain ~init:[ (0, 1.0) ]
             ~target:(fun s -> s = 1)
             ~t:24.0));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "\n== micro-benchmarks (bechamel, ns per run) ==";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let grouped = Test.make_grouped ~name:"sdft" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "  %-40s %12.0f ns/run\n" name ns
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* A1: cutoff ablation — the paper's scalability rests on the cutoff. *)

let a1_cutoff () =
  let tree = model_1 () in
  let t =
    Table.create ~title:"A1: effect of the cutoff c* (scaled model 1, static)"
      ~columns:[ "cutoff"; "# MCS"; "REA"; "generation time" ]
  in
  List.iter
    (fun cutoff ->
      let result, seconds =
        Timer.time (fun () ->
            Sdft_analysis.generate_cutsets ~cutoff Sdft_analysis.Zdd_engine tree)
      in
      let relevant =
        List.filter
          (fun c -> Cutset.probability tree c > cutoff)
          result.Mocus.cutsets
      in
      Table.add_row t
        [
          (if cutoff = 0.0 then "0" else Printf.sprintf "%.0e" cutoff);
          string_of_int (List.length result.Mocus.cutsets);
          Table.cell_sci (Cutset.rare_event_approximation tree relevant);
          Table.cell_duration seconds;
        ])
    [ 1e-9; 1e-12; 1e-15; 1e-18; 0.0 ];
  Table.print t;
  print_endline
    "(looser cutoffs drop cutsets but barely move the frequency — the
    \ rare-event mass concentrates in the few most probable cutsets)"

(* ------------------------------------------------------------------ *)
(* A2: relevant-set rule ablation — quantifies the Section V-C caveat
   documented in DESIGN.md. *)

let a2_rel_rule () =
  let t =
    Table.create
      ~title:"A2: paper relevant sets vs exact general rule (BWR, all triggers)"
      ~columns:[ "rule"; "failure freq."; "mean chain states"; "time"; "fallbacks" ]
  in
  let sd = bwr_all_triggers () in
  List.iter
    (fun (label, rel_rule) ->
      (* A tight state bound so that blowing cutsets fall back quickly
         instead of exploring millions of states first. *)
      let options =
        { Sdft_analysis.default_options with rel_rule; max_product_states = 100_000 }
      in
      let result, seconds =
        Timer.time (fun () -> Sdft_analysis.analyze ~options sd)
      in
      let dynamic =
        List.filter
          (fun (i : Sdft_analysis.cutset_info) -> i.product_states > 0)
          result.Sdft_analysis.cutsets
      in
      let mean_states =
        if dynamic = [] then 0.0
        else
          float_of_int
            (List.fold_left (fun acc i -> acc + i.Sdft_analysis.product_states) 0 dynamic)
          /. float_of_int (List.length dynamic)
      in
      Table.add_row t
        [
          label;
          Table.cell_sci result.Sdft_analysis.total;
          Printf.sprintf "%.1f" mean_states;
          Table.cell_duration seconds;
          string_of_int result.Sdft_analysis.n_fallbacks;
        ])
    [ ("paper (Sec. V-C)", Cutset_model.Paper); ("all events (exact)", Cutset_model.All_events) ];
  Table.print t;
  print_endline
    "(fallbacks: cutsets whose exact-rule chains exceeded the state bound —
    \ the FEED&BLEED demand gate pulls ~15 Bernoulli guards into the product;
    \ they are quantified by their conservative static product instead.
    \ This blow-up is precisely why Section V-C reduces the relevant sets.)"

(* ------------------------------------------------------------------ *)
(* A3: common-cause failures — "usually dominate the result" (Sec. VI-A). *)

let a3_ccf () =
  let t =
    Table.create ~title:"A3: effect of common-cause failures (BWR)"
      ~columns:[ "model"; "static freq."; "dynamic freq. (repairs+triggers)" ]
  in
  let dynamic_cfg include_ccf =
    {
      Bwr.default_config with
      repair_rate = Some 0.1;
      triggers = Bwr.all_trigger_sites;
      include_ccf;
    }
  in
  List.iter
    (fun include_ccf ->
      let static_rea, _ =
        Sdft_analysis.static_rare_event (Bwr.static_tree ~include_ccf ())
      in
      let dyn = Sdft_analysis.analyze (Bwr.build (dynamic_cfg include_ccf)) in
      Table.add_row t
        [
          (if include_ccf then "with CCF" else "without CCF");
          Table.cell_sci static_rea;
          Table.cell_sci dyn.Sdft_analysis.total;
        ])
    [ false; true ];
  Table.print t;
  print_endline
    "(CCF events are static, so their contribution is untouched by repairs
    \ and triggers — with CCF the relative benefit of dynamics shrinks,
    \ which is why the paper disregards CCF in its dynamics experiment)"

(* ------------------------------------------------------------------ *)
(* U1: parameter uncertainty over the BWR cutset list. *)

let u1_uncertainty () =
  let tree = Bwr.static_tree () in
  let cutsets = Mocus.minimal_cutsets tree in
  let t =
    Table.create ~title:"U1: lognormal parameter uncertainty (BWR, static)"
      ~columns:[ "error factor"; "mean"; "5%"; "median"; "95%" ]
  in
  List.iter
    (fun error_factor ->
      let stats =
        Uncertainty.propagate ~samples:2000 tree cutsets
          ~spec:(fun _ -> Uncertainty.Lognormal { error_factor })
      in
      Table.add_row t
        [
          Printf.sprintf "%.0f" error_factor;
          Table.cell_sci stats.Uncertainty.mean;
          Table.cell_sci stats.Uncertainty.p05;
          Table.cell_sci stats.Uncertainty.median;
          Table.cell_sci stats.Uncertainty.p95;
        ])
    [ 2.0; 3.0; 5.0; 10.0 ];
  Table.print t;
  Printf.printf "point estimate: %s
"
    (Table.cell_sci (Cutset.rare_event_approximation tree cutsets))

(* ------------------------------------------------------------------ *)
(* Kernel benchmarks: the flat-kernel quantification path against the
   retained pre-CSR implementation (Reference). Three layers:
     - dtmc_step: one uniformization step on a product chain, and
       reach_within: the whole per-cutset solve on it;
     - product build: packed mixed-radix exploration vs the array-keyed
       generic path;
     - end-to-end per-cutset quantification (product build + transient
       solve; the shared Cutset_model.build is excluded) over the BWR and
       scaled model-1 cutset lists, single domain.
   Results go to stdout and optionally to a JSON file (--json PATH). *)

(* The [--json PATH] result files: one pre-rendered entry per line (in
   reverse order of recording) between [brackets], written atomically. *)
let write_json ~what ?(brackets = ("[", "]")) json_path entries =
  match json_path with
  | None -> ()
  | Some path ->
    let opening, closing = brackets in
    Sdft_util.Atomic_io.write_file path
      (String.concat "\n"
         [ opening; String.concat ",\n" (List.rev entries); closing; "" ]);
    Printf.printf "%s written to %s\n" what path

let median xs =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let time_ns ?(warmup = 2) ~reps f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Timer.start () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Timer.elapsed_s t0 *. 1e9 /. float_of_int reps

(* The pre-PR quantification pipeline, reconstructed end to end from the
   public semantics API so the benchmark measures new-vs-old rather than
   new-vs-new: allocating gate evaluation per closure pass (no triggered
   shortcut, no reused buffer), array-keyed interning with a state copy per
   explored transition, a transitions list fed to the historical
   hashtable-merge chain builder, and the boxed-row solver with fresh
   vectors per call. *)
type baseline_built = {
  b_chain : Reference.t;
  b_init : (int * float) list;
  b_failed : bool array;
}

let baseline_build sd_c ~max_states =
  let sem = Sdft_product.semantics sd_c in
  let components = Sdft_product.sem_components sem in
  let tree = Sdft.tree sd_c in
  let slot_of_basic = Array.make (Fault_tree.n_basics tree) (-1) in
  Array.iteri
    (fun slot (c : Sdft_product.component) -> slot_of_basic.(c.basic) <- slot)
    components;
  let n_triggered =
    Array.fold_left
      (fun acc (c : Sdft_product.component) ->
        if c.trigger_gate >= 0 then acc + 1 else acc)
      0 components
  in
  let eval state =
    Fault_tree.eval_gates tree ~failed:(fun b ->
        let slot = slot_of_basic.(b) in
        slot >= 0 && components.(slot).Sdft_product.failed_local.(state.(slot)))
  in
  let close state =
    let changed = ref true in
    while !changed do
      changed := false;
      let gates = eval state in
      Array.iteri
        (fun slot (c : Sdft_product.component) ->
          if c.trigger_gate >= 0 then begin
            let on = c.mode_on.(state.(slot)) in
            if on <> gates.(c.trigger_gate) then begin
              state.(slot) <- c.partner.(state.(slot));
              changed := true
            end
          end)
        components
    done;
    ignore n_triggered
  in
  let fails_top state = (eval state).(Fault_tree.top tree) in
  let ids : (int array, int) Hashtbl.t = Hashtbl.create 1024 in
  let states = Sdft_util.Vec.create () in
  let failed_v = Sdft_util.Vec.create () in
  let frontier = Queue.create () in
  let intern state =
    match Hashtbl.find_opt ids state with
    | Some id -> id
    | None ->
      let id = Sdft_util.Vec.length states in
      if id >= max_states then raise (Sdft_product.Too_many_states id);
      Hashtbl.add ids state id;
      Sdft_util.Vec.push states state;
      Sdft_util.Vec.push failed_v (fails_top state);
      Queue.add id frontier;
      id
  in
  let init_mass : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (state, m) ->
      let id = intern state in
      let prev = try Hashtbl.find init_mass id with Not_found -> 0.0 in
      Hashtbl.replace init_mass id (prev +. m))
    (Sdft_product.sem_initial_states sem ~max_states);
  let transitions = Sdft_util.Vec.create () in
  while not (Queue.is_empty frontier) do
    let src = Queue.pop frontier in
    let state = Sdft_util.Vec.get states src in
    Array.iteri
      (fun slot (c : Sdft_product.component) ->
        for k = c.row_ptr.(state.(slot)) to c.row_ptr.(state.(slot) + 1) - 1 do
          let next = Array.copy state in
          next.(slot) <- c.cols.(k);
          close next;
          let dst = intern next in
          if dst <> src then
            Sdft_util.Vec.push transitions (src, dst, c.rates.(k))
        done)
      components
  done;
  let n_states = Sdft_util.Vec.length states in
  let chain =
    Reference.make ~n_states ~transitions:(Sdft_util.Vec.to_list transitions)
  in
  {
    b_chain = chain;
    b_init = Hashtbl.fold (fun id m acc -> (id, m) :: acc) init_mass [];
    b_failed = Sdft_util.Vec.to_array failed_v;
  }

let quantify_baseline sd_c ~horizon =
  let b = baseline_build sd_c ~max_states:1_000_000 in
  Reference.reach_within b.b_chain ~init:b.b_init
    ~target:(fun s -> b.b_failed.(s))
    ~t:horizon

let quantify_new ~workspace sd_c ~horizon =
  let built = Sdft_product.build sd_c in
  Sdft_product.unreliability ~workspace built ~horizon

(* Cutset models with a dynamic sub-model, for every cutset of [sd];
   shared-context build. *)
let cutset_models sd =
  let translation = Sdft_translate.translate sd ~horizon:24.0 in
  let generated =
    Sdft_analysis.generate_cutsets ~cutoff:1e-15 Sdft_analysis.Zdd_engine
      translation.Sdft_translate.static_tree
  in
  let context = Cutset_model.context sd in
  List.filter
    (fun m -> m.Cutset_model.model <> None)
    (List.map (Cutset_model.build ~context sd) generated.Mocus.cutsets)

(* Dynamic sub-models of every cutset of [sd]. *)
let cutset_submodels sd =
  List.filter_map (fun m -> m.Cutset_model.model) (cutset_models sd)

let bench_kernels ~json_path () =
  let t =
    Table.create ~title:"Kernel benchmarks: flat path vs pre-CSR reference"
      ~columns:[ "kernel"; "baseline ns/op"; "flat ns/op"; "speedup" ]
  in
  let entries = ref [] in
  let record ?speedup name baseline_ns new_ns =
    let speedup =
      match speedup with Some s -> s | None -> baseline_ns /. new_ns
    in
    entries :=
      Printf.sprintf
        "  %S: {\"baseline_ns_per_op\": %.1f, \"flat_ns_per_op\": %.1f, \
         \"speedup\": %.3f}"
        name baseline_ns new_ns speedup
      :: !entries;
    Table.add_row t
      [
        name;
        Printf.sprintf "%.0f" baseline_ns;
        Printf.sprintf "%.0f" new_ns;
        Printf.sprintf "%.2fx" speedup;
      ]
  in
  (* 1. Uniformization step on a 6-event Erlang-2 product chain (729
     states), the Figure-3 family's mid-size representative. *)
  let sd6 = erlang_cutset_sd ~n_dyn:6 ~phases:2 in
  let built6 = Sdft_product.build sd6 in
  let chain6 = built6.Sdft_product.chain in
  let ref6 = Reference.of_ctmc chain6 in
  let n6 = Ctmc.n_states chain6 in
  let q6 = Ctmc.max_exit_rate chain6 in
  let pi = Array.make n6 (1.0 /. float_of_int n6) in
  let out = Array.make n6 0.0 in
  Printf.printf "dtmc_step chain: %d states, %d transitions\n" n6
    (Ctmc.n_transitions chain6);
  let step_ref =
    time_ns ~warmup:50 ~reps:2000 (fun () -> Reference.dtmc_step ref6 q6 pi out)
  in
  let step_csr =
    time_ns ~warmup:50 ~reps:2000 (fun () -> Transient.dtmc_step chain6 q6 pi out)
  in
  record "dtmc_step (729 states)" step_ref step_csr;
  (* The per-cutset solve on the same chain, failed states absorbing: the
     reference loop runs every pass over all states; Transient accumulates
     only the failed states and bounds its passes by the states reached. *)
  let init6 = built6.Sdft_product.init in
  let target s = built6.Sdft_product.failed.(s) in
  let ws6 = Transient.workspace () in
  let reach_of_ref () = Reference.reach_within ref6 ~init:init6 ~target ~t:24.0 in
  let reach_of_csr () =
    Transient.reach_within ~workspace:ws6 chain6 ~init:init6 ~target ~t:24.0
  in
  if Float.abs (reach_of_ref () -. reach_of_csr ()) > 1e-12 then
    failwith "reach_within: Transient disagrees with Reference";
  let reach_ref = time_ns ~warmup:5 ~reps:200 reach_of_ref in
  let reach_csr = time_ns ~warmup:5 ~reps:200 reach_of_csr in
  record "reach_within (729-state product)" reach_ref reach_csr;
  (* 2. Product-state construction against the pre-CSR build. Rebuilding
     one model reuses the domain's template (the template-hit path); the
     fresh-shape row first builds a one-event model, which evicts the
     template, so every timed call explores. *)
  let build_old =
    time_ns ~warmup:2 ~reps:10 (fun () -> baseline_build sd6 ~max_states:1_000_000)
  in
  let build_packed =
    time_ns ~warmup:2 ~reps:20 (fun () -> Sdft_product.build sd6)
  in
  record "product build (erlang-2 x6)" build_old build_packed;
  let sd1 = erlang_cutset_sd ~n_dyn:1 ~phases:2 in
  let build_fresh =
    time_ns ~warmup:2 ~reps:20 (fun () ->
        ignore (Sdft_product.build sd1);
        Sdft_product.build sd6)
  in
  record "product build, fresh shape (erlang-2 x6)" build_old build_fresh;
  (* 3. End-to-end per-cutset quantification, single domain. A row times
     [rounds] alternating passes (baseline, then flat) over the cutset list
     and reports each side's median and the median of the per-round
     ratios: on a shared host, a slow spell then lands in one round of both
     sides rather than in one side's whole block. *)
  let per_cutset name sd ~rounds =
    let models = cutset_submodels sd in
    let n = List.length models in
    Printf.printf "%s: %d dynamic cutset sub-models\n%!" name n;
    let ws = Transient.workspace () in
    let horizon = 24.0 in
    (* Sanity: the reconstructed pre-PR pipeline and the flat path must
       agree, or the comparison is meaningless. *)
    List.iteri
      (fun i m ->
        if i < 25 then begin
          let a = quantify_baseline m ~horizon in
          let b = quantify_new ~workspace:ws m ~horizon in
          if Float.abs (a -. b) > 1e-12 then
            failwith
              (Printf.sprintf "%s: baseline %.17g <> flat %.17g" name a b)
        end)
      models;
    let baseline () =
      List.iter (fun m -> ignore (quantify_baseline m ~horizon)) models
    in
    let flat () =
      List.iter (fun m -> ignore (quantify_new ~workspace:ws m ~horizon)) models
    in
    baseline ();
    flat ();
    (* Each timed pass starts on a collected heap, so the baseline's
       allocation is not collected on the flat pass's clock. *)
    let per_op f =
      Gc.full_major ();
      time_ns ~warmup:0 ~reps:1 f /. float_of_int n
    in
    let timed =
      Array.init rounds (fun _ ->
          let b = per_op baseline in
          (b, per_op flat))
    in
    record
      ~speedup:(median (Array.map (fun (b, f) -> b /. f) timed))
      (Printf.sprintf "quantify/cutset (%s)" name)
      (median (Array.map fst timed))
      (median (Array.map snd timed))
  in
  let bwr = bwr_all_triggers () in
  per_cutset "bwr" bwr ~rounds:9;
  let m1 =
    let tree = scaled_model_1 () in
    let config =
      {
        Dynamize.default_config with
        dynamic_fraction = 0.3;
        trigger_fraction = 0.03;
        repair_rate = Some 0.05;
        chain_groups = Some (Industrial.run_event_groups tree);
      }
    in
    (Dynamize.run ~config tree).Dynamize.sd
  in
  per_cutset "model-1" m1 ~rounds:9;
  Table.print t;
  write_json ~what:"kernel benchmark results" ~brackets:("{", "}") json_path
    !entries

(* ------------------------------------------------------------------ *)
(* `sim` subcommand: the rare-event importance-sampling oracle against
   crude Monte-Carlo on pumps and BWR — estimates, 99% confidence
   intervals, throughput, and the variance-reduction factor (the headline
   number: how many crude trials one IS trial is worth). *)

let bench_sim ~json_path ~trials () =
  let t =
    Table.create ~title:"sim: importance sampling vs crude Monte-Carlo"
      ~columns:
        [ "model"; "method"; "estimate"; "99% CI"; "hits"; "trials/s"; "VRF" ]
  in
  let entries = ref [] in
  let case name sd =
    let horizon = Sdft_analysis.default_options.Sdft_analysis.horizon in
    let analytic = (Sdft_analysis.analyze sd).Sdft_analysis.total in
    let run_method meth options =
      let t0 = Timer.start () in
      let e = Rare_event.run ~options sd ~horizon in
      let secs = Timer.elapsed_s t0 in
      let lo, hi = Rare_event.confidence ~z:Rare_event.z99 e in
      let tps = float_of_int e.Rare_event.trials /. secs in
      let vrf = Rare_event.variance_reduction e in
      let contains = lo <= analytic && analytic <= hi in
      Table.add_row t
        [
          name;
          meth;
          Table.cell_sci e.Rare_event.estimate;
          Printf.sprintf "[%.2e, %.2e]" lo hi;
          string_of_int e.Rare_event.hits;
          Printf.sprintf "%.0f" tps;
          (match vrf with Some v -> Printf.sprintf "%.1fx" v | None -> "-");
        ];
      entries :=
        Printf.sprintf
          "  {\"model\": %S, \"method\": %S, \"trials\": %d, \"hits\": %d, \
           \"estimate\": %.6e, \"ci99_lower\": %.6e, \"ci99_upper\": %.6e, \
           \"analytic_total\": %.6e, \"contains_analytic\": %b, \
           \"trials_per_sec\": %.1f, \"variance_reduction\": %s}"
          name meth e.Rare_event.trials e.Rare_event.hits
          e.Rare_event.estimate lo hi analytic contains tps
          (match vrf with
          | Some v -> Printf.sprintf "%.2f" v
          | None -> "null")
        :: !entries
    in
    let opts = { Rare_event.default_options with trials } in
    run_method "crude" (Rare_event.crude opts);
    run_method "is" opts
  in
  case "pumps" (Pumps.sd_tree ());
  case "bwr" (bwr_all_triggers ());
  Table.print t;
  write_json ~what:"sim benchmark results" json_path !entries

(* Median wall time of [f] over repeated runs — at least 3, more (up to
   25) while the runs so far total under half a second, so that a
   microsecond row is not one noisy sample — with the last run's result. *)
let median_time f =
  let rec go times spent last =
    let n = List.length times in
    if n >= 25 || (n >= 3 && spent >= 0.5) then
      (Option.get last, median (Array.of_list times))
    else
      let t0 = Timer.start () in
      let r = f () in
      let dt = Timer.elapsed_s t0 in
      go (dt :: times) (spent +. dt) (Some r)
  in
  go [] 0.0 None

(* ------------------------------------------------------------------ *)
(* `zdd` subcommand: race the MOCUS and modular-ZDD cutset engines on
   static models — generation wall time (median of repeated runs, with
   the MOCUS/ZDD ratio to two decimals), emitted families, rare-event
   totals, and the discarded-mass accounting (MOCUS's upper bound vs the
   ZDD engine's exact residual). The subsumed-branch case is the
   certification scenario: MOCUS records nonzero pruned mass while the ZDD
   engine emits every minimal cutset and accounts exactly zero residual. *)

let bench_zdd ~json_path () =
  let t =
    Table.create ~title:"zdd: cutset engine race — MOCUS vs modular ZDD"
      ~columns:
        [
          "model"; "cutoff"; "mocus"; "zdd"; "speedup"; "cutsets";
          "|dtotal|"; "mocus pruned"; "zdd residual";
        ]
  in
  let entries = ref [] in
  let case name ~cutoff tree =
    let gm, tm =
      median_time (fun () ->
          Sdft_analysis.generate_cutsets ~cutoff Sdft_analysis.Mocus_sound
            tree)
    in
    let rz, tz = median_time (fun () -> Zdd_engine.run ~cutoff tree) in
    let total sets = Cutset.rare_event_approximation tree sets in
    let total_m = total gm.Mocus.cutsets in
    let total_z = total rz.Zdd_engine.cutsets in
    let diff = Float.abs (total_m -. total_z) in
    let same_family =
      List.sort Sdft_util.Int_set.compare gm.Mocus.cutsets
      = rz.Zdd_engine.cutsets
    in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.0e" cutoff;
        Printf.sprintf "%.4fs" tm;
        Printf.sprintf "%.4fs" tz;
        (if tz > 0.0 then Printf.sprintf "%.2fx" (tm /. tz) else "-");
        Printf.sprintf "%d/%d%s"
          (List.length gm.Mocus.cutsets)
          (List.length rz.Zdd_engine.cutsets)
          (if same_family then "" else " MISMATCH");
        Table.cell_sci diff;
        Table.cell_sci gm.Mocus.pruned_mass;
        Table.cell_sci rz.Zdd_engine.residual_mass;
      ];
    entries :=
      Printf.sprintf
        "  {\"model\": %S, \"cutoff\": %.6e, \"mocus_seconds\": %.6f, \
         \"zdd_seconds\": %.6f, \"speedup\": %.2f, \
         \"mocus_cutsets\": %d, \"zdd_cutsets\": %d, \
         \"families_identical\": %b, \"mocus_total\": %.17e, \
         \"zdd_total\": %.17e, \"total_abs_diff\": %.6e, \
         \"mocus_pruned_mass\": %.17e, \"zdd_residual_mass\": %.17e, \
         \"zdd_n_minimal\": %d, \"zdd_n_modules\": %d, \
         \"zdd_max_zdd_nodes\": %d}"
        name cutoff tm tz
        (if tz > 0.0 then tm /. tz else 0.0)
        (List.length gm.Mocus.cutsets)
        (List.length rz.Zdd_engine.cutsets)
        same_family total_m total_z diff gm.Mocus.pruned_mass
        rz.Zdd_engine.residual_mass rz.Zdd_engine.n_minimal
        rz.Zdd_engine.n_modules rz.Zdd_engine.max_zdd_nodes
      :: !entries
  in
  (* A branch MOCUS prunes that refines only into a non-minimal cutset:
     {x,y,z}'s partial product falls below the cutoff, so MOCUS books
     pruned mass, while the minimal family {x,y} is fully above it and the
     ZDD residual is exactly zero. *)
  let subsumed_branch () =
    let b = Fault_tree.Builder.create () in
    let basic name = Fault_tree.Builder.basic b ~prob:1e-6 name in
    let x = basic "x" and y = basic "y" and z = basic "z" in
    let and2 = Fault_tree.Builder.gate b "and2" Fault_tree.And [ x; y ] in
    let and3 = Fault_tree.Builder.gate b "and3" Fault_tree.And [ x; y; z ] in
    let top = Fault_tree.Builder.gate b "top" Fault_tree.Or [ and2; and3 ] in
    Fault_tree.Builder.build b ~top
  in
  case "pumps" ~cutoff:0.0 (Pumps.static_tree ());
  case "subsumed-branch" ~cutoff:1e-15 (subsumed_branch ());
  case "industrial-small" ~cutoff:1e-15 (Industrial.generate Industrial.small);
  if !full_scale then begin
    case "industrial-medium" ~cutoff:1e-15
      (Industrial.generate Industrial.medium);
    case "industrial-1" ~cutoff:1e-15 (Industrial.generate Industrial.model_1)
  end;
  Table.print t;
  write_json ~what:"zdd engine race results" json_path !entries

(* ------------------------------------------------------------------ *)
(* `cache` subcommand: cold-vs-warm persistent quantification cache. A
   horizon sweep runs twice against the same on-disk store — first against
   an empty file (every dynamic sub-model solves and is appended), then
   warm-started from it (every lookup should hit). Reported per model:
   quantification wall time of each pass, hit/miss traffic, the warm hit
   rate, and whether the certified intervals of the two passes are
   bit-identical (they must be — a hit replays the recorded solve). *)

let bench_cache ~json_path () =
  let t =
    Table.create ~title:"cache: cold vs warm persistent quantification cache"
      ~columns:
        [
          "model"; "phase"; "quant time"; "hits"; "misses"; "disk hits";
          "appends"; "speedup";
        ]
  in
  let entries = ref [] in
  let case name sd =
    (* ZDD generation: the sweep re-generates cutsets at every point and
       generation is not what this benchmark measures — only the
       quantification phase is cached and timed. One domain on both
       passes: the warm pass solves nothing, so a cold pass on more
       domains would fold the solve pass's parallelism into the ratio. *)
    let horizons = [ 12.0; 24.0; 48.0; 72.0 ] in
    let option_sets =
      List.map
        (fun horizon -> { zdd_options with horizon; domains = 1 })
        horizons
    in
    let path = Filename.temp_file "sdft_cache_bench" ".store" in
    Sys.remove path;
    let run () =
      let cache = Quant_cache.open_disk path in
      let points, _ = Sdft_analysis.sweep ~cache sd option_sets in
      let quant_seconds =
        List.fold_left
          (fun acc (p : Sdft_analysis.sweep_point) ->
            acc
            +. p.Sdft_analysis.sweep_result
                 .Sdft_analysis.quantification_seconds)
          0.0 points
      in
      (* The certified-interval signature of the sweep; compared bitwise
         between the cold and warm passes. *)
      let signature =
        List.map
          (fun (p : Sdft_analysis.sweep_point) ->
            let r = p.Sdft_analysis.sweep_result in
            ( r.Sdft_analysis.total,
              r.Sdft_analysis.budget.Sdft_analysis.lower,
              r.Sdft_analysis.budget.Sdft_analysis.upper ))
          points
      in
      let hits = Quant_cache.hits cache and misses = Quant_cache.misses cache in
      let stats = Quant_cache.disk_stats cache in
      Quant_cache.close cache;
      (quant_seconds, signature, hits, misses, stats)
    in
    let cold_q, cold_sig, cold_h, cold_m, cold_ds = run () in
    let warm_q, warm_sig, warm_h, warm_m, warm_ds = run () in
    Sys.remove path;
    let speedup = cold_q /. Float.max warm_q 1e-9 in
    let identical = cold_sig = warm_sig in
    let hit_rate =
      if warm_h + warm_m = 0 then 1.0
      else float_of_int warm_h /. float_of_int (warm_h + warm_m)
    in
    let disk_hits ds =
      match ds with
      | Some s -> s.Quant_cache.disk_hits
      | None -> 0
    in
    let appends ds =
      match ds with Some s -> s.Quant_cache.appends | None -> 0
    in
    let row phase q h m ds sp =
      Table.add_row t
        [
          name; phase; Table.cell_duration q; string_of_int h;
          string_of_int m;
          string_of_int (disk_hits ds);
          string_of_int (appends ds);
          sp;
        ]
    in
    row "cold" cold_q cold_h cold_m cold_ds "-";
    row "warm" warm_q warm_h warm_m warm_ds
      (Printf.sprintf "%.1fx%s" speedup
         (if identical then "" else " INTERVAL MISMATCH"));
    entries :=
      Printf.sprintf
        "  {\"model\": %S, \"horizons\": %d, \"cold_quant_seconds\": %.6f, \
         \"warm_quant_seconds\": %.6f, \"speedup\": %.2f, \
         \"cold_hits\": %d, \"cold_misses\": %d, \"warm_hits\": %d, \
         \"warm_misses\": %d, \"warm_hit_rate\": %.4f, \
         \"warm_disk_hits\": %d, \"cold_appends\": %d, \
         \"entries_loaded_warm\": %d, \"intervals_identical\": %b}"
        name (List.length horizons) cold_q warm_q speedup cold_h cold_m
        warm_h warm_m hit_rate (disk_hits warm_ds) (appends cold_ds)
        (match warm_ds with
        | Some s -> s.Quant_cache.entries_loaded
        | None -> 0)
        identical
      :: !entries
  in
  case "bwr" (bwr_all_triggers ());
  (* Dynamization tuned so the per-cutset transient solves dominate over
     (uncached) cutset-model construction — Erlang-4 chains make the
     product chains grow as (k+1)^n — which is exactly the work a warm
     store eliminates. *)
  let m1 =
    let tree = model_1 () in
    let config =
      {
        Dynamize.default_config with
        dynamic_fraction = 0.6;
        trigger_fraction = 0.06;
        phases = 4;
        repair_rate = Some 0.05;
        chain_groups = Some (Industrial.run_event_groups tree);
        calibration = Dynamize.Mission_probability;
      }
    in
    (Dynamize.run ~config tree).Dynamize.sd
  in
  case "model-1" m1;
  Table.print t;
  print_endline
    "(warm pass: every dynamic sub-model is served from the store; the\n\
    \ certified intervals must be bit-identical to the cold pass)";
  write_json ~what:"cache benchmark results" json_path !entries

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1_running_example);
    ("e2", e2_bwr);
    ("e3", e3_models);
    ("e4", e4_sweep_and_histograms ~histograms:false);
    ("e5", e4_sweep_and_histograms ~histograms:true);
    ("e6", e6_per_mcs_cost);
    ("e7", e7_phases);
    ("e8", e8_horizon);
    ("v1", v1_validation);
    ("a1", a1_cutoff);
    ("a2", a2_rel_rule);
    ("a3", a3_ccf);
    ("u1", u1_uncertainty);
  ]

(* Command line: an optional mode word, then the flags that mode accepts;
   without a mode, experiment ids select what runs. Anything else exits
   2. *)
type cli = {
  mutable mode : string;  (* "" for the experiments *)
  mutable json : string option;
  mutable metrics : string option;
  mutable trace : string option;
  mutable trials : int;
  mutable micro : bool;
  mutable selected : string list;  (* experiment ids, last first *)
}

let modes =
  [
    ("", [ "--full"; "--no-micro"; "--metrics" ]);
    ("kernels", [ "--json"; "--metrics"; "--trace" ]);
    ("sim", [ "--json"; "--trials" ]);
    ("zdd", [ "--json"; "--full" ]);
    ("cache", [ "--json"; "--full" ]);
  ]

let parse_cli args =
  let c =
    {
      mode = "";
      json = None;
      metrics = None;
      trace = None;
      trials = 100_000;
      micro = true;
      selected = [];
    }
  in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline (if c.mode = "" then m else c.mode ^ ": " ^ m);
        exit 2)
      fmt
  in
  let accepts flag = List.mem flag (List.assoc c.mode modes) in
  let rec go = function
    | [] -> ()
    | mode :: rest when c.mode = "" && mode <> "" && List.mem_assoc mode modes
      ->
      c.mode <- mode;
      go rest
    | "--full" :: rest when accepts "--full" ->
      full_scale := true;
      go rest
    | "--no-micro" :: rest when accepts "--no-micro" ->
      c.micro <- false;
      go rest
    | [ flag ] when accepts flag -> fail "%s needs an argument" flag
    | "--json" :: path :: rest when accepts "--json" ->
      c.json <- Some path;
      go rest
    | "--metrics" :: path :: rest when accepts "--metrics" ->
      c.metrics <- Some path;
      go rest
    | "--trace" :: path :: rest when accepts "--trace" ->
      c.trace <- Some path;
      go rest
    | "--trials" :: n :: rest when accepts "--trials" -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
        c.trials <- n;
        go rest
      | _ -> fail "--trials needs a positive integer")
    | name :: rest when c.mode = "" && List.mem_assoc name experiments ->
      c.selected <- name :: c.selected;
      go rest
    | other :: _ -> fail "unknown argument %S" other
  in
  go args;
  c

let () =
  let c = parse_cli (List.tl (Array.to_list Sys.argv)) in
  if c.trace <> None then
    Sdft_util.Trace.set_enabled_in Sdft_util.Trace.default true;
  (match c.mode with
  | "kernels" -> bench_kernels ~json_path:c.json ()
  | "sim" -> bench_sim ~json_path:c.json ~trials:c.trials ()
  | "zdd" -> bench_zdd ~json_path:c.json ()
  | "cache" -> bench_cache ~json_path:c.json ()
  | _ ->
    let to_run =
      match List.rev c.selected with
      | [] ->
        (* e5 subsumes e4 (same sweep, plus histograms). *)
        [ "e1"; "e2"; "e3"; "e5"; "e6"; "e7"; "e8"; "v1"; "a1"; "a2"; "a3"; "u1" ]
      | names -> names
    in
    List.iter
      (fun name ->
        print_newline ();
        (List.assoc name experiments) ())
      to_run;
    if c.micro && c.selected = [] then run_micro ());
  match
    Sdft_util.Obs.write_dumps Sdft_util.Obs.default ?metrics:c.metrics
      ?trace:c.trace ()
  with
  | [] ->
    Option.iter (Printf.printf "metrics written to %s\n") c.metrics;
    Option.iter (Printf.printf "trace written to %s\n") c.trace
  | errors ->
    List.iter (Printf.eprintf "bench: %s\n") errors;
    exit 1
