(* Industrial-scale study in the style of Section VI-B.

   Generates a synthetic PSA model, dynamizes an increasing share of its
   most important basic events (Fussell-Vesely ranking, trigger chains
   among equal-importance groups) and reports how the failure frequency and
   the analysis time evolve — the experiment behind the paper's sweep table
   and Figure 2.

   Run with:  dune exec examples/industrial_sweep.exe            (small model)
              dune exec examples/industrial_sweep.exe -- medium  (bigger)  *)

let () =
  let params =
    match if Array.length Sys.argv > 1 then Sys.argv.(1) else "small" with
    | "medium" -> Industrial.medium
    | "model1" -> Industrial.model_1
    | "model2" -> Industrial.model_2
    | _ -> Industrial.small
  in
  let tree, gen_seconds =
    Sdft_util.Timer.time (fun () -> Industrial.generate params)
  in
  Format.printf "generated model: %a (%.2fs)@." Fault_tree.pp_stats
    (Fault_tree.stats tree) gen_seconds;
  let chain_groups = Industrial.run_event_groups tree in
  Format.printf "%d failure-in-operation events form %d triggering chains@.@."
    (List.length (Industrial.run_events tree))
    (List.length chain_groups);

  let table =
    Sdft_util.Table.create ~title:"Dynamization sweep (24h, k=1, cutoff 1e-15)"
      ~columns:
        [ "% dyn. BE"; "% trigg. BE"; "failure freq."; "MCS"; "dyn. MCS"; "time" ]
  in
  let static_rea, n_static =
    Sdft_analysis.static_rare_event ~engine:Sdft_analysis.Zdd_engine tree
  in
  Sdft_util.Table.add_row table
    [ "0"; "0"; Sdft_util.Table.cell_sci static_rea; string_of_int n_static; "0"; "-" ];
  (* One quantification cache across the whole sweep: industrial models
     repeat the same component models across trains, so many cutset
     sub-models are isomorphic within and across the sweep points. *)
  let cache = Quant_cache.create () in
  let last_dynamized = ref None in
  List.iter
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
      let options =
        { Sdft_analysis.default_options with engine = Sdft_analysis.Zdd_engine }
      in
      let result, seconds =
        Sdft_util.Timer.time (fun () ->
            Sdft_analysis.analyze ~options ~cache d.Dynamize.sd)
      in
      Sdft_util.Table.add_row table
        [
          string_of_int percent;
          Printf.sprintf "%.1f" (float_of_int percent /. 10.0);
          Sdft_util.Table.cell_sci result.Sdft_analysis.total;
          string_of_int result.Sdft_analysis.n_cutsets;
          string_of_int result.Sdft_analysis.n_dynamic_cutsets;
          Sdft_util.Table.cell_duration seconds;
        ];
      if percent = 100 then begin
        last_dynamized := Some d.Dynamize.sd;
        Format.printf
          "@.dynamic events per minimal cutset at 100%% dynamization:@.";
        Sdft_analysis.print_histogram (Sdft_analysis.dynamic_histogram result)
      end)
    [ 10; 20; 30; 40; 50; 100 ];
  Sdft_util.Table.print table;
  Format.printf "quantification cache: %d hits / %d misses@."
    (Quant_cache.hits cache) (Quant_cache.misses cache);

  (* Horizon sweep on the fully dynamized model, sharing a fresh cache
     across the points through Sdft_analysis.sweep. *)
  match !last_dynamized with
  | None -> ()
  | Some sd ->
    let horizons = [ 8.0; 24.0; 72.0 ] in
    let option_sets =
      List.map
        (fun horizon ->
          {
            Sdft_analysis.default_options with
            engine = Sdft_analysis.Zdd_engine;
            horizon;
          })
        horizons
    in
    let points, sweep_cache = Sdft_analysis.sweep sd option_sets in
    let htable =
      Sdft_util.Table.create ~title:"Horizon sweep (100% dynamized, shared cache)"
        ~columns:[ "horizon"; "failure freq."; "cache hits"; "cache misses" ]
    in
    List.iter
      (fun (p : Sdft_analysis.sweep_point) ->
        Sdft_util.Table.add_row htable
          [
            Printf.sprintf "%.0fh" p.Sdft_analysis.sweep_options.Sdft_analysis.horizon;
            Sdft_util.Table.cell_sci p.Sdft_analysis.sweep_result.Sdft_analysis.total;
            string_of_int p.Sdft_analysis.cache_hits;
            string_of_int p.Sdft_analysis.cache_misses;
          ])
      points;
    Sdft_util.Table.print htable;
    Format.printf "horizon-sweep cache: %d hits / %d misses@."
      (Quant_cache.hits sweep_cache) (Quant_cache.misses sweep_cache)
