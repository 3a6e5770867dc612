(* The fictive BWR safety study of Section VI-A.

   Reproduces the small-model experiment: the effect of repairs and of
   adding trigger dependencies (FEED&BLEED, then the second trains of RHR,
   EFW, ECC, SWS and CCW) on the computed core-damage frequency.

   Run with: dune exec examples/bwr_cooling.exe *)

let () =
  let tree = Bwr.static_tree () in
  Format.printf "BWR model: %a@." Fault_tree.pp_stats (Fault_tree.stats tree);
  let static_rea, n_mcs = Sdft_analysis.static_rare_event tree in
  Format.printf "static study: %d minimal cutsets, core damage frequency %.3e@.@."
    n_mcs static_rea;

  let table =
    Sdft_util.Table.create ~title:"Effect of repairs and triggers (24h, k=1)"
      ~columns:[ "setting"; "failure freq."; "analysis time" ]
  in
  Sdft_util.Table.add_row table
    [ "no timing"; Sdft_util.Table.cell_sci static_rea; "-" ];
  let row label config =
    let sd = Bwr.build config in
    let result, seconds =
      Sdft_util.Timer.time (fun () -> Sdft_analysis.analyze sd)
    in
    Sdft_util.Table.add_row table
      [
        label;
        Sdft_util.Table.cell_sci result.Sdft_analysis.total;
        Sdft_util.Table.cell_duration seconds;
      ]
  in
  row "dynamic, no repairs" Bwr.default_config;
  row "repair rate 1/100h" { Bwr.default_config with repair_rate = Some 0.01 };
  row "repair rate 1/10h" { Bwr.default_config with repair_rate = Some 0.1 };
  let base = { Bwr.default_config with repair_rate = Some 0.1 } in
  let labels =
    [ "+FEED&BLEED trigger"; "+RHR trigger"; "+EFW trigger"; "+ECC trigger";
      "+SWS trigger"; "+CCW trigger" ]
  in
  List.iteri
    (fun i label ->
      let triggers =
        List.filteri (fun j _ -> j <= i) Bwr.all_trigger_sites
      in
      row label { base with triggers })
    labels;
  Sdft_util.Table.print table;

  (* The paper reports that roughly half the cutsets contain dynamic events
     and how many extra events the triggering logic adds. *)
  let sd = Bwr.build { base with triggers = Bwr.all_trigger_sites } in
  let result = Sdft_analysis.analyze sd in
  Format.printf
    "@.fully dynamic model: %d of %d cutsets need Markov analysis;@."
    result.Sdft_analysis.n_dynamic_cutsets result.Sdft_analysis.n_cutsets;
  let h = Sdft_analysis.dynamic_histogram result in
  let dynamic_only_mean =
    (* mean over cutsets that have at least one dynamic event *)
    let num = ref 0 and acc = ref 0 in
    Array.iteri
      (fun bucket count ->
        if bucket > 0 then begin
          num := !num + count;
          acc := !acc + (bucket * count)
        end)
      h;
    if !num = 0 then 0.0 else float_of_int !acc /. float_of_int !num
  in
  Format.printf
    "average dynamic events per dynamic cutset: %.2f, of which %.2f were added by triggering logic@."
    dynamic_only_mean
    (Sdft_analysis.mean_added_dynamic result);
  Format.printf "@.trigger gate classes:@.%a@."
    (Sdft_classify.pp_report sd)
    (Sdft_classify.report sd)
