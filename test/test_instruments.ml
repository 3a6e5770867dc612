(* Instrument names: every registry a run touches lists the same
   (kind, name) pairs, zero-valued entries included, as the committed list
   in golden/instruments.out. The list pins what a --metrics dump, a fresh
   per-analysis context and the server's metrics op contain, so a change to
   how instruments are declared or registered cannot add, drop or re-kind
   a name unnoticed.

   The default-registry section runs first: that registry is process-wide,
   and its contents are the module-initialisation registrations plus what
   an analysis on the default context adds. On a mismatch the actual list
   is written to instruments.actual next to the test binary. *)

open Sdft_util
module Core = Sdft_server.Server_core
module Protocol = Sdft_server.Protocol

let names m =
  let s = Metrics.snapshot_in m in
  List.map (fun (n, _) -> "counter " ^ n) s.Metrics.counters
  @ List.map (fun (n, _) -> "gauge " ^ n) s.Metrics.gauges
  @ List.map (fun (n, _) -> "histogram " ^ n) s.Metrics.histograms

let section buf title m =
  Buffer.add_string buf ("== " ^ title ^ "\n");
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) (names m)

let with_store f =
  let path = Filename.temp_file "sdft_instruments" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let actual () =
  let buf = Buffer.create 4096 in
  let pumps = Pumps.sd_tree () in
  (* CLI-style: the default context, an untriggered model first (no
     trigger gate to classify), then pumps. *)
  ignore (Sdft_analysis.analyze (Sdft_format.of_file "../models/industrial_small.sdft"));
  section buf "default after industrial_small" Metrics.default;
  ignore (Sdft_analysis.analyze pumps);
  section buf "default after pumps" Metrics.default;
  List.iter
    (fun (spelling, engine) ->
      let obs = Obs.create () in
      let options = { Sdft_analysis.default_options with engine } in
      ignore (Sdft_analysis.analyze ~options ~obs pumps);
      section buf ("analyze pumps, engine " ^ spelling) obs.Obs.metrics)
    Sdft_analysis.engines;
  with_store (fun path ->
      let obs = Obs.create () in
      let cache = Quant_cache.open_disk path in
      let at horizon = { Sdft_analysis.default_options with horizon } in
      ignore (Sdft_analysis.sweep ~cache ~obs pumps [ at 12.0; at 24.0 ]);
      Quant_cache.flush cache;
      section buf "sweep pumps 12,24 over a disk cache" obs.Obs.metrics);
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) (fun () ->
      ignore
        (Core.call core ~client:"golden"
           (Protocol.analyze_line ~id:"a" ~model:(Sdft_format.to_string pumps) ()));
      ignore (Core.call core ~client:"golden" (Protocol.simple_line ~id:"m" "metrics"));
      section buf "server registry after analyze and metrics" (Core.metrics core));
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_names () =
  let expected = read_file "golden/instruments.out" in
  let got = actual () in
  if got <> expected then begin
    Out_channel.with_open_bin "instruments.actual" (fun oc ->
        output_string oc got);
    Alcotest.(check string) "instrument names (see instruments.actual)"
      expected got
  end

let () =
  Alcotest.run "instruments"
    [ ("names", [ Alcotest.test_case "golden (kind, name) lists" `Quick test_names ]) ]
