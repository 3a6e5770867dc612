(* CLI golden tests: run the sdft executable on the shipped models and
   compare stdout and the exit status with recorded goldens. Timing lines
   are masked before the comparison. The industrial rows exercise the
   cutset subcommands through the engine [auto] picks (ZDD on that
   model); on MOCUS each of them would take about 4 s. *)

let sdft_bin = "../bin/main.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the CLI with stdout captured in a temporary file; returns the
   output and the exit status. *)
let run_cli args =
  let out = Filename.temp_file "sdft_cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process sdft_bin
      (Array.of_list (sdft_bin :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let status = snd (Unix.waitpid [] pid) in
  (read_file out, status)

let timing_prefixes = [ "MCS generation:" ]

let mask text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match
           List.find_opt
             (fun p -> String.starts_with ~prefix:p line)
             timing_prefixes
         with
         | Some p -> p ^ " <timing>"
         | None -> line)
  |> String.concat "\n"

(* (subcommand, model, expected exit code); the golden of each row is
   golden/<subcommand>-<model>.out, or for a long output the MD5 of that
   text in golden/<subcommand>-<model>.md5. *)
let cases =
  List.map
    (fun cmd -> (cmd, "pumps.sdft", 0))
    [
      "analyze"; "sweep"; "mcs"; "importance"; "uncertainty"; "sensitivity";
      "sequences"; "availability"; "exact"; "simulate";
    ]
  @ List.map
      (fun cmd -> (cmd, "industrial_small.sdft", 0))
      [ "mcs"; "importance"; "sensitivity"; "sequences"; "availability" ]

let test_golden (cmd, model, code) () =
  let out, status = run_cli [ cmd; Filename.concat "../models" model ] in
  (match status with
  | Unix.WEXITED n -> Alcotest.(check int) "exit code" code n
  | _ -> Alcotest.fail "killed by a signal");
  let golden = Printf.sprintf "golden/%s-%s" cmd model in
  if Sys.file_exists (golden ^ ".out") then
    Alcotest.(check string) "stdout" (mask (read_file (golden ^ ".out")))
      (mask out)
  else
    Alcotest.(check string) "stdout digest"
      (String.trim (read_file (golden ^ ".md5")))
      (Digest.to_hex (Digest.string (mask out)))

(* The peak-heap gauge of a run too small for a minor collection: pumps in
   a fresh process must still report its heap, not 0. *)
let test_pumps_heap_gauge () =
  let metrics = Filename.temp_file "sdft_cli" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove metrics) @@ fun () ->
  let _, status =
    run_cli [ "analyze"; "../models/pumps.sdft"; "--metrics"; metrics ]
  in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let module Json = Sdft_util.Json in
  let heap =
    match Json.parse (read_file metrics) with
    | Error e -> Alcotest.fail ("metrics dump does not parse: " ^ e)
    | Ok v ->
      Option.bind (Json.member "gauges" v) (Json.member "analysis.peak_heap_mb")
      |> Fun.flip Option.bind Json.to_float
  in
  match heap with
  | None -> Alcotest.fail "no analysis.peak_heap_mb gauge"
  | Some mb ->
    if not (mb > 0.0) then
      Alcotest.failf "analysis.peak_heap_mb reads %g on pumps" mb

(* A domain count outside [1, 128] is refused while the flags are parsed
   (exit 2), before any analysis starts: nothing is printed and the metrics
   dump is never written. *)
let test_domains_rejected (cmd, j) () =
  let metrics =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdft_cli_j%s_%d.json" j (Unix.getpid ()))
  in
  let out, status =
    run_cli [ cmd; "../models/pumps.sdft"; "-j"; j; "--metrics"; metrics ]
  in
  let written = Sys.file_exists metrics in
  if written then Sys.remove metrics;
  Alcotest.(check bool) "exit 2" true (status = Unix.WEXITED 2);
  Alcotest.(check string) "no output" "" out;
  Alcotest.(check bool) "no run started" false written

let domain_cases =
  List.concat_map
    (fun cmd -> [ (cmd, "0"); (cmd, "129") ])
    [ "analyze"; "explain"; "sweep"; "simulate" ]

let () =
  Alcotest.run "cli"
    [
      ( "golden",
        List.map
          (fun ((cmd, model, _) as case) ->
            Alcotest.test_case (cmd ^ " " ^ model) `Quick (test_golden case))
          cases );
      ( "metrics",
        [ Alcotest.test_case "pumps peak heap > 0" `Quick test_pumps_heap_gauge ]
      );
      ( "domains",
        List.map
          (fun ((cmd, j) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s -j %s rejected" cmd j)
              `Quick (test_domains_rejected case))
          domain_cases );
    ]
