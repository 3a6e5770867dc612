(* The repository benchmark: four workloads timed end to end from outside
   the library, and split layer by layer by a traced replay.

     e2e.exe                          every workload, each in a child
                                      process, timed then traced
     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
                                      one run; the last line of standard
                                      output is the JSON result
     e2e.exe --list [--spec FILE]     the workload and metric names,
                                      checked against BENCHMARK.json

   Every run checks the program's outputs and exits 1 when a check fails. *)

let list_names spec =
  List.iter (fun (w, _) -> Printf.printf "workload %s\n" w) Workloads.all;
  List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) Report.end_to_end;
  List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) Report.per_layer;
  match spec with
  | None -> 0
  | Some path -> (
    match Spec.load path with
    | Error m ->
      prerr_endline m;
      1
    | Ok spec -> (
      match Spec.check spec ~workloads:(List.map fst Workloads.all) with
      | [] -> 0
      | problems ->
        List.iter (Printf.eprintf "%s: %s\n" path) problems;
        1))

let run_one name (cfg : Workloads.config) =
  Printf.printf "== %s, seed %d, %s\n%!" name cfg.seed
    (if cfg.trace then "traced" else Printf.sprintf "timed for %gs" cfg.seconds);
  let r = (List.assoc name Workloads.all) cfg in
  let bounds =
    match Spec.load "BENCHMARK.json" with
    | Ok spec -> Spec.bounds spec
    | Error _ -> []
  in
  Report.print_table ~bounds r;
  print_endline (Report.json_line r);
  if r.problems = [] then 0 else 1

(* Each workload in a fresh process, so that its heap and GC state are its
   own: the timed run, then the traced one. *)
let run_all (cfg : Workloads.config) =
  let failed =
    List.concat_map
      (fun (name, _) ->
        List.filter_map
          (fun trace ->
            let args =
              [|
                Sys.executable_name; "--workload"; name; "--seed";
                string_of_int cfg.seed; "--seconds"; Printf.sprintf "%g" cfg.seconds;
                "--trace"; trace;
              |]
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
                Unix.stderr
            in
            match snd (Unix.waitpid [] pid) with
            | Unix.WEXITED 0 -> None
            | _ -> Some (Printf.sprintf "%s (trace %s)" name trace))
          [ "0"; "1" ])
      Workloads.all
  in
  match failed with
  | [] ->
    print_endline "all workloads passed their checks";
    0
  | names ->
    Printf.printf "FAILED: %s\n" (String.concat ", " names);
    1

let () =
  let workload = ref None and seed = ref 7 and seconds = ref 10.0 in
  let trace = ref false and trace_file = ref None in
  let list = ref false and spec = ref None in
  let bad fmt = Printf.ksprintf (fun m -> raise (Arg.Bad m)) fmt in
  Arg.parse
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if List.mem_assoc w Workloads.all then workload := Some w
            else bad "unknown workload %S" w),
        "NAME  run one workload (default: all, each in its own process)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 7; 8 is held out)");
      ("--seconds", Arg.Set_float seconds, "S  how long timed units run (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | n -> bad "--trace takes 0 or 1, not %d" n),
        "0|1  timed end-to-end run (0) or traced per-layer run (1)" );
      ( "--trace-file",
        Arg.String (fun p -> trace_file := Some p),
        "FILE  write the traced run's spans as a Chrome trace" );
      ("--list", Arg.Set list, "  print the workload and metric names and exit");
      ( "--spec",
        Arg.String (fun p -> spec := Some p),
        "FILE  with --list: check the names against this BENCHMARK.json" );
    ]
    (fun a -> bad "unexpected argument %S" a)
    "e2e.exe [--workload NAME --seed N --seconds S --trace 0|1] | --list";
  let cfg =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      trace = !trace;
      trace_file = !trace_file;
    }
  in
  exit
    (if !list then list_names !spec
     else
       match !workload with
       | Some name -> run_one name cfg
       | None -> run_all cfg)
