(* Metric names, order statistics and the two output forms: a table for
   people and, as the last line of standard output, one JSON object for
   tools. *)

module Json = Sdft_util.Json

(* Timed runs report these; traced runs report [per_layer]. The names and
   units are declared again in BENCHMARK.json; the runtest rule checks that
   the two lists agree. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("latency_p50_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("translate.s", "s");
    ("generate.s", "s");
    ("generate.cutsets", "count");
    ("ftc.build_s", "s");
    ("ftc.builds", "count");
    ("cache.key_s", "s");
    ("cache.lookups", "count");
    ("cache.misses", "count");
    ("cache.hit_ratio", "ratio");
    ("product.build_s", "s");
    ("product.builds", "count");
    ("product.states", "count");
    ("product.transitions", "count");
    ("transient.solve_s", "s");
    ("transient.steps", "count");
    ("store.load_s", "s");
    ("store.flush_s", "s");
    ("store.entries_loaded", "count");
    ("store.appends", "count");
    ("server.roundtrip_s", "s");
    ("server.handle_s", "s");
    ("server.wait_wire_s", "s");
    ("server.analysis_s", "s");
    ("server.parse_s", "s");
    ("server.errors", "count");
    ("unattributed.s", "s");
  ]

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

type metric = {
  name : string;
  value : float;  (** the median of the samples: what the JSON line reports *)
  iqr : float;
  n : int;  (** samples *)
}

let of_samples name samples =
  {
    name;
    value = quantile samples 0.5;
    iqr = quantile samples 0.75 -. quantile samples 0.25;
    n = List.length samples;
  }

type result = {
  attempted : int;  (** operations: sweep points or server requests *)
  failed : int;  (** error responses and degraded results *)
  metrics : metric list;
  problems : string list;  (** correctness-gate failures *)
}

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Report.unit_of: undeclared metric " ^ name)

let print_table ~bounds r =
  Printf.printf "%-22s %-6s %14s %12s %5s %6s\n" "metric" "unit" "median" "iqr"
    "n" "bound";
  let row name unit value iqr n bound =
    Printf.printf "%-22s %-6s %14.6g %12s %5d %6s\n" name unit value iqr n bound
  in
  List.iter
    (fun m ->
      row m.name (unit_of m.name) m.value (Printf.sprintf "%.4g" m.iqr) m.n
        (match List.assoc_opt m.name bounds with
        | Some b -> Printf.sprintf "%g" b
        | None -> "-"))
    r.metrics;
  row "failed_ratio" "ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "-" r.attempted "+0";
  List.iter (Printf.printf "FAILED CHECK: %s\n") r.problems

let json_line r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.problems = []) r.attempted r.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ", ";
      Json.add_string buf m.name;
      Buffer.add_string buf ": {\"value\": ";
      Json.add_float buf m.value;
      Buffer.add_string buf ", \"unit\": ";
      Json.add_string buf (unit_of m.name);
      Buffer.add_char buf '}')
    r.metrics;
  Buffer.add_string buf "}}";
  Buffer.contents buf
