(* The four workloads. Each runs in a process of its own: set-up (repeated,
   the median reported as setup_s), then either timed units or traced
   passes, which split a unit across the library's layers, until the run's
   seconds are spent. Every run checks the program's outputs. *)

module Json = Sdft_util.Json
module Metrics = Sdft_util.Metrics
module Server_core = Sdft_server.Server_core
module Daemon = Sdft_server.Daemon
module Client = Sdft_server.Client
module Protocol = Sdft_server.Protocol

type config = {
  seed : int;
  seconds : float;  (** how long timed units or traced passes repeat *)
  trace : bool;  (** the traced run instead of the timed one *)
  trace_file : string option;  (** Chrome trace of the replay's spans *)
}

let now = Unix.gettimeofday

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Files a run leaves behind (stores, the server socket) live under the
   working directory, named per process, and go when the process exits.
   Paths stay relative: a Unix socket path may not exceed ~100 bytes. *)

let scratch_dir = ".e2e-run"

let scratch_files = ref []

let remove path = try Sys.remove path with Sys_error _ -> ()

let scratch name =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  let path =
    Filename.concat scratch_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  if not (List.mem path !scratch_files) then
    scratch_files := path :: !scratch_files;
  path

let () =
  at_exit (fun () ->
      List.iter remove !scratch_files;
      try Sys.rmdir scratch_dir with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)

(* [f] runs at least [min] times and until the run's seconds are spent.
   Each run starts from a collected heap, so that one unit's garbage does
   not land on the next one's clock; units time themselves, so that this
   collection stays out. *)
let repeat ~min cfg f =
  let start = now () in
  let rec go n acc =
    if n >= min && now () -. start >= cfg.seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (n + 1) (f () :: acc)
    end
  in
  go 0 []

(* Set-up runs [times] times (once for a traced run, which does not report
   it); the last state is the one used. *)
let set_up cfg ~times f =
  let times = if cfg.trace then 1 else times in
  let samples =
    List.init times (fun _ ->
        let t0 = now () in
        let state = f () in
        (now () -. t0, state))
  in
  (snd (List.nth samples (times - 1)), List.map fst samples)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Timed units, at least three; each returns the peak heap it saw, and the
   first unit's reading is reported: set-up and one unit are a fixed amount
   of work, while how many units follow depends on the clock. *)
let timed cfg f =
  let units = repeat ~min:3 cfg f in
  (List.map fst units, snd (List.hd units))

let unit_metrics ~setup ~walls ~p50 ~heap =
  [
    Report.of_samples "setup_s" setup;
    Report.of_samples "wall_s" walls;
    Report.of_samples "latency_p50_s" p50;
    Report.of_samples "peak_heap_mb" [ heap ];
  ]

(* One traced pass: a program unit next to its replay. *)
type pass = {
  values : (string * float) list;  (** per-layer metric values *)
  p_attempted : int;
  p_failed : int;
  p_problems : string list;
}

(* Passes repeat like timed units, at least once. Each per-layer value is
   the median over passes, zero for a layer the workload never enters. *)
let traced cfg pass =
  let passes = repeat ~min:1 cfg pass in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let value name p = Option.value (List.assoc_opt name p.values) ~default:0.0 in
  {
    Report.attempted = sum (fun p -> p.p_attempted);
    failed = sum (fun p -> p.p_failed);
    metrics =
      List.map
        (fun (name, _) -> Report.of_samples name (List.map (value name) passes))
        Report.per_layer;
    problems = List.sort_uniq compare (List.concat_map (fun p -> p.p_problems) passes);
  }

let replay_layers (r : Replay.t) =
  let sec = Replay.seconds r in
  let f = float_of_int in
  [
    ("translate.s", sec "translate");
    ("generate.s", sec "generate");
    ("generate.cutsets", f r.cutsets);
    ("ftc.build_s", sec "ftc.build");
    ("ftc.builds", f r.ftc_builds);
    ("cache.key_s", sec "cache.key");
    ("cache.lookups", f r.lookups);
    ("cache.misses", f r.misses);
    ( "cache.hit_ratio",
      if r.lookups = 0 then 0.0 else f (r.lookups - r.misses) /. f r.lookups );
    ("product.build_s", sec "product.build");
    ("product.builds", f r.product_builds);
    ("product.states", f r.states);
    ("product.transitions", f r.transitions);
    ("transient.solve_s", sec "transient.solve");
    ("transient.steps", f r.steps);
  ]

let layer_seconds values =
  List.fold_left
    (fun acc (name, v) ->
      if Report.unit_of name = "s" then acc +. v else acc)
    0.0 values

let write_trace cfg replay =
  Option.iter
    (fun path ->
      Replay.write_chrome replay path;
      Printf.printf "replay spans written to %s\n" path)
    cfg.trace_file

(* ------------------------------------------------------------------ *)
(* The sweep workloads. *)

type cache_mode =
  | Memory  (** a fresh memory cache per unit *)
  | Fresh_store  (** a new store file per unit: cold, and written *)
  | Warm_store  (** the store filled during set-up: read *)

let warm_store = lazy (scratch "warm.store")

type sweep = {
  model : string;  (** the golden table's name for the model *)
  sd : Sdft.t;
  options : Sdft_analysis.options list;
}

type unit_run = {
  wall : float;
  load_s : float;  (** opening the store *)
  flush_s : float;  (** closing it *)
  results : Sdft_analysis.result list;
  cache : Quant_cache.t;
  disk : Quant_cache.disk_stats option;  (** taken just before the close *)
}

(* One timed unit: open the cache, sweep, close. *)
let sweep_unit mode s =
  let open_cache =
    match mode with
    | Memory -> Quant_cache.create
    | Fresh_store ->
      let path = scratch "cold.store" in
      remove path;
      fun () -> Quant_cache.open_disk path
    | Warm_store -> fun () -> Quant_cache.open_disk (Lazy.force warm_store)
  in
  let t0 = now () in
  let cache = open_cache () in
  let t1 = now () in
  let points, _ = Sdft_analysis.sweep ~cache s.sd s.options in
  let disk = Quant_cache.disk_stats cache in
  let t2 = now () in
  Quant_cache.close cache;
  let t3 = now () in
  {
    wall = t3 -. t0;
    load_s = t1 -. t0;
    flush_s = t3 -. t2;
    results = List.map (fun p -> p.Sdft_analysis.sweep_result) points;
    cache;
    disk;
  }

let intervals s u =
  List.map2
    (fun (o : Sdft_analysis.options) (r : Sdft_analysis.result) ->
      (o.horizon, (r.total, r.budget.lower, r.budget.upper)))
    s.options u.results

let print_points model points =
  List.iter
    (fun (h, (total, lower, upper)) ->
      Printf.printf "%s h=%g total=%h interval=[%.6e, %.6e]\n" model h total
        lower upper)
    points

let same_intervals a b =
  List.for_all2
    (fun (_, (t, l, u)) (_, (t', l', u')) -> same t t' && same l l' && same u u')
    a b

let count_degraded u =
  List.length (List.filter Sdft_analysis.degraded u.results)

(* What a timed unit leaves for the checks. Keeping whole results would
   let the harness's own retention set peak_heap_mb. *)
type unit_summary = {
  u_wall : float;
  u_intervals : (float * (float * float * float)) list;
  u_misses : int;
  u_degraded : int;
}

(* [reference]: the intervals every unit must reproduce bit for bit. *)
let timed_sweep cfg ~mode ~setup ~reference s =
  let units, heap =
    timed cfg (fun () ->
        let u = sweep_unit mode s in
        ( {
            u_wall = u.wall;
            u_intervals = intervals s u;
            u_misses = Quant_cache.misses u.cache;
            u_degraded = count_degraded u;
          },
          peak_heap_mb () ))
  in
  let walls = List.map (fun u -> u.u_wall) units in
  let first = (List.hd units).u_intervals in
  print_points s.model first;
  let reference = Option.value reference ~default:first in
  let problems =
    Golden.check ~model:s.model first
    @ List.concat_map
        (fun u ->
          (if same_intervals u.u_intervals reference then []
           else [ "a unit's intervals differ bitwise from the reference run's" ])
          @
          if mode = Warm_store && u.u_misses > 0 then
            [ Printf.sprintf "a warm pass solved %d sub-models" u.u_misses ]
          else [])
        units
  in
  {
    Report.attempted = List.length s.options * List.length units;
    failed = List.fold_left (fun acc u -> acc + u.u_degraded) 0 units;
    (* A sweep workload's operation is a whole sweep: its latency is the
       unit's wall time. *)
    metrics = unit_metrics ~setup ~walls ~p50:walls ~heap;
    problems = List.sort_uniq compare problems;
  }

(* A program unit, then the same sweep replayed layer by layer. *)
let traced_pass cfg ~mode s () =
  let u = sweep_unit mode s in
  let warm =
    match mode with
    | Warm_store -> Quant_cache.export u.cache
    | Memory | Fresh_store -> []
  in
  let replay = Replay.create ~warm () in
  let totals = List.map (fun o -> Replay.analyze replay o s.sd) s.options in
  write_trace cfg replay;
  let problems =
    Golden.check ~model:s.model (intervals s u)
    @ List.concat
      (List.map2
         (fun (h, (total, _, _)) replayed ->
           if same total replayed then []
           else
             [
               Printf.sprintf "%s h=%g: replay total %h differs from sweep total %h"
                 s.model h replayed total;
             ])
         (intervals s u) totals)
  in
  let store =
    match u.disk with
    | None -> []
    | Some d ->
      [
        ("store.load_s", u.load_s);
        ("store.flush_s", u.flush_s);
        ("store.entries_loaded", float_of_int d.Quant_cache.entries_loaded);
        ("store.appends", float_of_int d.Quant_cache.appends);
      ]
  in
  let layers = replay_layers replay @ store in
  {
    values = ("unattributed.s", u.wall -. layer_seconds layers) :: layers;
    p_attempted = List.length s.options;
    p_failed = count_degraded u;
    p_problems = problems;
  }

let sweep_workload cfg ~model ~build ~engine ~horizons ~mode =
  let options = Inputs.sweep_options ~engine horizons in
  let make () =
    let text = Inputs.as_text (Inputs.rng cfg.seed) (build ()) in
    { model; sd = Sdft_format.of_string text; options }
  in
  let s, setup, reference =
    match mode with
    | Memory | Fresh_store ->
      let s, setup = set_up cfg ~times:20 make in
      (s, setup, None)
    | Warm_store ->
      (* Set-up fills the store with a cold pass, whose intervals every warm
         pass must reproduce. *)
      let (s, cold), setup =
        set_up cfg ~times:3 (fun () ->
            let s = make () in
            remove (Lazy.force warm_store);
            (s, intervals s (sweep_unit Warm_store s)))
      in
      (s, setup, Some cold)
  in
  if cfg.trace then traced cfg (traced_pass cfg ~mode s)
  else begin
    (* An untimed pass, so that warm passes start from a warm process. *)
    if mode = Warm_store then ignore (sweep_unit mode s);
    timed_sweep cfg ~mode ~setup ~reference s
  end

let m1_cold cfg =
  sweep_workload cfg ~model:"model-1" ~build:(fun () -> Inputs.model_1 ~phases:4)
    ~engine:Sdft_analysis.Zdd_engine ~horizons:[ 12.0; 24.0 ] ~mode:Fresh_store

let m1_warm cfg =
  sweep_workload cfg ~model:"model-1" ~build:(fun () -> Inputs.model_1 ~phases:4)
    ~engine:Sdft_analysis.Zdd_engine ~horizons:[ 12.0; 24.0 ] ~mode:Warm_store

let bwr_sweep cfg =
  sweep_workload cfg ~model:"bwr" ~build:Inputs.bwr
    ~engine:Sdft_analysis.Mocus_sound ~horizons:[ 12.0; 24.0; 48.0; 72.0 ]
    ~mode:Memory

(* ------------------------------------------------------------------ *)
(* The server workload. *)

type answer = {
  total : float;
  lower : float;
  upper : float;
  degraded : bool;
  analysis_s : float;  (** the response's verbose mcs_s + quant_s *)
}

(* [None] for an error response or a broken exchange. *)
let answer line =
  let ( let* ) = Option.bind in
  let* doc = Result.to_option (Json.parse line) in
  let* ok = Option.bind (Json.member "ok" doc) Json.to_bool in
  let* r = if ok then Json.member "result" doc else None in
  let num v name = Option.bind (Json.member name v) Json.to_float in
  let* total = num r "total" in
  let* lower = num r "lower" in
  let* upper = num r "upper" in
  let* degraded = Option.bind (Json.member "degraded" r) Json.to_bool in
  let* timing = Json.member "timing" r in
  let* mcs = num timing "mcs_s" in
  let* quant = num timing "quant_s" in
  Some { total; lower; upper; degraded; analysis_s = mcs +. quant }

type server_pass = {
  r_wall : float;  (** first request sent to last response received *)
  latencies : float list;
  answers : answer option array;  (** in stream order *)
  handle_s : float;  (** the server's summed [server.request_s] *)
  r_heap_mb : float;
      (** read while the worker domain lives: once it has been joined, the
          runtime's heap statistics may leave its heap out *)
}

(* One pass of the stream: a fresh server with one worker domain and a
   fresh memory cache behind a Unix socket, two closed-loop clients pulling
   the next request from the shared stream. *)
let serve_stream (stream : Inputs.request array) =
  let socket = scratch "server.sock" in
  let core =
    Server_core.create ~config:{ Server_core.default_config with workers = 1 } ()
  in
  let ready = Semaphore.Binary.make false in
  let serve_error = ref None in
  let daemon =
    Thread.create
      (fun () ->
        try
          Daemon.serve
            ~on_ready:(fun () -> Semaphore.Binary.release ready)
            core (Daemon.Unix_sock socket)
        with e ->
          serve_error := Some e;
          Semaphore.Binary.release ready)
      ()
  in
  Semaphore.Binary.acquire ready;
  Option.iter raise !serve_error;
  let n = Array.length stream in
  let replies = Array.make n (nan, "") in
  let next = Atomic.make 0 in
  let client_loop c =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = now () in
        let line = try Client.request c stream.(i).Inputs.line with _ -> "" in
        replies.(i) <- (now () -. t0, line);
        loop ()
      end
    in
    loop ()
  in
  let clients = List.init 2 (fun _ -> Client.connect (Daemon.Unix_sock socket)) in
  let t0 = now () in
  List.iter Thread.join (List.map (Thread.create client_loop) clients);
  let r_wall = now () -. t0 in
  List.iter Client.close clients;
  let handle_s =
    (Metrics.hist_value
       (Metrics.histogram_in (Server_core.metrics core) "server.request_s"))
      .Metrics.sum
  in
  let r_heap_mb = peak_heap_mb () in
  Daemon.request_stop core;
  Thread.join daemon;
  {
    r_wall;
    latencies = Array.to_list (Array.map fst replies);
    answers = Array.map (fun (_, line) -> answer line) replies;
    handle_s;
    r_heap_mb;
  }

let failures rep =
  Array.fold_left
    (fun acc a ->
      match a with Some { degraded = false; _ } -> acc | Some _ | None -> acc + 1)
    0 rep.answers

(* The options the server derives from a request's parameters. *)
let request_options (req : Inputs.request) =
  match Protocol.parse_request ~max_bytes:max_int req.line with
  | Ok { Protocol.op = Protocol.Analyze p; _ } ->
    ( p.Protocol.model_text,
      {
        Sdft_analysis.default_options with
        horizon = p.Protocol.horizon;
        cutoff = p.Protocol.cutoff;
        engine = p.Protocol.engine;
        max_cutset_order = p.Protocol.max_order;
      } )
  | Ok _ | Error _ -> failwith "server-mix: the harness built a bad request"

(* Every answer of every pass against an in-process analysis of the same
   request. *)
let check_answers stream passes =
  let cache = Quant_cache.create () in
  let reference = Hashtbl.create 64 in
  let problems = ref [] in
  Array.iteri
    (fun i (req : Inputs.request) ->
      let key = (req.cls, req.horizon) in
      let r =
        match Hashtbl.find_opt reference key with
        | Some r -> r
        | None ->
          let text, options = request_options req in
          let r = Sdft_analysis.analyze ~options ~cache (Sdft_format.of_string text) in
          Hashtbl.add reference key r;
          r
      in
      List.iter
        (fun pass ->
          match pass.answers.(i) with
          | Some a
            when not
                   (same a.total r.Sdft_analysis.total
                   && same a.lower r.budget.lower
                   && same a.upper r.budget.upper) ->
            problems :=
              Printf.sprintf "%s h=%g: server answered %h, in-process %h"
                (Inputs.class_name req.cls) req.horizon a.total r.total
              :: !problems
          | Some _ | None -> ())
        passes)
    stream;
  List.sort_uniq compare !problems

let server_mix cfg =
  let stream, setup =
    set_up cfg ~times:20 (fun () ->
        let rng = Inputs.rng cfg.seed in
        let pumps = Inputs.as_text rng (Inputs.pumps ()) in
        let bwr = Inputs.as_text rng (Inputs.bwr ()) in
        let m1 = Inputs.as_text rng (Inputs.model_1 ~phases:2) in
        Inputs.stream rng ~model_text:(function
          | Inputs.Pumps -> pumps
          | Bwr_zdd -> bwr
          | M1_zdd -> m1))
  in
  let n = Array.length stream in
  if not cfg.trace then begin
    (* An untimed pass first: the first pass in a process runs slow. *)
    ignore (serve_stream stream);
    let reps, heap =
      timed cfg (fun () ->
          let r = serve_stream stream in
          (r, r.r_heap_mb))
    in
    (* The p95 is printed, not reported: it moved by more than 10% from one
       run to the next. *)
    List.iteri
      (fun i r ->
        Printf.printf
          "repeat %d: %d of %d requests answered without error in %.3f s, \
           p50 %.4f s, p95 %.4f s\n"
          (i + 1) (n - failures r) n r.r_wall
          (Report.quantile r.latencies 0.5)
          (Report.quantile r.latencies 0.95))
      reps;
    {
      Report.attempted = n * List.length reps;
      failed = List.fold_left (fun acc r -> acc + failures r) 0 reps;
      metrics =
        unit_metrics ~setup
          ~walls:(List.map (fun r -> r.r_wall) reps)
          (* Each repeat's own p50; the reported value is their median. *)
          ~p50:(List.map (fun r -> Report.quantile r.latencies 0.5) reps)
          ~heap;
      problems = check_answers stream reps;
    }
  end
  else
    traced cfg @@ fun () ->
    let rep = serve_stream stream in
    let requests = Array.to_list (Array.map request_options stream) in
    let parse_s =
      List.fold_left
        (fun acc (text, _) ->
          let t0 = now () in
          ignore (Sdft_format.of_string text);
          acc +. (now () -. t0))
        0.0 requests
    in
    let models = Hashtbl.create 3 in
    let model i text =
      let cls = stream.(i).Inputs.cls in
      match Hashtbl.find_opt models cls with
      | Some sd -> sd
      | None ->
        let sd = Sdft_format.of_string text in
        Hashtbl.add models cls sd;
        sd
    in
    let replay = Replay.create () in
    let problems =
      List.concat
        (List.mapi
           (fun i (text, options) ->
             let total = Replay.analyze replay options (model i text) in
             match rep.answers.(i) with
             | Some a when not (same a.total total) ->
               [
                 Printf.sprintf "request %d: replay total %h, server answered %h" i
                   total a.total;
               ]
             | Some _ | None -> [])
           requests)
    in
    write_trace cfg replay;
    let roundtrip = List.fold_left ( +. ) 0.0 rep.latencies in
    let analysis =
      Array.fold_left
        (fun acc a -> match a with Some a -> acc +. a.analysis_s | None -> acc)
        0.0 rep.answers
    in
    let server =
      [
        ("server.roundtrip_s", roundtrip);
        ("server.handle_s", rep.handle_s);
        ("server.wait_wire_s", roundtrip -. rep.handle_s);
        ("server.analysis_s", analysis);
        ("server.parse_s", parse_s);
        ("server.errors", float_of_int (failures rep));
        (* Handling time the request's own timing and the parse leave
           unexplained: rendering, admission, the guard. *)
        ("unattributed.s", rep.handle_s -. analysis -. parse_s);
      ]
    in
    {
      values = server @ replay_layers replay;
      p_attempted = n;
      p_failed = failures rep;
      p_problems = problems;
    }

let all =
  [
    ("m1-cold", m1_cold);
    ("m1-warm", m1_warm);
    ("bwr-sweep", bwr_sweep);
    ("server-mix", server_mix);
  ]
