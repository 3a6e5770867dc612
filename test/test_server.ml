(* The resident analysis server, driven in-process through the exact code
   paths the socket daemon uses.

   The load-bearing properties: the NDJSON codec is total under byte
   fuzzing (garbage, mutations and truncated frames reject, never raise);
   eight concurrent clients hammering one shared quantification cache get
   responses bit-identical to a sequential replay of the same request
   lines, with nothing leaking into the process-global default
   metrics/trace/failpoint registries; admission control answers a full
   queue or an exhausted client quota with a structured [retry_after]
   rejection instead of stalling; and an injected fault — a poisoned
   request, a crashing parallel worker, a failing disk append — costs
   exactly its own request (or degrades it in place) while the daemon
   keeps serving and the on-disk store stays uncorrupted. *)

open Sdft_util
module Protocol = Sdft_server.Protocol
module Core = Sdft_server.Server_core

(* ------------------------------------------------------------------ *)
(* Helpers *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdft_server_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let contains hay needle =
  let rec search i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || search (i + 1))
  in
  search 0

let parse_json line =
  match Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let response_ok line =
  match Option.bind (Json.member "ok" (parse_json line)) Json.to_bool with
  | Some b -> b
  | None -> Alcotest.failf "response without an ok field: %s" line

let error_code line =
  match
    Option.bind
      (Json.member "error" (parse_json line))
      (fun e -> Option.bind (Json.member "code" e) Json.to_string)
  with
  | Some c -> c
  | None -> Alcotest.failf "response without an error code: %s" line

let retry_after line =
  Option.bind
    (Json.member "error" (parse_json line))
    (fun e -> Option.bind (Json.member "retry_after" e) Json.to_float)

let result_field line name =
  Option.bind (Json.member "result" (parse_json line)) (Json.member name)

let result_int line name = Option.bind (result_field line name) Json.to_int
let result_bool line name = Option.bind (result_field line name) Json.to_bool

let counter_of snap name =
  match List.assoc_opt name snap.Metrics.counters with Some n -> n | None -> 0

(* Reply mailbox for asynchronous [submit]: the reply closure fills it
   from whichever domain answers; [wait] blocks until it does. *)
let waiter () =
  let m = Mutex.create () and cv = Condition.create () and r = ref None in
  let reply s =
    Mutex.lock m;
    r := Some s;
    Condition.signal cv;
    Mutex.unlock m
  in
  let wait () =
    Mutex.lock m;
    while !r = None do
      Condition.wait cv m
    done;
    let s = Option.get !r in
    Mutex.unlock m;
    s
  in
  (reply, wait)

let stat_int core name =
  let r = Core.call core ~client:"probe" (Protocol.simple_line "stats") in
  match result_int r name with
  | Some n -> n
  | None -> Alcotest.failf "stats response lacks %s: %s" name r

let wait_until ?(timeout = 10.0) what f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* Model corpus: the two named reference models plus a spread of generated
   static/dynamic trees. *)
let pumps_text = lazy (Sdft_format.to_string (Pumps.sd_tree ()))

let bwr_text =
  lazy
    (Sdft_format.to_string
       (Bwr.build
          {
            Bwr.default_config with
            repair_rate = Some 0.1;
            triggers = Bwr.all_trigger_sites;
          }))

let gen_corpus =
  lazy (Array.init 20 (fun i -> Sdft_format.to_string (Gen_sdft.sd (100 + i))))

(* ------------------------------------------------------------------ *)
(* Codec: total under fuzzing, exact on round-trips *)

let arbitrary_bytes =
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:char (int_bound 80))

let qcheck_json_parse_total =
  QCheck.Test.make ~name:"Json.parse is total on byte garbage" ~count:2000
    arbitrary_bytes (fun s ->
      match Json.parse s with Ok _ | Error _ -> true)

(* Bounded-depth JSON values with finite numbers (NaN breaks structural
   equality and non-finite numbers have no JSON spelling by design). *)
let json_value_gen =
  let open QCheck.Gen in
  let finite_float = map (fun f -> if Float.is_finite f then f else 1.5) float in
  let short_string = string_size ~gen:printable (int_bound 10) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Number f) finite_float;
        map (fun s -> Json.String s) short_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun vs -> Json.Array vs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun fields -> Json.Object fields)
                   (list_size (int_bound 4)
                      (pair short_string (self (n / 2)))) );
             ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"Json writer/parser round-trip is the identity"
    ~count:1000
    (QCheck.make ~print:Json.value_to_string json_value_gen)
    (fun v -> Json.parse (Json.value_to_string v) = Ok v)

let qcheck_request_parse_total =
  QCheck.Test.make ~name:"parse_request is total on byte garbage" ~count:2000
    arbitrary_bytes (fun s ->
      match Protocol.parse_request ~max_bytes:4096 s with
      | Ok _ | Error _ -> true)

let qcheck_mutated_frames =
  QCheck.Test.make ~name:"mutated valid frames never raise" ~count:500
    (QCheck.make QCheck.Gen.(triple (int_bound 19) nat nat))
    (fun (idx, pos, byte) ->
      let line =
        Protocol.analyze_line
          ~id:(Printf.sprintf "m-%d" idx)
          ~engine:"auto"
          ~model:(Lazy.force gen_corpus).(idx)
          ()
      in
      let b = Bytes.of_string line in
      Bytes.set b (pos mod Bytes.length b) (Char.chr (byte mod 256));
      match Protocol.parse_request ~max_bytes:(1 lsl 20) (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let qcheck_truncated_frames =
  QCheck.Test.make ~name:"every truncated frame is rejected" ~count:500
    (QCheck.make QCheck.Gen.(pair (int_bound 19) nat))
    (fun (idx, cut) ->
      let line =
        Protocol.analyze_line ~id:"t" ~horizon:12.5 ~engine:"zdd"
          ~model:(Lazy.force gen_corpus).(idx)
          ()
      in
      (* A strict prefix of a single JSON object is never valid JSON. *)
      let cut = cut mod String.length line in
      match Protocol.parse_request ~max_bytes:(1 lsl 20) (String.sub line 0 cut)
      with
      | Error _ -> true
      | Ok _ -> false)

let params_of_seed seed =
  let rng = Rng.create seed in
  let engines = Array.of_list (List.map fst Sdft_analysis.engines) in
  let horizon = 0.5 +. (Rng.float rng *. 100.0) in
  let cutoff = Rng.float rng *. 1e-9 in
  let domains = 1 + Rng.int rng 8 in
  let max_order = 1 + Rng.int rng 5 in
  let engine = engines.(Rng.int rng (Array.length engines)) in
  let verbose = Rng.int rng 2 = 1 in
  (horizon, cutoff, domains, max_order, engine, verbose)

let qcheck_analyze_roundtrip =
  QCheck.Test.make
    ~name:"analyze_line round-trips exactly through parse_request" ~count:300
    Gen_sdft.seed_gen
    (fun seed ->
      let horizon, cutoff, domains, max_order, engine, verbose =
        params_of_seed seed
      in
      let id = Printf.sprintf "rt-%d" seed in
      let fp = "cache.lookup=delay:0.0@nth:1000000" in
      let model = (Lazy.force gen_corpus).(seed mod 20) in
      let line =
        Protocol.analyze_line ~id ~client:"fuzz" ~horizon ~cutoff ~engine
          ~domains ~max_order ~failpoints:fp ~verbose ~model ()
      in
      match Protocol.parse_request ~max_bytes:(1 lsl 20) line with
      | Error _ -> false
      | Ok req -> (
        req.Protocol.id = Json.String id
        && req.Protocol.client = Some "fuzz"
        && req.Protocol.failpoints = Some fp
        &&
        match req.Protocol.op with
        | Protocol.Analyze p ->
          p.Protocol.model_text = model
          && p.Protocol.horizon = horizon
          && p.Protocol.cutoff = cutoff
          && p.Protocol.domains = domains
          && p.Protocol.max_order = Some max_order
          && p.Protocol.verbose = verbose
          && Sdft_analysis.engine_name p.Protocol.engine = engine
        | _ -> false))

let test_codec_rejections () =
  let parse s = Protocol.parse_request ~max_bytes:256 s in
  let code = function
    | Error (_, e) -> Protocol.error_code_name e.Protocol.code
    | Ok _ -> Alcotest.fail "frame unexpectedly accepted"
  in
  Alcotest.(check string) "garbage" "bad_request" (code (parse "{not json"));
  Alcotest.(check string)
    "oversized frame" "bad_request"
    (code (parse ("{\"op\":\"ping\",\"pad\":\"" ^ String.make 300 'x' ^ "\"}")));
  Alcotest.(check string)
    "unknown op" "bad_request"
    (code (parse {|{"id":7,"op":"teapot"}|}));
  Alcotest.(check string)
    "analyze without model" "bad_request"
    (code (parse {|{"op":"analyze"}|}));
  Alcotest.(check string)
    "unknown engine" "bad_request"
    (code (parse {|{"op":"analyze","model":"x","params":{"engine":"gpu"}}|}));
  Alcotest.(check string)
    "type-confused horizon" "bad_request"
    (code (parse {|{"op":"analyze","model":"x","params":{"horizon":"soon"}}|}));
  (* The id survives rejection so the client can correlate the error. *)
  (match parse {|{"id":7,"op":"teapot"}|} with
  | Error (Json.Number n, _) when n = 7.0 -> ()
  | _ -> Alcotest.fail "id not recovered from a rejected frame");
  (* Response builders emit parseable envelopes. *)
  let ok =
    Protocol.ok_response ~id:(Json.String "x") (fun b ->
        Buffer.add_string b "\"pong\":true")
  in
  Alcotest.(check bool) "ok envelope" true (response_ok ok);
  let err =
    Protocol.error_response ~id:Json.Null
      {
        Protocol.code = Protocol.Saturated;
        message = "full";
        retry_after = Some 0.25;
      }
  in
  Alcotest.(check bool) "error envelope" false (response_ok err);
  Alcotest.(check string) "error code on the wire" "saturated" (error_code err);
  Alcotest.(check (option (float 1e-9)))
    "retry_after on the wire" (Some 0.25) (retry_after err)

(* Retired engine spellings are rejected like any unknown name, and the
   message lists exactly the spellings of [Sdft_analysis.engines]. *)
let test_codec_retired_engines () =
  let expected = List.map fst Sdft_analysis.engines in
  List.iter
    (fun name ->
      let line =
        Printf.sprintf {|{"op":"analyze","model":"x","params":{"engine":%S}}|}
          name
      in
      match Protocol.parse_request ~max_bytes:256 line with
      | Ok _ -> Alcotest.failf "engine %S accepted" name
      | Error (_, e) ->
        Alcotest.(check string)
          (name ^ " code") "bad_request"
          (Protocol.error_code_name e.Protocol.code);
        Alcotest.(check string)
          (name ^ " message lists the table")
          (Printf.sprintf "unknown engine %S (expected one of %s)" name
             (String.concat ", " expected))
          e.Protocol.message)
    [ "bdd"; "mocus-aggressive" ]

(* ------------------------------------------------------------------ *)
(* Inline ops and malformed traffic *)

let test_ops_smoke () =
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  Alcotest.(check string)
    "ping is canonical"
    {|{"id":"p1","ok":true,"result":{"pong":true}}|}
    (Core.call core ~client:"t" (Protocol.simple_line ~id:"p1" "ping"));
  let stats = Core.call core ~client:"t" (Protocol.simple_line "stats") in
  Alcotest.(check (option int)) "stats: workers" (Some 2)
    (result_int stats "workers");
  Alcotest.(check (option int)) "stats: nothing queued" (Some 0)
    (result_int stats "queued");
  let m = Core.call core ~client:"t" (Protocol.simple_line "metrics") in
  (match Option.bind (result_field m "prometheus") Json.to_string with
  | Some text ->
    Alcotest.(check bool)
      "scrape body counts requests" true
      (contains text "sdft_server_requests")
  | None -> Alcotest.failf "metrics op without prometheus body: %s" m);
  (* A malformed line answers bad_request and costs nothing else. *)
  let bad = Core.call core ~client:"t" "{not json" in
  Alcotest.(check bool) "malformed line rejected" false (response_ok bad);
  Alcotest.(check string) "as bad_request" "bad_request" (error_code bad);
  Alcotest.(check bool)
    "daemon unaffected by garbage" true
    (response_ok (Core.call core ~client:"t" (Protocol.simple_line "ping")))

let test_shutdown_semantics () =
  let core = Core.create () in
  let r = Core.call core ~client:"t" (Protocol.simple_line ~id:"s" "shutdown") in
  Alcotest.(check (option bool)) "shutdown acknowledged" (Some true)
    (result_bool r "stopping");
  Alcotest.(check bool) "core reports stopping" true (Core.stopping core);
  let late = Core.call core ~client:"t" (Protocol.simple_line "ping") in
  Alcotest.(check string)
    "post-shutdown requests refused" "shutting_down" (error_code late);
  Core.shutdown core;
  (* Idempotent: a second graceful shutdown is a no-op. *)
  Core.shutdown core

(* ------------------------------------------------------------------ *)
(* Concurrency soak: 8 clients x 50 mixed requests over one shared cache,
   bit-identical to a sequential replay, nothing in default registries *)

(* The soak's request mix: mostly cheap generated trees, frequent repeats
   of the pumps reference model (cache-hit heavy), one BWR request per
   client (cache-miss heavy), engines and horizons cycling, and a sprinkle
   of per-request failpoint specs whose trigger never fires — armed on the
   request's private registry, they must not perturb anything. *)
let soak_lines () =
  let pumps = Lazy.force pumps_text
  and bwr = Lazy.force bwr_text
  and gens = Lazy.force gen_corpus in
  let engines = [| "mocus"; "zdd"; "auto" |] in
  let horizons = [| 8.0; 24.0 |] in
  Array.init 8 (fun c ->
      Array.init 50 (fun j ->
          let model =
            if j = 13 then bwr
            else if j mod 3 = 0 then pumps
            else gens.((c + j) mod 6)
          in
          let failpoints =
            if j mod 7 = 2 then Some "mocus.expand=delay:0.0@nth:1000000"
            else None
          in
          Protocol.analyze_line
            ~id:(Printf.sprintf "c%d-r%d" c j)
            ~client:(Printf.sprintf "client-%d" c)
            ~engine:engines.(j mod 3)
            ~horizon:horizons.(j mod 2)
            ?failpoints ~model ()))

(* The disk tier deliberately publishes its process-level instruments
   ([cache.appends], [cache.load_ms]) on the default registry — they are
   per-cache, not per-request, state. The isolation assertion filters
   exactly those two names; everything else in the default registry must
   stay byte-identical across the soak. *)
let filtered_default_snapshot () =
  let s = Metrics.snapshot_in Metrics.default in
  let drop names = List.filter (fun (n, _) -> not (List.mem n names)) in
  {
    s with
    Metrics.counters = drop [ "cache.appends" ] s.Metrics.counters;
    Metrics.gauges = drop [ "cache.load_ms" ] s.Metrics.gauges;
  }

let test_soak_concurrent_vs_sequential () =
  Metrics.reset_in Metrics.default;
  Trace.reset_in Trace.default;
  Failpoint.clear_all_in Failpoint.default;
  with_temp_dir @@ fun dir ->
  let cache = Quant_cache.open_disk (Filename.concat dir "soak.store") in
  let before = filtered_default_snapshot () in
  let config =
    { Core.default_config with workers = 4; queue_capacity = 64 }
  in
  let core = Core.create ~config ~cache () in
  let lines = soak_lines () in
  let clients =
    Array.mapi
      (fun c ls ->
        Domain.spawn (fun () ->
            Array.map
              (Core.call core ~client:(Printf.sprintf "conn-%d" c))
              ls))
      lines
  in
  let concurrent = Array.map Domain.join clients in
  Core.shutdown core;
  Array.iter
    (Array.iter (fun r ->
         if not (response_ok r) then Alcotest.failf "soak request failed: %s" r))
    concurrent;
  Alcotest.(check bool)
    "the shared cache actually served hits" true
    (Quant_cache.hits cache > 0);
  Quant_cache.close cache;
  (* Sequential baseline: a fresh single-worker core over a fresh
     memory-only cache replays the exact same request lines in order. *)
  let base = Core.create ~config:{ config with workers = 1 } () in
  Array.iteri
    (fun c ls ->
      Array.iteri
        (fun j line ->
          let got = Core.call base ~client:"seq" line in
          if got <> concurrent.(c).(j) then
            Alcotest.failf
              "response for c%d-r%d is not bit-identical:\n\
               concurrent: %s\n\
               sequential: %s"
              c j
              concurrent.(c).(j)
              got)
        ls)
    lines;
  Core.shutdown base;
  (* Zero cross-request contamination of the process-global context. *)
  let after = filtered_default_snapshot () in
  if after <> before then
    Alcotest.fail
      "default metrics registry changed across the soak (beyond the \
       disk tier's own cache.appends/cache.load_ms)";
  Alcotest.(check (list string))
    "default trace untouched" []
    (List.map fst (Trace.aggregate_in Trace.default));
  Alcotest.(check int)
    "default failpoint registry silent: server.handle" 0
    (Failpoint.hit_count_in Failpoint.default "server.handle");
  Alcotest.(check int)
    "default failpoint registry silent: cache.lookup" 0
    (Failpoint.hit_count_in Failpoint.default "cache.lookup");
  Alcotest.(check int)
    "default failpoint registry silent: mocus.expand" 0
    (Failpoint.hit_count_in Failpoint.default "mocus.expand")

(* ------------------------------------------------------------------ *)
(* Admission control: saturation and quota reject with retry_after *)

let test_saturation_retry_after () =
  let config =
    { Core.default_config with workers = 1; queue_capacity = 1 }
  in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let model = Lazy.force pumps_text in
  let slow id =
    Protocol.analyze_line ~id ~failpoints:"server.handle=delay:0.5" ~model ()
  in
  let reply_a, wait_a = waiter () and reply_b, wait_b = waiter () in
  Core.submit core ~client:"a" ~reply:reply_a (slow "slow-a");
  wait_until "the worker to pick up the slow request" (fun () ->
      stat_int core "running" = 1);
  (* Fills the queue; admission is synchronous, so it is queued on return. *)
  Core.submit core ~client:"b" ~reply:reply_b (slow "slow-b");
  Alcotest.(check int) "queue holds one request" 1 (stat_int core "queued");
  let reply_c, wait_c = waiter () in
  Core.submit core ~client:"c" ~reply:reply_c
    (Protocol.analyze_line ~id:"sat-c" ~model ());
  let rc = wait_c () in
  Alcotest.(check bool) "saturated request rejected" false (response_ok rc);
  Alcotest.(check string) "as saturated" "saturated" (error_code rc);
  (match retry_after rc with
  | Some s when s > 0.0 -> ()
  | _ -> Alcotest.failf "saturation reject without retry_after: %s" rc);
  (* The rejection stalled nothing: both admitted requests complete. *)
  Alcotest.(check bool) "first request served" true (response_ok (wait_a ()));
  Alcotest.(check bool) "queued request served" true (response_ok (wait_b ()));
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "one saturation reject counted" 1
    (counter_of snap "server.rejected_saturated")

let test_client_quota () =
  let config =
    {
      Core.default_config with
      workers = 1;
      queue_capacity = 8;
      client_quota = 2;
    }
  in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let model = Lazy.force pumps_text in
  let slow id =
    Protocol.analyze_line ~id ~failpoints:"server.handle=delay:0.4" ~model ()
  in
  let r1, w1 = waiter () and r2, w2 = waiter () in
  Core.submit core ~client:"greedy" ~reply:r1 (slow "g1");
  wait_until "the greedy client's first request to run" (fun () ->
      stat_int core "running" = 1);
  Core.submit core ~client:"greedy" ~reply:r2 (slow "g2");
  (* Third in-flight request from the same client: over quota. *)
  let r3, w3 = waiter () in
  Core.submit core ~client:"greedy" ~reply:r3
    (Protocol.analyze_line ~id:"g3" ~model ());
  let rg3 = w3 () in
  Alcotest.(check string) "over-quota rejected" "quota_exceeded"
    (error_code rg3);
  (match retry_after rg3 with
  | Some s when s > 0.0 -> ()
  | _ -> Alcotest.failf "quota reject without retry_after: %s" rg3);
  (* Another client is not punished for the greedy one's backlog. *)
  let ro, wo = waiter () in
  Core.submit core ~client:"other" ~reply:ro
    (Protocol.analyze_line ~id:"o1" ~model ());
  Alcotest.(check bool) "other client admitted and served" true
    (response_ok (wo ()));
  Alcotest.(check bool) "greedy 1 served" true (response_ok (w1 ()));
  Alcotest.(check bool) "greedy 2 served" true (response_ok (w2 ()));
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "one quota reject counted" 1
    (counter_of snap "server.rejected_quota")

(* ------------------------------------------------------------------ *)
(* Fault injection on the request path *)

let test_crash_contained () =
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let model = Lazy.force pumps_text in
  let poisoned =
    Core.call core ~client:"f"
      (Protocol.analyze_line ~id:"boom" ~failpoints:"server.handle=raise"
         ~model ())
  in
  Alcotest.(check bool) "poisoned request fails" false (response_ok poisoned);
  Alcotest.(check string) "contained as a crash error" "crash"
    (error_code poisoned);
  (match Json.member "id" (parse_json poisoned) with
  | Some (Json.String "boom") -> ()
  | _ -> Alcotest.failf "crash response lost the request id: %s" poisoned);
  (* Exactly one request died; the daemon keeps serving. *)
  Alcotest.(check bool)
    "daemon serves an analyze after the crash" true
    (response_ok
       (Core.call core ~client:"f" (Protocol.analyze_line ~id:"after" ~model ())));
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "one crash counted" 1 (counter_of snap "server.crashes");
  Alcotest.(check bool)
    "crash visible on the scrape" true
    (contains (Core.prometheus core) "sdft_server_crashes 1")

let test_request_failpoint_degrades_in_place () =
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let model = Lazy.force pumps_text in
  let clean_line = Protocol.analyze_line ~id:"probe" ~model () in
  let clean_before = Core.call core ~client:"f" clean_line in
  Alcotest.(check bool) "clean baseline ok" true (response_ok clean_before);
  (* Every cache lookup of this one request raises; each dynamic cutset is
     contained as a worker-crash fallback, so the request degrades in
     place instead of failing. *)
  let hurt =
    Core.call core ~client:"f"
      (Protocol.analyze_line ~id:"hurt" ~failpoints:"cache.lookup=raise"
         ~model ())
  in
  Alcotest.(check bool) "faulted request still answers ok" true
    (response_ok hurt);
  (match result_int hurt "n_fallbacks" with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.failf "expected worker-crash fallbacks: %s" hurt);
  Alcotest.(check (option bool)) "and reports degradation" (Some true)
    (result_bool hurt "degraded");
  (* The injection was request-private: the same clean request is
     bit-identical afterwards, so neither the shared cache nor any global
     registry was poisoned. *)
  Alcotest.(check string) "clean request bit-identical after the fault"
    clean_before
    (Core.call core ~client:"f" clean_line)

let test_parallel_worker_crash () =
  let config = { Core.default_config with max_request_domains = 2 } in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let model = Lazy.force bwr_text in
  Failpoint.set_in Failpoint.default "parallel.worker" ~trigger:(Failpoint.Nth 1) Failpoint.Raise;
  let faulted =
    Fun.protect ~finally:(fun () -> Failpoint.clear_in Failpoint.default "parallel.worker")
    @@ fun () ->
    Core.call core ~client:"f"
      (Protocol.analyze_line ~id:"pw" ~domains:2 ~model ())
  in
  (* The crashed domain poisons only its own cutsets (worst-case
     fallbacks); the request itself still answers. *)
  Alcotest.(check bool) "request survives a crashed solver domain" true
    (response_ok faulted);
  Alcotest.(check bool)
    "daemon serves after the domain crash" true
    (response_ok
       (Core.call core ~client:"f"
          (Protocol.analyze_line ~id:"pw2" ~model:(Lazy.force pumps_text) ())))

let test_store_append_fault_keeps_store_intact () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "faulty.store" in
  let cache = Quant_cache.open_disk path in
  let core = Core.create ~cache () in
  (* Phase 1: clean entries reach the disk. *)
  Alcotest.(check bool)
    "clean request ok" true
    (response_ok
       (Core.call core ~client:"f"
          (Protocol.analyze_line ~id:"clean" ~model:(Lazy.force pumps_text) ())));
  Quant_cache.flush cache;
  let pre =
    match Quant_cache.disk_stats cache with
    | Some d -> d.Quant_cache.appends
    | None -> Alcotest.fail "disk tier missing"
  in
  Alcotest.(check bool) "baseline appended records" true (pre > 0);
  (* Phase 2: every disk append fails; the tier degrades to memory-only,
     the request is not harmed, the daemon keeps serving. *)
  Failpoint.set_in Failpoint.default "store.append" Failpoint.Raise;
  Fun.protect ~finally:(fun () -> Failpoint.clear_in Failpoint.default "store.append")
  @@ fun () ->
  Alcotest.(check bool)
    "request during the append fault still ok" true
    (response_ok
       (Core.call core ~client:"f"
          (Protocol.analyze_line ~id:"fault" ~model:(Lazy.force bwr_text) ())));
  Quant_cache.flush cache;
  (match Quant_cache.disk_stats cache with
  | Some d when d.Quant_cache.disk_error <> None -> ()
  | _ -> Alcotest.fail "disk tier did not record the degradation");
  Alcotest.(check bool)
    "daemon serves after the disk fault" true
    (response_ok (Core.call core ~client:"f" (Protocol.simple_line "ping")));
  Core.shutdown core;
  Quant_cache.close cache;
  (* The store file holds exactly the pre-fault records — the failed
     appends never reached it, and reopening finds no corruption. *)
  let reopened = Quant_cache.open_disk path in
  (match Quant_cache.disk_stats reopened with
  | Some d ->
    Alcotest.(check (option string)) "reopen sees no error" None
      d.Quant_cache.disk_error;
    Alcotest.(check int) "exactly the pre-fault records survive" pre
      d.Quant_cache.entries_loaded
  | None -> Alcotest.fail "reopen lost the disk tier");
  Quant_cache.close reopened

(* ------------------------------------------------------------------ *)
(* Self-healing: retry_after clamping, health op, watchdog, idem window *)

let test_clamp_retry_after () =
  let check_clamp label expected raw =
    Alcotest.(check (float 0.0)) label expected (Core.clamp_retry_after raw)
  in
  check_clamp "in-band value passes through" 0.5 0.5;
  check_clamp "floor" 0.05 0.0;
  check_clamp "negative maps to the floor" 0.05 (-3.0);
  check_clamp "ceiling" 60.0 1e9;
  check_clamp "nan maps to the floor" 0.05 Float.nan;
  check_clamp "infinity maps to the ceiling" 60.0 Float.infinity;
  (* Every retry_after on the wire is clamped: saturate a tiny server
     whose EWMA is still zero and check the floor is respected. *)
  let config =
    { Core.default_config with workers = 1; queue_capacity = 1 }
  in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  Failpoint.set_in Failpoint.default "server.handle" ~trigger:(Failpoint.Nth 1)
    (Failpoint.Delay 0.2);
  Fun.protect ~finally:(fun () -> Failpoint.clear_in Failpoint.default "server.handle")
  @@ fun () ->
  let slow_reply, slow_wait = waiter () in
  Core.submit core ~client:"a" ~reply:slow_reply
    (Protocol.analyze_line ~id:"slow" ~model:(Lazy.force pumps_text) ());
  wait_until "worker busy" (fun () -> stat_int core "running" = 1);
  let fill_reply, fill_wait = waiter () in
  Core.submit core ~client:"b" ~reply:fill_reply
    (Protocol.analyze_line ~id:"fill" ~model:(Lazy.force pumps_text) ());
  let rejected =
    Core.call core ~client:"c"
      (Protocol.analyze_line ~id:"rej" ~model:(Lazy.force pumps_text) ())
  in
  Alcotest.(check string) "saturated" "saturated" (error_code rejected);
  (match retry_after rejected with
  | Some ra ->
    Alcotest.(check bool) "clamped into [0.05, 60]" true
      (ra >= 0.05 && ra <= 60.0)
  | None -> Alcotest.fail "saturated without retry_after");
  ignore (slow_wait ());
  ignore (fill_wait ())

let test_health_op () =
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let h = Core.call core ~client:"probe" (Protocol.simple_line "health") in
  Alcotest.(check bool) "ok" true (response_ok h);
  Alcotest.(check (option bool)) "healthy" (Some true)
    (result_bool h "healthy");
  Alcotest.(check (option int)) "workers" (Some 2) (result_int h "workers");
  Alcotest.(check (option int)) "none busy" (Some 0)
    (result_int h "workers_busy");
  Alcotest.(check (option int)) "none lost" (Some 0)
    (result_int h "workers_lost");
  Alcotest.(check (option int)) "queue empty" (Some 0) (result_int h "queued");
  Alcotest.(check bool) "uptime present" true
    (Option.is_some
       (Option.bind (result_field h "uptime_s") Json.to_float))

let test_watchdog_respawns_hung_worker () =
  let config =
    { Core.default_config with workers = 1; watchdog_timeout = Some 0.15 }
  in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let reply, wait = waiter () in
  (* The per-request delay failpoint stalls the worker inside the handler,
     where it emits no heartbeats — indistinguishable from a hang. *)
  Core.submit core ~client:"w" ~reply
    (Protocol.analyze_line ~id:"hung" ~failpoints:"server.handle=delay:0.8"
       ~model:(Lazy.force pumps_text) ());
  let lost = wait () in
  Alcotest.(check string) "declared worker_lost" "worker_lost"
    (error_code lost);
  Alcotest.(check bool) "safe to retry: carries retry_after" true
    (retry_after lost <> None);
  (* The slot was respawned under the same index: a follow-up request is
     served by the fresh domain long before the zombie wakes up. *)
  let after =
    Core.call core ~client:"w"
      (Protocol.analyze_line ~id:"after" ~model:(Lazy.force pumps_text) ())
  in
  Alcotest.(check bool) "fresh worker serves immediately" true
    (response_ok after);
  let h = Core.call core ~client:"w" (Protocol.simple_line "health") in
  Alcotest.(check (option int)) "health counts the lost worker" (Some 1)
    (result_int h "workers_lost");
  Alcotest.(check (option bool)) "pool capacity restored: still healthy"
    (Some true) (result_bool h "healthy");
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "server.worker_lost counted" 1
    (counter_of snap "server.worker_lost");
  (* Let the zombie finish its nap and discover the reply is already
     owned, so shutdown below observes a quiet pool. *)
  Unix.sleepf 0.9

let test_idem_replay_bit_identical () =
  let core = Core.create () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  (* verbose:true makes the response carry wall-clock timing — two real
     executions could never be byte-identical, so byte identity proves
     the second answer came verbatim from the response window. *)
  let line =
    Protocol.analyze_line ~id:"i1" ~idem:"retry-key-1" ~verbose:true
      ~model:(Lazy.force pumps_text) ()
  in
  let r1 = Core.call core ~client:"c" line in
  Alcotest.(check bool) "first execution ok" true (response_ok r1);
  let r2 = Core.call core ~client:"c" line in
  Alcotest.(check string) "retry answered with the verbatim bytes" r1 r2;
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "replay counted" 1 (counter_of snap "server.idem_hits");
  (* The window is keyed by (client, idem): another client with the same
     key gets its own execution. *)
  let r3 = Core.call core ~client:"other" line in
  Alcotest.(check bool) "other client recomputes" true (response_ok r3);
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "no cross-client replay" 1
    (counter_of snap "server.idem_hits")

let test_idem_window_bounded () =
  let config = { Core.default_config with response_window = 2 } in
  let core = Core.create ~config () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let ask idem =
    Core.call core ~client:"c"
      (Protocol.analyze_line ~id:idem ~idem ~model:(Lazy.force pumps_text) ())
  in
  ignore (ask "k1");
  ignore (ask "k2");
  ignore (ask "k3");
  (* k1 was evicted FIFO; k3 is still cached. *)
  ignore (ask "k3");
  ignore (ask "k1");
  let snap = Metrics.snapshot_in (Core.metrics core) in
  Alcotest.(check int) "only the still-windowed key replays" 1
    (counter_of snap "server.idem_hits")

(* ------------------------------------------------------------------ *)
(* Process-level chaos: kill -9 the real daemon binary mid-conversation,
   warm-restart it on the same socket and cache, and drive a retrying
   client straight through the outage. *)

let sdft_bin = "../bin/main.exe"

let spawn_daemon ~sock ~cache ~log =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process sdft_bin
      [|
        sdft_bin; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "2";
        "--cache"; cache;
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let test_daemon_kill9_warm_restart () =
  if not (Sys.file_exists sdft_bin) then
    Alcotest.skip ()
  else
    with_temp_dir @@ fun dir ->
    let sock = Filename.concat dir "chaos.sock" in
    let cache = Filename.concat dir "chaos.store" in
    let model = Lazy.force pumps_text in
    let pid1 =
      spawn_daemon ~sock ~cache ~log:(Filename.concat dir "serve1.log")
    in
    let cl =
      Sdft_server.Client.connect ~timeout:30.0 ~retries:12
        (Sdft_server.Daemon.Unix_sock sock)
    in
    Fun.protect ~finally:(fun () -> Sdft_server.Client.close cl) @@ fun () ->
    let line = Protocol.analyze_line ~id:"chaos" ~idem:"chaos-1" ~model () in
    let r1 = Sdft_server.Client.request cl line in
    Alcotest.(check bool) "first daemon answers" true (response_ok r1);
    (* SIGKILL: no drain, no flush, socket left stale on disk. *)
    Unix.kill pid1 Sys.sigkill;
    ignore (Unix.waitpid [] pid1);
    let pid2 =
      spawn_daemon ~sock ~cache ~log:(Filename.concat dir "serve2.log")
    in
    (* The same client object rides through the outage: broken-socket
       reconnects with backoff until the restarted daemon binds. *)
    let r2 = Sdft_server.Client.request cl line in
    Alcotest.(check string) "answer after kill -9 is bit-identical" r1 r2;
    Alcotest.(check bool) "the outage actually cost retries" true
      (Sdft_server.Client.retries_used cl > 0);
    let bye = Sdft_server.Client.request cl (Protocol.simple_line "shutdown") in
    Alcotest.(check bool) "restarted daemon shuts down gracefully" true
      (response_ok bye);
    ignore (Unix.waitpid [] pid2)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "server"
    [
      ( "codec",
        qcheck
          [
            qcheck_json_parse_total;
            qcheck_json_roundtrip;
            qcheck_request_parse_total;
            qcheck_mutated_frames;
            qcheck_truncated_frames;
            qcheck_analyze_roundtrip;
          ]
        @ [
            Alcotest.test_case "structured rejections" `Quick
              test_codec_rejections;
            Alcotest.test_case "retired engine spellings rejected" `Quick
              test_codec_retired_engines;
          ] );
      ( "server",
        [
          Alcotest.test_case "inline ops and malformed traffic" `Quick
            test_ops_smoke;
          Alcotest.test_case "graceful shutdown semantics" `Quick
            test_shutdown_semantics;
          Alcotest.test_case "8-client soak bit-identical to sequential" `Quick
            test_soak_concurrent_vs_sequential;
        ] );
      ( "admission",
        [
          Alcotest.test_case "saturation rejects with retry_after" `Quick
            test_saturation_retry_after;
          Alcotest.test_case "per-client quota" `Quick test_client_quota;
        ] );
      ( "faults",
        [
          Alcotest.test_case "poisoned request cannot kill the daemon" `Quick
            test_crash_contained;
          Alcotest.test_case "per-request failpoint degrades in place" `Quick
            test_request_failpoint_degrades_in_place;
          Alcotest.test_case "crashed solver domain is contained" `Quick
            test_parallel_worker_crash;
          Alcotest.test_case "failing disk append leaves the store intact"
            `Quick test_store_append_fault_keeps_store_intact;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "retry_after is clamped to [floor, ceiling]"
            `Quick test_clamp_retry_after;
          Alcotest.test_case "health op reports pool state" `Quick
            test_health_op;
          Alcotest.test_case "watchdog respawns a hung worker" `Quick
            test_watchdog_respawns_hung_worker;
          Alcotest.test_case "idempotent retry replays verbatim bytes" `Quick
            test_idem_replay_bit_identical;
          Alcotest.test_case "response window is bounded FIFO" `Quick
            test_idem_window_bounded;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill -9 daemon, warm restart, client rides through"
            `Quick test_daemon_kill9_warm_restart;
        ] );
    ]
