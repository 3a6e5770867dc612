(* The transport-free server engine. See server_core.mli for the contract;
   the short version: admission (quota + bounded queue) happens on the
   caller's thread and never blocks, analyses run on a fixed pool of worker
   domains, and every request gets a private Obs context and Guard so the
   only state shared between concurrent requests is the Quant_cache —
   which is designed for exactly that. *)

module Json = Sdft_util.Json
module Metrics = Sdft_util.Metrics
module Obs = Sdft_util.Obs
module Failpoint = Sdft_util.Failpoint

type config = {
  workers : int;
  queue_capacity : int;
  client_quota : int;
  max_request_bytes : int;
  max_request_domains : int;
  default_deadline : float option;
  default_mem_limit_mb : int option;
  watchdog_timeout : float option;
  response_window : int;
}

let default_config =
  {
    workers = 2;
    queue_capacity = 64;
    client_quota = 16;
    max_request_bytes = 8 * 1024 * 1024;
    max_request_domains = 1;
    default_deadline = None;
    default_mem_limit_mb = None;
    watchdog_timeout = None;
    response_window = 128;
  }

type job = {
  req : Protocol.request;
  params : Protocol.analyze_params;
  job_client : string;
  reply : string -> unit;
}

(* One in-flight request on a worker slot. [answered] is the ownership
   token: whoever wins the false->true CAS — the worker finishing normally,
   or the watchdog declaring the worker lost — replies and does the
   accounting, exactly once. The loser does neither. *)
type running = { r_job : job; r_started : float; answered : bool Atomic.t }

(* One pool slot. A slot whose worker the watchdog declared hung is
   [retired] and replaced by a fresh slot (and domain) at the same pool
   index; the zombie domain, if it ever wakes up, sees [retired], skips the
   already-done reply/accounting, and exits its loop without taking more
   work. *)
type slot = {
  slot_index : int;
  hb : float Atomic.t; (* last heartbeat (Unix time) *)
  current : running option Atomic.t;
  retired : bool Atomic.t;
  mutable dom : unit Domain.t option; (* None only during construction *)
}

type handles = {
  c_requests : Metrics.counter;
  c_ok : Metrics.counter;
  c_errors : Metrics.counter;
  c_rejected_saturated : Metrics.counter;
  c_rejected_quota : Metrics.counter;
  c_bad_requests : Metrics.counter;
  c_crashes : Metrics.counter;
  c_worker_lost : Metrics.counter;
  c_idem_hits : Metrics.counter;
  g_queue_depth : Metrics.gauge;
  h_request_s : Metrics.histogram;
}

type t = {
  config : config;
  cache : Quant_cache.t;
  queue : job Request_queue.t;
  server_metrics : Metrics.t;
  h : handles;
  (* Admission state, all under [admission]: per-client in-flight counts
     (queued + running) and the EWMA of request durations that prices
     [retry_after]. *)
  admission : Mutex.t;
  in_flight : (string, int) Hashtbl.t;
  mutable ewma_request_s : float;
  mutable shutdown_hook : unit -> unit;
  mutable hook_fired : bool;
  mutable joined : bool;
  running : int Atomic.t;
  served : int Atomic.t;
  ok_count : int Atomic.t;
  error_count : int Atomic.t;
  worker_lost_count : int Atomic.t;
  stop : bool Atomic.t;
  started_at : float;
  (* The worker pool, under [admission]: one live slot per index; retired
     slots are replaced in place. Zombie domains are remembered but never
     joined (they may be hung forever — that is why they were retired). *)
  mutable slots : slot array;
  mutable zombies : unit Domain.t list;
  mutable watchdog : Thread.t option;
  watchdog_stop : bool Atomic.t;
  (* Recent-response window for idempotent retries, under [idem_lock]:
     (client, idem key) -> verbatim response line, bounded FIFO. *)
  idem_lock : Mutex.t;
  idem_table : (string, string) Hashtbl.t;
  idem_order : string Queue.t;
}

let handles_of m =
  {
    c_requests = Metrics.counter_in m "server.requests";
    c_ok = Metrics.counter_in m "server.ok";
    c_errors = Metrics.counter_in m "server.errors";
    c_rejected_saturated = Metrics.counter_in m "server.rejected_saturated";
    c_rejected_quota = Metrics.counter_in m "server.rejected_quota";
    c_bad_requests = Metrics.counter_in m "server.bad_requests";
    c_crashes = Metrics.counter_in m "server.crashes";
    c_worker_lost = Metrics.counter_in m "server.worker_lost";
    c_idem_hits = Metrics.counter_in m "server.idem_hits";
    g_queue_depth = Metrics.gauge_max_in m "server.queue_depth";
    h_request_s = Metrics.histogram_in m "server.request_s";
  }

let with_admission t f =
  Mutex.lock t.admission;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.admission) f

(* ------------------------------------------------------------------ *)
(* Recent-response window: (client, idem) -> verbatim response line. A
   client that retries after a broken connection or a worker_lost gets the
   exact bytes of the original answer instead of a recomputation. *)

let idem_key ~client idem = client ^ "\x00" ^ idem

let idem_lookup t key =
  Mutex.lock t.idem_lock;
  let r = Hashtbl.find_opt t.idem_table key in
  Mutex.unlock t.idem_lock;
  r

let idem_store t key response =
  if t.config.response_window > 0 then begin
    Mutex.lock t.idem_lock;
    if not (Hashtbl.mem t.idem_table key) then begin
      Hashtbl.replace t.idem_table key response;
      Queue.push key t.idem_order;
      while Queue.length t.idem_order > t.config.response_window do
        Hashtbl.remove t.idem_table (Queue.pop t.idem_order)
      done
    end;
    Mutex.unlock t.idem_lock
  end

(* ------------------------------------------------------------------ *)
(* retry_after pricing. Clamped so a structured rejection can never tell a
   client "retry immediately" (a stampede) or "retry in an hour" (an
   outage of our own making) because the EWMA went weird. *)

let retry_after_floor = 0.05
let retry_after_cap = 60.0

let clamp_retry_after ra =
  if Float.is_nan ra then retry_after_floor
  else Float.max retry_after_floor (Float.min retry_after_cap ra)

(* ------------------------------------------------------------------ *)
(* Request execution (worker side). *)

let bad_request ~id message =
  Protocol.error_response ~id
    { Protocol.code = Protocol.Bad_request; message; retry_after = None }

let add_int buf n = Buffer.add_string buf (string_of_int n)
let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let render_result t ~id ~verbose (r : Sdft_analysis.result) =
  Protocol.ok_response ~id (fun buf ->
      let first = ref true in
      let field name emit =
        if not !first then Buffer.add_char buf ',';
        first := false;
        Json.add_string buf name;
        Buffer.add_char buf ':';
        emit buf
      in
      let b = r.Sdft_analysis.budget in
      field "total" (fun b' -> Json.add_float b' r.Sdft_analysis.total);
      field "lower" (fun b' -> Json.add_float b' b.Sdft_analysis.lower);
      field "upper" (fun b' -> Json.add_float b' b.Sdft_analysis.upper);
      field "vacuous" (fun b' -> add_bool b' b.Sdft_analysis.vacuous);
      field "engine" (fun b' ->
          Json.add_string b'
            (Sdft_analysis.engine_name r.Sdft_analysis.engine_used));
      field "n_cutsets" (fun b' -> add_int b' r.Sdft_analysis.n_cutsets);
      field "n_dynamic_cutsets" (fun b' ->
          add_int b' r.Sdft_analysis.n_dynamic_cutsets);
      field "n_fallbacks" (fun b' -> add_int b' r.Sdft_analysis.n_fallbacks);
      field "pruned_mass" (fun b' ->
          Json.add_float b' b.Sdft_analysis.pruned_mass);
      field "below_cutoff_mass" (fun b' ->
          Json.add_float b' b.Sdft_analysis.below_cutoff_mass);
      field "solver_error_total" (fun b' ->
          Json.add_float b' b.Sdft_analysis.solver_error_total);
      field "rare_event_slack" (fun b' ->
          Json.add_float b' b.Sdft_analysis.rare_event_slack);
      let degraded = Sdft_analysis.degraded r in
      field "degraded" (fun b' -> add_bool b' degraded);
      field "degradation" (fun b' ->
          Json.add_string b'
            (if degraded then Sdft_analysis.degradation_description r else ""));
      if verbose then begin
        (* Timing and cache traffic are inherently nondeterministic and
           excluded from the bit-identity guarantee; gated so default
           responses stay reproducible. *)
        field "timing" (fun b' ->
            Buffer.add_string b' "{\"mcs_s\":";
            Json.add_float b' r.Sdft_analysis.mcs_generation_seconds;
            Buffer.add_string b' ",\"quant_s\":";
            Json.add_float b' r.Sdft_analysis.quantification_seconds;
            Buffer.add_char b' '}');
        field "cache" (fun b' ->
            Buffer.add_string b' "{\"hits\":";
            add_int b' (Quant_cache.hits t.cache);
            Buffer.add_string b' ",\"misses\":";
            add_int b' (Quant_cache.misses t.cache);
            Buffer.add_char b' '}')
      end)

(* Run one admitted analyze request. Returns (ok, response line). Never
   raises: the worker loop wraps it once more as a belt-and-braces
   backstop, but every anticipated failure is converted to a structured
   error here. *)
let run_analyze t (slot : slot) (job : job) =
  let id = job.req.Protocol.id in
  let p = job.params in
  let obs =
    (* The worker's liveness heartbeat rides the analysis guard's amortized
       probe: a worker making solver progress keeps its slot's [hb] fresh
       without any extra instrumentation in the hot loops. Only armed when
       a watchdog is actually watching. *)
    match t.config.watchdog_timeout with
    | Some _ ->
      Obs.with_on_probe (Obs.create ()) (fun () ->
          Atomic.set slot.hb (Unix.gettimeofday ()))
    | None -> Obs.create ()
  in
  let arm_result =
    match job.req.Protocol.failpoints with
    | None -> Ok ()
    | Some spec -> (
      try
        Failpoint.configure_string_in obs.Obs.failpoints spec;
        Ok ()
      with Failure m -> Error ("bad failpoints spec: " ^ m))
  in
  match arm_result with
  | Error m -> (false, bad_request ~id m)
  | Ok () -> (
    match
      (* The server's own injection site, hit on both the request's
         private registry (per-request specs) and the default one
         (operator-wide SDFT_FAILPOINTS). *)
      Failpoint.hit_in obs.Obs.failpoints "server.handle";
      Failpoint.hit_in Failpoint.default "server.handle";
      Sdft_format.of_string p.Protocol.model_text
    with
    | exception Sdft_format.Error m ->
      (false, bad_request ~id ("model parse error: " ^ m))
    | exception Failure m ->
      (false, bad_request ~id ("model parse error: " ^ m))
    | sd ->
      let dflt = Sdft_analysis.default_options in
      let options =
        {
          dflt with
          Sdft_analysis.horizon = p.Protocol.horizon;
          cutoff = p.Protocol.cutoff;
          engine = p.Protocol.engine;
          domains = min p.Protocol.domains t.config.max_request_domains;
          max_cutset_order = p.Protocol.max_order;
          deadline =
            (match p.Protocol.deadline with
            | Some _ as d -> d
            | None -> t.config.default_deadline);
          mem_limit_mb =
            (match p.Protocol.mem_limit_mb with
            | Some _ as m -> m
            | None -> t.config.default_mem_limit_mb);
        }
      in
      let r = Sdft_analysis.analyze ~options ~cache:t.cache ~obs sd in
      (true, render_result t ~id ~verbose:p.Protocol.verbose r))

(* Everything that must happen exactly once per completed request, after
   the reply: request metrics, quota release, throughput counters. Owned
   by whoever won the [answered] CAS — the worker on a normal finish, the
   watchdog on a takeover (which skips the EWMA update: a watchdog timeout
   says nothing about how long healthy requests take). *)
let finish_accounting t ~ok ~dt ~update_ewma (job : job) =
  Metrics.observe t.h.h_request_s dt;
  Metrics.incr (if ok then t.h.c_ok else t.h.c_errors);
  Atomic.incr (if ok then t.ok_count else t.error_count);
  with_admission t (fun () ->
      (match Hashtbl.find_opt t.in_flight job.job_client with
      | Some n when n > 1 -> Hashtbl.replace t.in_flight job.job_client (n - 1)
      | Some _ -> Hashtbl.remove t.in_flight job.job_client
      | None -> ());
      if update_ewma then
        t.ewma_request_s <- (0.8 *. t.ewma_request_s) +. (0.2 *. dt));
  Atomic.decr t.running;
  Atomic.incr t.served

let worker_loop t slot =
  let rec loop () =
    if Atomic.get slot.retired then ()
    else
      match Request_queue.take t.queue with
      | None -> ()
      | Some job ->
        let t0 = Unix.gettimeofday () in
        let r =
          { r_job = job; r_started = t0; answered = Atomic.make false }
        in
        Atomic.set slot.hb t0;
        Atomic.set slot.current (Some r);
        Atomic.incr t.running;
        let ok, response =
          try run_analyze t slot job
          with exn ->
            Metrics.incr t.h.c_crashes;
            ( false,
              Protocol.error_response ~id:job.req.Protocol.id
                {
                  Protocol.code = Protocol.Crash;
                  message =
                    "contained internal error: " ^ Printexc.to_string exn;
                  retry_after = None;
                } )
        in
        Atomic.set slot.current None;
        if Atomic.compare_and_set r.answered false true then begin
          (match job.req.Protocol.idem with
          | Some idem ->
            (* Only real completions enter the window — a watchdog
               worker_lost must not be replayed to a retry. Stored
               before the reply goes out: the moment the client can see
               the answer, a retry of the same key replays it. *)
            idem_store t (idem_key ~client:job.job_client idem) response
          | None -> ());
          (try job.reply response with _ -> ());
          finish_accounting t ~ok
            ~dt:(Unix.gettimeofday () -. t0)
            ~update_ewma:true job
        end;
        (* If the watchdog won the CAS it also retired this slot and
           spawned a replacement: this (now zombie) domain must not steal
           jobs from the fresh worker. *)
        if Atomic.get slot.retired then () else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Inline ops. *)

let uptime t = Unix.gettimeofday () -. t.started_at

let prometheus t =
  (* Roll the shared cache's own atomics up into gauges so one scrape of
     the server registry carries the whole picture. *)
  let set name v =
    Metrics.set (Metrics.gauge_in t.server_metrics name) (float_of_int v)
  in
  set "server.cache_hits" (Quant_cache.hits t.cache);
  set "server.cache_misses" (Quant_cache.misses t.cache);
  (match Quant_cache.disk_stats t.cache with
  | None -> ()
  | Some d ->
    set "server.cache_disk_hits" d.Quant_cache.disk_hits;
    set "server.cache_disk_entries_loaded" d.Quant_cache.entries_loaded;
    set "server.cache_disk_appends" d.Quant_cache.appends;
    set "server.cache_breaker_open"
      (if d.Quant_cache.breaker = "closed" then 0 else 1);
    set "server.cache_breaker_opens" d.Quant_cache.breaker_opens;
    set "server.cache_breaker_probes" d.Quant_cache.breaker_probes;
    set "server.cache_breaker_recoveries" d.Quant_cache.breaker_recoveries);
  Metrics.to_prometheus_in t.server_metrics

let stats_response t ~id =
  Protocol.ok_response ~id (fun buf ->
      let first = ref true in
      let field name emit =
        if not !first then Buffer.add_char buf ',';
        first := false;
        Json.add_string buf name;
        Buffer.add_char buf ':';
        emit buf
      in
      field "uptime_s" (fun b -> Json.add_float b (uptime t));
      field "workers" (fun b -> add_int b t.config.workers);
      field "queue_capacity" (fun b -> add_int b t.config.queue_capacity);
      field "client_quota" (fun b -> add_int b t.config.client_quota);
      field "queued" (fun b -> add_int b (Request_queue.length t.queue));
      field "running" (fun b -> add_int b (Atomic.get t.running));
      field "served" (fun b -> add_int b (Atomic.get t.served));
      field "ok" (fun b -> add_int b (Atomic.get t.ok_count));
      field "errors" (fun b -> add_int b (Atomic.get t.error_count));
      field "cache" (fun b ->
          Buffer.add_string b "{\"hits\":";
          add_int b (Quant_cache.hits t.cache);
          Buffer.add_string b ",\"misses\":";
          add_int b (Quant_cache.misses t.cache);
          Buffer.add_string b ",\"disk\":";
          (match Quant_cache.disk_stats t.cache with
          | None -> Buffer.add_string b "null"
          | Some d ->
            Buffer.add_string b "{\"path\":";
            Json.add_string b d.Quant_cache.disk_path;
            Buffer.add_string b ",\"read_only\":";
            add_bool b d.Quant_cache.read_only;
            Buffer.add_string b ",\"entries_loaded\":";
            add_int b d.Quant_cache.entries_loaded;
            Buffer.add_string b ",\"disk_hits\":";
            add_int b d.Quant_cache.disk_hits;
            Buffer.add_string b ",\"appends\":";
            add_int b d.Quant_cache.appends;
            Buffer.add_string b ",\"breaker\":";
            Json.add_string b d.Quant_cache.breaker;
            Buffer.add_string b ",\"breaker_opens\":";
            add_int b d.Quant_cache.breaker_opens;
            Buffer.add_string b ",\"breaker_recoveries\":";
            add_int b d.Quant_cache.breaker_recoveries;
            Buffer.add_string b ",\"error\":";
            (match d.Quant_cache.disk_error with
            | None -> Buffer.add_string b "null"
            | Some e -> Json.add_string b e);
            Buffer.add_char b '}');
          Buffer.add_char b '}'))

(* The health op: a cheap liveness snapshot an external prober (or the
   retrying client) can poll without touching the analysis pipeline. *)
let health_response t ~id =
  Protocol.ok_response ~id (fun buf ->
      let first = ref true in
      let field name emit =
        if not !first then Buffer.add_char buf ',';
        first := false;
        Json.add_string buf name;
        Buffer.add_char buf ':';
        emit buf
      in
      field "healthy" (fun b -> add_bool b (not (Atomic.get t.stop)));
      field "uptime_s" (fun b -> Json.add_float b (uptime t));
      field "workers" (fun b -> add_int b (Array.length t.slots));
      field "workers_busy" (fun b -> add_int b (Atomic.get t.running));
      field "workers_lost" (fun b ->
          add_int b (Atomic.get t.worker_lost_count));
      field "watchdog_s" (fun b ->
          match t.config.watchdog_timeout with
          | None -> Buffer.add_string b "null"
          | Some s -> Json.add_float b s);
      field "queued" (fun b -> add_int b (Request_queue.length t.queue));
      field "queue_capacity" (fun b -> add_int b t.config.queue_capacity);
      field "breaker" (fun b ->
          match Quant_cache.disk_stats t.cache with
          | None -> Buffer.add_string b "null"
          | Some d -> Json.add_string b d.Quant_cache.breaker);
      field "disk_error" (fun b ->
          match Quant_cache.disk_stats t.cache with
          | Some { Quant_cache.disk_error = Some e; _ } -> Json.add_string b e
          | _ -> Buffer.add_string b "null"))

(* ------------------------------------------------------------------ *)
(* Admission (caller side). *)

(* Estimate, under the admission lock, how long until a pool slot frees
   up: backlog ahead of a hypothetical retry, priced at the EWMA request
   duration, divided across the pool. [clamp_retry_after] keeps the
   estimate inside [retry_after_floor, retry_after_cap] whatever the EWMA
   and backlog arithmetic produce. *)
let retry_after_locked t =
  let backlog = Request_queue.length t.queue + Atomic.get t.running in
  clamp_retry_after
    (t.ewma_request_s *. float_of_int (backlog + 1)
    /. float_of_int t.config.workers)

let reject ~id code message retry_after =
  Protocol.error_response ~id
    { Protocol.code = code; message; retry_after }

let fire_shutdown_hook t =
  let hook =
    with_admission t (fun () ->
        if t.hook_fired then None
        else begin
          t.hook_fired <- true;
          Some t.shutdown_hook
        end)
  in
  match hook with None -> () | Some f -> ( try f () with _ -> ())

let submit t ~client ~reply line =
  let reply s = try reply s with _ -> () in
  Metrics.incr t.h.c_requests;
  if Atomic.get t.stop then
    reply
      (reject ~id:Json.Null Protocol.Shutting_down
         "server is shutting down" None)
  else
    match
      Protocol.parse_request ~max_bytes:t.config.max_request_bytes line
    with
    | Error (id, err) ->
      Metrics.incr t.h.c_bad_requests;
      reply (Protocol.error_response ~id err)
    | Ok req -> (
      let id = req.Protocol.id in
      let client = Option.value req.Protocol.client ~default:client in
      match req.Protocol.op with
      | Protocol.Ping ->
        reply
          (Protocol.ok_response ~id (fun b ->
               Buffer.add_string b "\"pong\":true"))
      | Protocol.Metrics ->
        let text = prometheus t in
        reply
          (Protocol.ok_response ~id (fun b ->
               Buffer.add_string b "\"prometheus\":";
               Json.add_string b text))
      | Protocol.Stats -> reply (stats_response t ~id)
      | Protocol.Health -> reply (health_response t ~id)
      | Protocol.Shutdown ->
        Atomic.set t.stop true;
        (* Reply before waking the transport's shutdown hook so the
           requesting client sees its acknowledgement. *)
        reply
          (Protocol.ok_response ~id (fun b ->
               Buffer.add_string b "\"stopping\":true"));
        fire_shutdown_hook t
      | Protocol.Analyze params ->
        (* Idempotent retry: if this (client, idem) pair already completed
           inside the response window, answer with the verbatim original
           response line — bit-identical, and no recomputation. *)
        let replayed =
          match req.Protocol.idem with
          | None -> false
          | Some idem -> (
            match idem_lookup t (idem_key ~client idem) with
            | Some cached ->
              Metrics.incr t.h.c_idem_hits;
              reply cached;
              true
            | None -> false)
        in
        if replayed then ()
        else
        let job = { req; params; job_client = client; reply } in
        let verdict =
          with_admission t (fun () ->
              let inflight =
                Option.value (Hashtbl.find_opt t.in_flight client) ~default:0
              in
              if inflight >= t.config.client_quota then
                `Quota (retry_after_locked t)
              else
                match Request_queue.try_push t.queue job with
                | `Ok depth ->
                  Hashtbl.replace t.in_flight client (inflight + 1);
                  `Admitted depth
                | `Full -> `Full (retry_after_locked t)
                | `Closed -> `Closed)
        in
        (match verdict with
        | `Admitted depth ->
          Metrics.set_max t.h.g_queue_depth (float_of_int depth)
        | `Quota ra ->
          Metrics.incr t.h.c_rejected_quota;
          reply
            (reject ~id Protocol.Quota_exceeded
               (Printf.sprintf
                  "client %S already has %d requests in flight" client
                  t.config.client_quota)
               (Some ra))
        | `Full ra ->
          Metrics.incr t.h.c_rejected_saturated;
          reply
            (reject ~id Protocol.Saturated
               (Printf.sprintf "admission queue full (%d requests)"
                  t.config.queue_capacity)
               (Some ra))
        | `Closed ->
          reply
            (reject ~id Protocol.Shutting_down "server is shutting down"
               None)))

let call t ~client line =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
  submit t ~client line ~reply:(fun s ->
      Mutex.lock m;
      slot := Some s;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  let r = Option.get !slot in
  Mutex.unlock m;
  r

(* ------------------------------------------------------------------ *)
(* Watchdog. *)

let make_slot index =
  {
    slot_index = index;
    hb = Atomic.make (Unix.gettimeofday ());
    current = Atomic.make None;
    retired = Atomic.make false;
    dom = None;
  }

(* The watchdog declared [slot]'s worker hung on [r]. The CAS decides the
   race against a worker that finishes at the same instant: the winner
   replies and accounts, exactly once. On a win the slot is retired, its
   request failed with a structured worker_lost (safe to retry — the
   result was never sent), and a fresh slot+domain takes the pool index so
   capacity is restored without a restart. *)
let take_over t slot r =
  if Atomic.compare_and_set r.answered false true then begin
    let job = r.r_job in
    Atomic.set slot.retired true;
    Metrics.incr t.h.c_worker_lost;
    Atomic.incr t.worker_lost_count;
    let ra = with_admission t (fun () -> retry_after_locked t) in
    (try
       job.reply
         (Protocol.error_response ~id:job.req.Protocol.id
            {
              Protocol.code = Protocol.Worker_lost;
              message =
                "worker executing this request was declared hung; its slot \
                 was respawned and the request may be retried";
              retry_after = Some ra;
            })
     with _ -> ());
    finish_accounting t ~ok:false
      ~dt:(Unix.gettimeofday () -. r.r_started)
      ~update_ewma:false job;
    with_admission t (fun () ->
        (match slot.dom with
        | Some d -> t.zombies <- d :: t.zombies
        | None -> ());
        let fresh = make_slot slot.slot_index in
        t.slots.(slot.slot_index) <- fresh;
        fresh.dom <- Some (Domain.spawn (fun () -> worker_loop t fresh)))
  end

let watchdog_loop t timeout =
  let period = Float.max 0.02 (Float.min 0.5 (timeout /. 4.0)) in
  while not (Atomic.get t.watchdog_stop) do
    Thread.delay period;
    if not (Atomic.get t.watchdog_stop) then begin
      let now = Unix.gettimeofday () in
      let slots = with_admission t (fun () -> Array.copy t.slots) in
      Array.iter
        (fun slot ->
          if not (Atomic.get slot.retired) then
            match Atomic.get slot.current with
            | Some r when now -. Atomic.get slot.hb > timeout ->
              take_over t slot r
            | _ -> ())
        slots
    end
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle. *)

let create ?(config = default_config) ?cache () =
  let cache = match cache with Some c -> c | None -> Quant_cache.create () in
  let server_metrics = Metrics.create () in
  let t =
    {
      config;
      cache;
      queue = Request_queue.create ~capacity:config.queue_capacity;
      server_metrics;
      h = handles_of server_metrics;
      admission = Mutex.create ();
      in_flight = Hashtbl.create 16;
      ewma_request_s = 0.1;
      shutdown_hook = (fun () -> ());
      hook_fired = false;
      joined = false;
      running = Atomic.make 0;
      served = Atomic.make 0;
      ok_count = Atomic.make 0;
      error_count = Atomic.make 0;
      worker_lost_count = Atomic.make 0;
      stop = Atomic.make false;
      started_at = Unix.gettimeofday ();
      slots = [||];
      zombies = [];
      watchdog = None;
      watchdog_stop = Atomic.make false;
      idem_lock = Mutex.create ();
      idem_table = Hashtbl.create 64;
      idem_order = Queue.create ();
    }
  in
  t.slots <- Array.init (max 1 config.workers) make_slot;
  Array.iter
    (fun s -> s.dom <- Some (Domain.spawn (fun () -> worker_loop t s)))
    t.slots;
  (match config.watchdog_timeout with
  | Some timeout when timeout > 0.0 ->
    t.watchdog <- Some (Thread.create (fun () -> watchdog_loop t timeout) ())
  | _ -> ());
  t

let stopping t = Atomic.get t.stop

let set_on_shutdown_request t f =
  with_admission t (fun () -> t.shutdown_hook <- f)

let request_shutdown t =
  Atomic.set t.stop true;
  fire_shutdown_hook t

let shutdown t =
  Atomic.set t.stop true;
  Request_queue.close t.queue;
  Atomic.set t.watchdog_stop true;
  let to_join, wd =
    with_admission t (fun () ->
        if t.joined then ([], None)
        else begin
          t.joined <- true;
          (Array.to_list t.slots, t.watchdog)
        end)
  in
  (match wd with Some th -> Thread.join th | None -> ());
  (* Join only live slots. Zombie domains were retired precisely because
     they may never return; joining them would hang the shutdown on the
     fault the watchdog already routed around. *)
  List.iter
    (fun s ->
      if not (Atomic.get s.retired) then
        match s.dom with Some d -> Domain.join d | None -> ())
    to_join;
  Quant_cache.flush t.cache

let cache t = t.cache

let metrics t = t.server_metrics
