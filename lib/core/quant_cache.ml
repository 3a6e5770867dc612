module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Obs = Sdft_util.Obs
module Store = Sdft_util.Store
module Canon = Sdft_util.Canon

(* The disk store is process-level state, shared by every analysis that
   uses the cache: its instruments and instants go to the process-global
   registry and sink. *)
let m_appends = Metrics.counter_in Metrics.default "cache.appends"
let m_load_ms = Metrics.gauge_in Metrics.default "cache.load_ms"
let m_breaker_opens = Metrics.counter_in Metrics.default "cache.breaker_opens"
let m_breaker_recoveries =
  Metrics.counter_in Metrics.default "cache.breaker_recoveries"

let disk_instant name = Trace.instant ~sink:Trace.default name

let g = Metrics.group ()
let m_hits = Metrics.counter g "quant_cache.hits"
let m_misses = Metrics.counter g "quant_cache.misses"
let m_disk_hits = Metrics.counter g "cache.disk_hits"
let m_disk_misses = Metrics.counter g "cache.disk_misses"
let m_lookup_s = Metrics.histogram g "cache.lookup_s"

(* What a hit must reproduce: the dynamic probability plus the provenance of
   the solve that produced it (chain size, transition count, DTMC steps),
   so cached and uncached results stay indistinguishable downstream except
   for the [from_cache] flag and the wall time. *)
type entry = Cutset_model.solution = {
  e_prob : float;
  e_states : int;
  e_transitions : int;
  e_steps : int;
}

(* Where a table entry came from: a solve of this process, or the disk
   store / a seeded manifest. Only the distinction feeds the disk-tier
   observability counters; the values are interchangeable. *)
type origin = Fresh | Warm

(* The disk tier's circuit breaker. [Closed] appends normally; repeated
   failures (or a single failure that tore the Store handle down) trip it
   to [Open], where appends are skipped — but remembered — for a
   deterministic cooldown counted in skipped appends; the cooldown's end
   moves to [Half_open], and the next append becomes a probe that reopens
   the file if necessary, reconciles it with the table, and closes the
   breaker on success. Each failed probe doubles the next cooldown (capped),
   so a persistently broken disk costs one probe per ~cooldown appends
   instead of one syscall failure per solve. *)
type breaker_state = Closed | Open | Half_open

type disk = {
  dk_path : string;
  entries_loaded : int;
  load_ms : float;
  mutable dk_store : Store.t option; (* None while torn down *)
  mutable dk_state : breaker_state;
  mutable failures : int; (* consecutive failures while Closed *)
  mutable skips_left : int; (* Open: appends left before Half_open *)
  mutable episodes : int; (* consecutive Open episodes, for the backoff *)
  mutable opens : int; (* times the breaker tripped, ever *)
  mutable probes : int;
  mutable recoveries : int;
  mutable appends_before : int; (* appends on store handles since closed *)
  mutable lost : (string * entry) list; (* skipped/failed, newest first *)
  mutable dk_closed : bool; (* [close] was called; tier is done *)
  mutable disk_error : string option;
}

type t = {
  table : (string, entry * origin) Hashtbl.t;
  lock : Mutex.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  disk_hit_count : int Atomic.t;
  disk_miss_count : int Atomic.t;
  disk_lock : Mutex.t;
      (* serializes the disk tier's breaker state machine (all the mutable
         [disk] fields and their check-then-act transitions) under
         multi-domain callers — the analysis server runs many analyses over
         one shared cache. Separate from [lock] so a slow append never
         blocks lookups; lock order is [lock] strictly inside [disk_lock]
         (the probe's reconcile step), never the other way. Store's own
         mutex covers the raw IO. *)
  mutable disk : disk option;
  points : (string, Checkpoint.point) Hashtbl.t;
      (* completed sweep points known to be in the store (loaded at open or
         appended since), under [lock] *)
}

let create () =
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    disk_hit_count = Atomic.make 0;
    disk_miss_count = Atomic.make 0;
    disk_lock = Mutex.create ();
    disk = None;
    points = Hashtbl.create 8;
  }

let hits t = Atomic.get t.hit_count

let misses t = Atomic.get t.miss_count

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Deterministic DFS encoding with first-visit indices in place of names.
   Equal fingerprints imply isomorphic models, hence equal p~; the converse
   need not hold (a reordered-but-equal model just misses).

   The encoding is binary and self-delimiting (see Canon): every node opens
   with a tag byte, every list is preceded by its length, ints are varints
   and floats their raw bits. First visits carry no id — a decoder counts
   them — and revisits name the id:

     gate    'G' kind n_inputs input*  |  'g' id
     kind    '&'  |  '|'  |  '>' k
     basic   'S' prob  |  'D' dbe trigger  |  'b' id
     trigger 'u'  |  't' gate
     dbe     n_states  n_init (state mass)*  n_trans (src dst rate)*
             ('s' flags*  |  'w' (flags partner)* )   one per state

   with flags bit 0 = failed and bit 1 = switched off; the partner is the
   state's image under on/off. *)
let encode_dbe buf d =
  let n = Dbe.n_states d in
  Canon.add_int buf n;
  let init = Dbe.init d in
  Canon.add_int buf (List.length init);
  List.iter
    (fun (s, m) ->
      Canon.add_int buf s;
      Canon.add_float buf m)
    init;
  let chain = Dbe.chain d in
  Canon.add_int buf (Ctmc.n_transitions chain);
  Ctmc.iter_transitions chain (fun src dst r ->
      Canon.add_int buf src;
      Canon.add_int buf dst;
      Canon.add_float buf r);
  let failed s = if Dbe.is_failed d s then 1 else 0 in
  if Dbe.is_triggered_model d then begin
    Buffer.add_char buf 'w';
    for s = 0 to n - 1 do
      match Dbe.mode_of d s with
      | Dbe.Off ->
        Buffer.add_char buf (Char.unsafe_chr (failed s lor 2));
        Canon.add_int buf (Dbe.switch_on d s)
      | Dbe.On ->
        Buffer.add_char buf (Char.unsafe_chr (failed s));
        Canon.add_int buf (Dbe.switch_off d s)
    done
  end
  else begin
    Buffer.add_char buf 's';
    for s = 0 to n - 1 do
      Buffer.add_char buf (Char.unsafe_chr (failed s))
    done
  end

let fingerprint sd =
  let tree = Sdft.tree sd in
  let buf = Buffer.create 512 in
  let basic_ids = Array.make (Fault_tree.n_basics tree) (-1) in
  let gate_ids = Array.make (Fault_tree.n_gates tree) (-1) in
  let next_basic = ref 0 and next_gate = ref 0 in
  let rec emit_basic b =
    let id = basic_ids.(b) in
    if id >= 0 then begin
      Buffer.add_char buf 'b';
      Canon.add_int buf id
    end
    else begin
      basic_ids.(b) <- !next_basic;
      incr next_basic;
      if Sdft.is_dynamic sd b then begin
        Buffer.add_char buf 'D';
        encode_dbe buf (Sdft.dbe sd b);
        match Sdft.trigger_of sd b with
        | None -> Buffer.add_char buf 'u'
        | Some g ->
          Buffer.add_char buf 't';
          emit_gate g
      end
      else begin
        Buffer.add_char buf 'S';
        Canon.add_float buf (Fault_tree.prob tree b)
      end
    end
  and emit_gate g =
    let id = gate_ids.(g) in
    if id >= 0 then begin
      Buffer.add_char buf 'g';
      Canon.add_int buf id
    end
    else begin
      gate_ids.(g) <- !next_gate;
      incr next_gate;
      Buffer.add_char buf 'G';
      (match Fault_tree.gate_kind tree g with
      | Fault_tree.And -> Buffer.add_char buf '&'
      | Fault_tree.Or -> Buffer.add_char buf '|'
      | Fault_tree.Atleast k ->
        Buffer.add_char buf '>';
        Canon.add_int buf k);
      let inputs = Fault_tree.gate_inputs tree g in
      Canon.add_int buf (Array.length inputs);
      Array.iter
        (function
          | Fault_tree.B b -> emit_basic b
          | Fault_tree.G g' -> emit_gate g')
        inputs
    end
  in
  (* Trigger gates hang off dynamic basics rather than off the top gate, so
     the recursion through [emit_basic] is what reaches them. *)
  emit_gate (Fault_tree.top tree);
  Buffer.contents buf

(* A key is the fingerprint's fixed-width hex digest followed by the
   numerical parameters. Equal digests stand in for equal fingerprints:
   MD5 collisions between 128-bit digests of non-adversarial model
   encodings are negligible next to the solver's own epsilon, and the
   digest also becomes the stable on-disk key. Floats print as hex
   literals, which tell every two of them apart. *)
let key_suffix ~engine_tag ~epsilon ~max_states ~horizon =
  Printf.sprintf "|e=%h|s=%d|t=%h%s" epsilon max_states horizon
    (if engine_tag = "" then "" else "|eng=" ^ engine_tag)

let digest sd_c = Digest.to_hex (Digest.string (fingerprint sd_c))

let key_of ?(engine_tag = "") ~epsilon ~max_states ~horizon =
  let suffix = key_suffix ~engine_tag ~epsilon ~max_states ~horizon in
  fun (cm : Cutset_model.t) ->
    Option.map (fun sd_c -> digest sd_c ^ suffix) cm.Cutset_model.model

(* ------------------------------------------------------------------ *)
(* Record codec for the disk store: one record per cache entry,
   [<key length>:<key>|<prob %h>|<states>|<transitions>|<steps>]. The key
   is length-prefixed (it contains '|' itself); floats travel as hex
   literals, which round-trip bit-exactly. *)

let encode_record key e =
  Printf.sprintf "%d:%s|%h|%d|%d|%d" (String.length key) key e.e_prob
    e.e_states e.e_transitions e.e_steps

let decode_record s =
  match String.index_opt s ':' with
  | None -> None
  | Some colon -> (
    match int_of_string_opt (String.sub s 0 colon) with
    | None -> None
    | Some key_len ->
      if key_len < 0 || colon + 1 + key_len > String.length s then None
      else
        let key = String.sub s (colon + 1) key_len in
        let rest_off = colon + 1 + key_len in
        let rest =
          String.sub s rest_off (String.length s - rest_off)
        in
        (match String.split_on_char '|' rest with
        | [ ""; prob; states; transitions; steps ] -> (
          match
            ( float_of_string_opt prob,
              int_of_string_opt states,
              int_of_string_opt transitions,
              int_of_string_opt steps )
          with
          | Some e_prob, Some e_states, Some e_transitions, Some e_steps ->
            Some (key, { e_prob; e_states; e_transitions; e_steps })
          | _ -> None)
        | _ -> None))

(* A store holds two record kinds: cache entries, and completed sweep
   points tagged "p|". An entry payload starts with its decimal key
   length, so the tag never collides with one. *)
type record = Entry of string * entry | Point of Checkpoint.point

let point_tag = "p|"

let encode = function
  | Entry (key, e) -> encode_record key e
  | Point p -> point_tag ^ Checkpoint.encode_point p

let decode r =
  if String.starts_with ~prefix:point_tag r then
    let tag = String.length point_tag in
    Option.map
      (fun p -> Point p)
      (Checkpoint.decode_point (String.sub r tag (String.length r - tag)))
  else Option.map (fun (key, e) -> Entry (key, e)) (decode_record r)

(* ------------------------------------------------------------------ *)
(* Disk tier. *)

(* The header stamp: the record-codec revision concatenated with the
   build-time digest of the solver sources (Solver_stamp is generated by a
   dune rule over transient/ctmc/product/cutset-model/cache/point-codec
   sources), so both a solver change and a key- or codec-format change
   invalidate existing stores. *)
let version_stamp = "qcache/3 " ^ Solver_stamp.stamp

let io_error_message = function
  | Sys_error m -> Some m
  | Unix.Unix_error (err, fn, arg) ->
    Some (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))
  | Sdft_util.Failpoint.Injected site -> Some ("injected failure at " ^ site)
  | Failure m -> Some m
  | _ -> None

(* The breaker's constants: consecutive Closed-state failures that trip
   it, skipped appends before the first re-probe, and the cap that
   doubling cooldown never passes. *)
let breaker_threshold = 3
let breaker_cooldown = 4
let breaker_cooldown_cap = 64

let open_disk path =
  let t = create () in
  let t0 = Sdft_util.Timer.start () in
  (match Store.open_ ~stamp:version_stamp path with
  | store, records ->
    let loaded = ref 0 in
    List.iter
      (fun r ->
        match decode r with
        | Some (Entry (key, e)) ->
          if not (Hashtbl.mem t.table key) then begin
            Hashtbl.add t.table key (e, Warm);
            incr loaded
          end
        | Some (Point p) -> Hashtbl.replace t.points p.Checkpoint.pt_key p
        | None -> ())
      records;
    let load_ms = Sdft_util.Timer.elapsed_s t0 *. 1000.0 in
    Metrics.set m_load_ms load_ms;
    disk_instant "cache.disk_load";
    t.disk <-
      Some
        {
          dk_path = path;
          entries_loaded = !loaded;
          load_ms;
          dk_store = Some store;
          dk_state = Closed;
          failures = 0;
          skips_left = 0;
          episodes = 0;
          opens = 0;
          probes = 0;
          recoveries = 0;
          appends_before = 0;
          lost = [];
          dk_closed = false;
          disk_error = None;
        }
  | exception e -> (
    (* A store that cannot even be opened must never take the analysis
       down: degrade to a plain memory-only cache (no breaker — there is
       nothing to recover to) and stay silent beyond disk_stats = None. *)
    match io_error_message e with
    | Some _ -> ()
    | None -> raise e));
  t

type disk_stats = {
  disk_path : string;
  read_only : bool;
  entries_loaded : int;
  load_ms : float;
  disk_hits : int;
  disk_misses : int;
  appends : int;
  disk_error : string option;
  breaker : string;
  breaker_opens : int;
  breaker_probes : int;
  breaker_recoveries : int;
}

let breaker_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let disk_locked t f =
  Mutex.lock t.disk_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.disk_lock) f

let disk_stats t =
  match t.disk with
  | None -> None
  | Some d ->
    (* The whole snapshot is taken under disk_lock so a reading domain
       never sees an error message without the breaker transition's other
       effects, or vice versa. *)
    disk_locked t (fun () ->
        Some
          {
            disk_path = d.dk_path;
            read_only =
              (match d.dk_store with
              | Some s -> Store.mode s = Store.Reader
              | None -> false);
            entries_loaded = d.entries_loaded;
            load_ms = d.load_ms;
            disk_hits = Atomic.get t.disk_hit_count;
            disk_misses = Atomic.get t.disk_miss_count;
            appends =
              (d.appends_before
              + match d.dk_store with Some s -> Store.appended s | None -> 0);
            disk_error = d.disk_error;
            breaker = breaker_name d.dk_state;
            breaker_opens = d.opens;
            breaker_probes = d.probes;
            breaker_recoveries = d.recoveries;
          })

(* Breaker transitions below all run under [disk_lock]. *)

let cooldown_for episodes =
  let rec go c i =
    if i >= episodes || c >= breaker_cooldown_cap then c
    else go (c * 2) (i + 1)
  in
  min breaker_cooldown_cap (go breaker_cooldown 1)

let trip d msg =
  d.dk_state <- Open;
  d.episodes <- d.episodes + 1;
  d.skips_left <- cooldown_for d.episodes;
  d.failures <- 0;
  d.opens <- d.opens + 1;
  d.disk_error <- Some msg;
  Metrics.incr m_breaker_opens;
  disk_instant "cache.breaker_open"

(* Drop a store handle that can no longer append (fd torn down by Store on
   a real IO error, or externally closed), folding its append tally into
   the running total so [disk_stats] stays monotone across reopens. *)
let shed_torn_store d =
  match d.dk_store with
  | Some s when not (Store.healthy s) ->
    d.appends_before <- d.appends_before + Store.appended s;
    (try Store.close s with _ -> ());
    d.dk_store <- None
  | _ -> ()

let note_append_failure d msg =
  let torn =
    match d.dk_store with Some s -> not (Store.healthy s) | None -> true
  in
  if torn then begin
    (* The handle is gone: no point counting towards the threshold, every
       further append would fail the same way. Trip immediately; the
       half-open probe will reopen the file. *)
    shed_torn_store d;
    trip d msg
  end
  else begin
    d.failures <- d.failures + 1;
    if d.failures >= breaker_threshold then trip d msg
  end

(* Only entries are remembered for the probe's backfill: a lost point
   record just means a resume re-runs that point. *)
let remember d = function
  | Entry (key, e) -> d.lost <- (key, e) :: d.lost
  | Point _ -> ()

(* Returns whether [r] reached the store. A point record is flushed at
   once (pushing out the entries batched before it too): it certifies a
   row the caller is about to print, so it must be durable first. *)
let closed_append d r =
  match d.dk_store with
  | None ->
    remember d r;
    note_append_failure d "store handle lost";
    false
  | Some s -> (
    match
      let written = Store.append s (encode r) in
      (match r with Point _ when written -> Store.flush s | _ -> ());
      written
    with
    | true ->
      d.failures <- 0;
      Metrics.incr m_appends;
      true
    | false ->
      (* Reader mode drops appends by design (someone else owns the file);
         a Writer refusing means its fd is gone — that is a failure. *)
      if Store.mode s = Store.Writer then begin
        remember d r;
        note_append_failure d "store handle closed"
      end;
      false
    | exception exn -> (
      match io_error_message exn with
      | Some m ->
        remember d r;
        note_append_failure d m;
        false
      | None -> raise exn))

(* The half-open probe: ensure a live store (reopening the file when the
   old handle was torn down), reconcile file and table, then write the
   pending record and flush so the recovery is durable. Success closes the
   breaker; failure re-opens it with a doubled cooldown. *)
let probe t d pending =
  d.probes <- d.probes + 1;
  disk_instant "cache.breaker_probe";
  match
    let store, file_keys =
      match d.dk_store with
      | Some s when Store.healthy s -> (s, None)
      | _ ->
        shed_torn_store d;
        let s, records =
          Store.open_ ~stamp:version_stamp d.dk_path
        in
        d.dk_store <- Some s;
        let keys = Hashtbl.create (List.length records + 1) in
        List.iter
          (fun r ->
            match decode r with
            | Some (Entry (k, re)) ->
              Hashtbl.replace keys k ();
              (* Records flushed by the previous handle that this process
                 has not seen (none today, but cheap insurance) merge in
                 as warm entries. Taking [lock] inside [disk_lock] is the
                 sanctioned order. *)
              locked t (fun () ->
                  if not (Hashtbl.mem t.table k) then
                    Hashtbl.add t.table k (re, Warm))
            | Some (Point _) | None -> ())
          records;
        (s, Some keys)
    in
    (* Backfill what the file is missing: after a reopen, diff the table
       against the file's own key set (covers whole batches lost to the
       crash); on a still-live handle, exactly the records the breaker saw
       fail or skipped while open. *)
    let to_append =
      match file_keys with
      | Some keys ->
        locked t (fun () ->
            Hashtbl.fold
              (fun k (entry, _) acc ->
                if Hashtbl.mem keys k then acc else (k, entry) :: acc)
              t.table [])
      | None -> List.rev d.lost
    in
    List.iter
      (fun (k, entry) ->
        if Store.append store (encode_record k entry) then
          Metrics.incr m_appends)
      to_append;
    let written = Store.append store (encode pending) in
    if written then Metrics.incr m_appends;
    Store.flush store;
    written
  with
  | written ->
    d.dk_state <- Closed;
    d.failures <- 0;
    d.episodes <- 0;
    d.lost <- [];
    d.recoveries <- d.recoveries + 1;
    d.disk_error <- None;
    Metrics.incr m_breaker_recoveries;
    disk_instant "cache.breaker_recover";
    written
  | exception exn -> (
    match io_error_message exn with
    | Some m ->
      remember d pending;
      shed_torn_store d;
      trip d m (* episodes grows: the next cooldown doubles *);
      false
    | None -> raise exn)

(* Append one record, returning whether it reached the store; never
   raises on IO trouble. The [store.append] failpoint (inside
   Store.append) and real IO errors both land in the breaker. Under
   [disk_lock] so every check-then-act breaker transition is atomic with
   respect to concurrent appends from other domains. *)
let disk_append t r =
  match t.disk with
  | None -> false
  | Some d ->
    disk_locked t (fun () ->
        if d.dk_closed then false
        else
          match d.dk_state with
          | Closed -> closed_append d r
          | Open ->
            remember d r;
            d.skips_left <- d.skips_left - 1;
            if d.skips_left <= 0 then begin
              d.dk_state <- Half_open;
              disk_instant "cache.breaker_half_open"
            end;
            false
          | Half_open -> probe t d r)

let flush t =
  match t.disk with
  | None -> ()
  | Some d ->
    disk_locked t (fun () ->
        if (not d.dk_closed) && d.dk_state = Closed then
          match d.dk_store with
          | None -> ()
          | Some s -> (
            match Store.flush s with
            | () -> disk_instant "cache.disk_flush"
            | exception exn -> (
              match io_error_message exn with
              | Some m -> note_append_failure d m
              | None -> raise exn)))

let close t =
  match t.disk with
  | None -> ()
  | Some d ->
    disk_locked t (fun () ->
        if not d.dk_closed then begin
          d.dk_closed <- true;
          match d.dk_store with
          | None -> ()
          | Some s -> (
            match Store.close s with
            | () -> disk_instant "cache.disk_flush"
            | exception exn -> (
              match io_error_message exn with
              | Some m -> d.disk_error <- Some m
              | None -> raise exn))
        end)

let export t =
  locked t (fun () ->
      Hashtbl.fold (fun key (e, _) acc -> (key, e) :: acc) t.table [])

let seed t entries =
  let added = ref 0 in
  locked t (fun () ->
      List.iter
        (fun (key, e) ->
          if not (Hashtbl.mem t.table key) then begin
            Hashtbl.add t.table key (e, Warm);
            incr added
          end)
        entries);
  (* Seeded entries also reach the attached store (outside the table lock:
     Store has its own), so a manifest used once warms the file for every
     later run. *)
  List.iter
    (fun (key, e) ->
      let fresh = locked t (fun () -> Hashtbl.find_opt t.table key) in
      match fresh with
      | Some (e', Warm) when e' == e -> ignore (disk_append t (Entry (key, e)))
      | _ -> ())
    entries;
  !added

let find t key = locked t (fun () -> Hashtbl.find_opt t.table key)

let store t key v =
  let added =
    locked t (fun () ->
        if Hashtbl.mem t.table key then false
        else begin
          Hashtbl.add t.table key (v, Fresh);
          true
        end)
  in
  if added then ignore (disk_append t (Entry (key, v)))

let find_point t key = locked t (fun () -> Hashtbl.find_opt t.points key)

let record_point t p =
  let key = p.Checkpoint.pt_key in
  let known = find_point t key in
  (* A re-run over the same store finds its certificate already there and
     leaves the file as it is. *)
  let stored =
    match known with
    | Some q -> Checkpoint.encode_point q = Checkpoint.encode_point p
    | None -> false
  in
  if (not stored) && disk_append t (Point p) then
    locked t (fun () -> Hashtbl.replace t.points key p)

let count_hit t ~obs origin =
  let m = obs.Obs.metrics in
  Atomic.incr t.hit_count;
  Metrics.incr (Metrics.get m m_hits);
  if origin = Warm then begin
    Atomic.incr t.disk_hit_count;
    Metrics.incr (Metrics.get m m_disk_hits)
  end;
  Trace.instant ~sink:obs.Obs.trace "quant_cache.hit"

let lookup t ~suffix ?(obs = Obs.default) digest =
  let t0 = Sdft_util.Timer.start () in
  (* Resolved before the lookup site, which may raise: the module's
     instruments are listed from the first lookup on either way. *)
  let lookup_s = Metrics.get obs.Obs.metrics m_lookup_s in
  Sdft_util.Failpoint.hit_in obs.Obs.failpoints "cache.lookup";
  let key = digest ^ suffix in
  let looked_up = find t key in
  Metrics.observe lookup_s (Sdft_util.Timer.elapsed_s t0);
  ( key,
    match looked_up with
    | Some (e, origin) ->
      count_hit t ~obs origin;
      Some e
    | None -> None )

let answer t ?(obs = Obs.default) key solve =
  match find t key with
  | Some (e, origin) ->
    count_hit t ~obs origin;
    (e, true)
  | None ->
    let m = obs.Obs.metrics in
    Atomic.incr t.miss_count;
    Metrics.incr (Metrics.get m m_misses);
    if t.disk <> None then begin
      Atomic.incr t.disk_miss_count;
      Metrics.incr (Metrics.get m m_disk_misses)
    end;
    Trace.instant ~sink:obs.Obs.trace "quant_cache.miss";
    (* Too_many_states and guard interrupts propagate before anything is
       stored, so a limit can never poison the cache with a partial value. *)
    let e = solve () in
    store t key e;
    (e, false)
