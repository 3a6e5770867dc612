(* Tests for the persistent quantification store: the Store framing layer
   (truncation, corruption, stamp invalidation, reader/writer locking) and
   the Quant_cache disk tier built on top of it.

   The robustness invariant exercised throughout: whatever happens to the
   store file — torn tails, flipped bytes, stale solver stamps, concurrent
   readers — the analysis result is bit-identical to an uncached run. A
   damaged store may cost re-solves; it must never change a certified
   interval. *)

module Store = Sdft_util.Store
module Failpoint = Sdft_util.Failpoint

let fp = Failpoint.default

let temp_store () =
  let path = Filename.temp_file "sdft_test" ".store" in
  Sys.remove path;
  path

let with_store f =
  let path = temp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_records path stamp records =
  let s, loaded = Store.open_ ~stamp path in
  Alcotest.(check (list string)) "fresh store is empty" [] loaded;
  List.iter (fun r -> ignore (Store.append s r)) records;
  Store.close s

let read_records path stamp =
  let s, loaded = Store.open_ ~stamp path in
  Store.close s;
  loaded

let records = [ "alpha"; "beta-record"; "gamma with spaces"; ""; "delta" ]

(* Store framing *)

let test_store_round_trip () =
  with_store (fun path ->
      write_records path "stamp/1" records;
      Alcotest.(check (list string))
        "records survive reopen" records
        (read_records path "stamp/1"))

let test_store_truncated_tail () =
  with_store (fun path ->
      write_records path "stamp/1" records;
      (* Chop a few bytes off the last frame: the torn record must be
         discarded, every earlier one preserved. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      Alcotest.(check (list string))
        "valid prefix survives truncation"
        [ "alpha"; "beta-record"; "gamma with spaces"; "" ]
        (read_records path "stamp/1");
      (* The writer repairs the tail: appending after the truncation leaves
         a fully valid file again. *)
      let s, _ = Store.open_ ~stamp:"stamp/1" path in
      Alcotest.(check bool) "writer mode" true (Store.mode s = Store.Writer);
      ignore (Store.append s "epsilon");
      Store.close s;
      Alcotest.(check (list string))
        "repaired tail"
        [ "alpha"; "beta-record"; "gamma with spaces"; ""; "epsilon" ]
        (read_records path "stamp/1"))

(* A read-only snapshot opened while a writer is mid-append must see a
   valid prefix of the log — flushed frames exactly, and never a torn
   frame even if half-written bytes are already on disk. *)
let test_store_reader_snapshot_of_active_writer () =
  with_store (fun path ->
      let w, _ = Store.open_ ~batch:1 ~stamp:"stamp/1" path in
      Fun.protect ~finally:(fun () -> Store.close w) @@ fun () ->
      Alcotest.(check bool) "first handle writes" true
        (Store.mode w = Store.Writer);
      ignore (Store.append w "one");
      ignore (Store.append w "two");
      (* Snapshot while the writer holds the lock: read-only, flushed
         prefix visible. *)
      let r, loaded = Store.open_ ~stamp:"stamp/1" path in
      Alcotest.(check bool) "snapshot is read-only" true
        (Store.mode r = Store.Reader);
      Alcotest.(check (list string)) "snapshot sees the flushed prefix"
        [ "one"; "two" ] loaded;
      Store.close r;
      ignore (Store.append w "three");
      (* Simulate catching the writer mid-write: raw half-frame bytes on
         the tail (a length header promising more than exists). The
         snapshot must stop at the last whole frame, not surface garbage
         — and must not truncate the live writer's file. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let torn = "\xff\xff\xff\x7f torn frame" in
      ignore (Unix.write_substring fd torn 0 (String.length torn));
      Unix.close fd;
      let size_before = (Unix.stat path).Unix.st_size in
      let r2, loaded2 = Store.open_ ~stamp:"stamp/1" path in
      Alcotest.(check (list string))
        "torn tail invisible, whole frames intact"
        [ "one"; "two"; "three" ] loaded2;
      Store.close r2;
      Alcotest.(check int) "reader did not truncate the writer's file"
        size_before
        (Unix.stat path).Unix.st_size)

let test_store_flipped_byte () =
  with_store (fun path ->
      write_records path "stamp/1" records;
      (* Flip one byte inside the payload of the fourth frame (the empty
         record contributes an 8-byte frame; aim into "gamma..."). The CRC
         catches it and scanning stops there. *)
      let content = In_channel.with_open_bin path In_channel.input_all in
      let needle = "gamma" in
      let pos =
        let rec find i =
          if String.sub content i (String.length needle) = needle then i
          else find (i + 1)
        in
        find 0
      in
      let corrupted = Bytes.of_string content in
      Bytes.set corrupted pos (Char.chr (Char.code content.[pos] lxor 0x40));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc corrupted);
      Alcotest.(check (list string))
        "records before the corruption survive"
        [ "alpha"; "beta-record" ]
        (read_records path "stamp/1"))

let test_store_stamp_mismatch () =
  with_store (fun path ->
      write_records path "stamp/1" records;
      (* A different stamp invalidates the whole file... *)
      Alcotest.(check (list string))
        "no records under a new stamp" []
        (read_records path "stamp/2");
      (* ...and the writer has rewritten it under the new stamp, so the old
         stamp now yields nothing either. *)
      Alcotest.(check (list string))
        "old stamp invalidated" []
        (read_records path "stamp/1");
      write_records path "stamp/2" [ "fresh" ];
      Alcotest.(check (list string))
        "new-stamp records persist" [ "fresh" ]
        (read_records path "stamp/2"))

let test_store_reader_sharing () =
  with_store (fun path ->
      let writer, _ = Store.open_ ~stamp:"stamp/1" path in
      ignore (Store.append writer "one");
      ignore (Store.append writer "two");
      Store.flush writer;
      ignore (Store.append writer "unflushed");
      (* A second same-path handle while the writer is live degrades to a
         read-only snapshot of the flushed records. *)
      let reader, snapshot = Store.open_ ~stamp:"stamp/1" path in
      Alcotest.(check bool) "reader mode" true (Store.mode reader = Store.Reader);
      Alcotest.(check (list string))
        "snapshot holds flushed records" [ "one"; "two" ] snapshot;
      Alcotest.(check bool)
        "reader appends are dropped" false
        (Store.append reader "stowaway");
      Store.close reader;
      Store.close writer;
      Alcotest.(check (list string))
        "writer records all land" [ "one"; "two"; "unflushed" ]
        (read_records path "stamp/1"))

let test_store_crc32_vector () =
  (* IEEE CRC-32 known-answer test ("123456789" -> 0xCBF43926). *)
  Alcotest.(check int)
    "check vector" 0xCBF43926
    (Store.crc32 "123456789")

(* Quant_cache disk tier: every degraded store still yields bit-identical
   analysis results. *)

let check_same_result label (a : Sdft_analysis.result)
    (b : Sdft_analysis.result) =
  Alcotest.(check bool)
    (label ^ ": total") true
    (a.Sdft_analysis.total = b.Sdft_analysis.total);
  Alcotest.(check bool)
    (label ^ ": lower") true
    (a.Sdft_analysis.budget.Sdft_analysis.lower
    = b.Sdft_analysis.budget.Sdft_analysis.lower);
  Alcotest.(check bool)
    (label ^ ": upper") true
    (a.Sdft_analysis.budget.Sdft_analysis.upper
    = b.Sdft_analysis.budget.Sdft_analysis.upper)

let test_cache_warm_reload_identical () =
  with_store (fun path ->
      let sd = Pumps.sd_tree () in
      let baseline = Sdft_analysis.analyze sd in
      let cold = Quant_cache.open_disk path in
      let r_cold = Sdft_analysis.analyze ~cache:cold sd in
      Quant_cache.close cold;
      let stats =
        match Quant_cache.disk_stats cold with
        | Some s -> s
        | None -> Alcotest.fail "disk tier missing after open_disk"
      in
      Alcotest.(check bool) "cold run appends" true (stats.appends > 0);
      let warm = Quant_cache.open_disk path in
      let r_warm = Sdft_analysis.analyze ~cache:warm sd in
      Quant_cache.close warm;
      let wstats = Option.get (Quant_cache.disk_stats warm) in
      Alcotest.(check int)
        "warm load sees every append" stats.appends wstats.entries_loaded;
      Alcotest.(check int) "warm run never misses" 0 wstats.disk_misses;
      Alcotest.(check bool) "warm run hits disk" true (wstats.disk_hits > 0);
      check_same_result "cold vs uncached" r_cold baseline;
      check_same_result "warm vs uncached" r_warm baseline)

let damaged_store_still_identical damage =
  with_store (fun path ->
      let sd = Pumps.sd_tree () in
      let baseline = Sdft_analysis.analyze sd in
      let cold = Quant_cache.open_disk path in
      ignore (Sdft_analysis.analyze ~cache:cold sd);
      Quant_cache.close cold;
      damage path;
      let warm = Quant_cache.open_disk path in
      let r = Sdft_analysis.analyze ~cache:warm sd in
      Quant_cache.close warm;
      check_same_result "damaged store" r baseline)

let test_cache_truncated_store_identical () =
  damaged_store_still_identical (fun path ->
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size / 2);
      Unix.close fd)

let test_cache_corrupted_store_identical () =
  damaged_store_still_identical (fun path ->
      let content = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string content in
      (* Flip a byte in the middle of the record area, past the header. *)
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b))

let test_cache_stamp_mismatch_identical () =
  damaged_store_still_identical (fun path ->
      (* Rewrite the file under a foreign stamp: Quant_cache must treat it
         as empty rather than replay foreign records. *)
      let s, _ = Store.open_ ~stamp:"some-other-solver/0" path in
      ignore (Store.append s "not a cache record at all");
      Store.close s)

let test_cache_readonly_sharing () =
  with_store (fun path ->
      let sd = Pumps.sd_tree () in
      let baseline = Sdft_analysis.analyze sd in
      let writer = Quant_cache.open_disk path in
      ignore (Sdft_analysis.analyze ~cache:writer sd);
      Quant_cache.flush writer;
      (* Second handle while the writer is open: read-only snapshot, but the
         analysis through it is still exact. *)
      let reader = Quant_cache.open_disk path in
      let rstats = Option.get (Quant_cache.disk_stats reader) in
      Alcotest.(check bool) "reader is read-only" true rstats.read_only;
      Alcotest.(check bool)
        "reader sees flushed entries" true
        (rstats.entries_loaded > 0);
      let r = Sdft_analysis.analyze ~cache:reader sd in
      let rstats = Option.get (Quant_cache.disk_stats reader) in
      Alcotest.(check int) "reader never appends" 0 rstats.appends;
      Quant_cache.close reader;
      Quant_cache.close writer;
      check_same_result "read-only sharing" r baseline)

let test_cache_open_failure_degrades () =
  Failpoint.configure_string_in fp "store.open=raise";
  Fun.protect ~finally:(fun () -> Failpoint.clear_all_in fp) (fun () ->
      let sd = Pumps.sd_tree () in
      let baseline = Sdft_analysis.analyze sd in
      let cache = Quant_cache.open_disk "/nonexistent/dir/q.store" in
      Alcotest.(check bool)
        "degrades to memory-only" true
        (Quant_cache.disk_stats cache = None);
      let r = Sdft_analysis.analyze ~cache sd in
      Quant_cache.close cache;
      check_same_result "open failure" r baseline)

let test_cache_append_failure_degrades () =
  with_store (fun path ->
      let sd = Pumps.sd_tree () in
      let baseline = Sdft_analysis.analyze sd in
      Failpoint.configure_string_in fp "store.append=raise";
      Fun.protect ~finally:(fun () -> Failpoint.clear_all_in fp) (fun () ->
          let cache = Quant_cache.open_disk path in
          let r = Sdft_analysis.analyze ~cache sd in
          Quant_cache.close cache;
          let stats = Option.get (Quant_cache.disk_stats cache) in
          Alcotest.(check bool)
            "tier reported broken" true
            (stats.disk_error <> None);
          check_same_result "append failure" r baseline))

(* Circuit breaker: injected append failures trip the breaker; after
   the deterministic cooldown the half-open probe heals the tier in place
   — same process, no reopen by the caller — and backfills every record
   that failed or was skipped while the breaker was open. The BWR study
   (repairs and every trigger site, as [sdft gen bwr] writes it) appends
   21 records at 24 h, so at the breaker's threshold 3 and cooldown 4 the
   walk is: appends 1-3 fail (trip), appends 4-7 skipped (cooldown ends),
   append 8 probes and recovers, appends 9-21 go through the closed
   breaker. *)
let bwr =
  lazy
    (Bwr.build
       {
         Bwr.default_config with
         repair_rate = Some 0.1;
         triggers = Bwr.all_trigger_sites;
       })

let test_cache_breaker_recovers_in_place () =
  with_store (fun path ->
      let sd = Lazy.force bwr in
      let baseline = Sdft_analysis.analyze sd in
      Failpoint.configure_string_in fp "store.append=raise@first:3";
      Fun.protect ~finally:(fun () -> Failpoint.clear_all_in fp) (fun () ->
          let cache = Quant_cache.open_disk path in
          let r = Sdft_analysis.analyze ~cache sd in
          check_same_result "result unharmed by the breaker cycle" r baseline;
          let s = Option.get (Quant_cache.disk_stats cache) in
          Alcotest.(check string) "breaker closed again" "closed"
            s.Quant_cache.breaker;
          Alcotest.(check int) "tripped once" 1 s.Quant_cache.breaker_opens;
          Alcotest.(check int) "probed once" 1 s.Quant_cache.breaker_probes;
          Alcotest.(check int) "recovered once" 1
            s.Quant_cache.breaker_recoveries;
          Alcotest.(check (option string)) "error cleared by the recovery"
            None s.Quant_cache.disk_error;
          Alcotest.(check int) "failed and skipped appends backfilled" 21
            s.Quant_cache.appends;
          Quant_cache.close cache;
          (* Nothing was lost: a warm reopen loads every record, including
             the seven that originally failed or were skipped. *)
          let warm = Quant_cache.open_disk path in
          let ws = Option.get (Quant_cache.disk_stats warm) in
          Alcotest.(check int) "every entry reached the disk" 21
            ws.Quant_cache.entries_loaded;
          Quant_cache.close warm))

(* A persistent fault leaves the breaker open with the failure recorded —
   the signal [report_disk_cache] and the server surface as degraded. On
   BWR's 21 appends the walk passes two failed probes (appends 8 and 17). *)
let test_cache_breaker_stays_open_under_persistent_fault () =
  with_store (fun path ->
      let sd = Lazy.force bwr in
      Failpoint.configure_string_in fp "store.append=raise";
      Fun.protect ~finally:(fun () -> Failpoint.clear_all_in fp) (fun () ->
          let cache = Quant_cache.open_disk path in
          ignore (Sdft_analysis.analyze ~cache sd);
          let s = Option.get (Quant_cache.disk_stats cache) in
          Alcotest.(check bool) "breaker not closed" true
            (s.Quant_cache.breaker <> "closed");
          Alcotest.(check bool) "failure recorded" true
            (s.Quant_cache.disk_error <> None);
          Alcotest.(check int) "nothing appended" 0 s.Quant_cache.appends;
          Quant_cache.close cache))

(* Resumable sweeps: completed-point records in the cache's own store. *)

let sweep_options_at horizons =
  List.map
    (fun horizon -> { Sdft_analysis.default_options with horizon })
    horizons

let sweep_horizons = [ 6.0; 12.0; 18.0 ]

let check_point_matches_golden label (p : Checkpoint.point)
    (g : Sdft_analysis.sweep_point) =
  Alcotest.(check bool) (label ^ ": total bit-identical") true
    (p.Checkpoint.pt_total = g.Sdft_analysis.sweep_result.Sdft_analysis.total);
  Alcotest.(check bool) (label ^ ": lower bit-identical") true
    (p.Checkpoint.pt_lower
    = g.Sdft_analysis.sweep_result.Sdft_analysis.budget.Sdft_analysis.lower);
  Alcotest.(check bool) (label ^ ": upper bit-identical") true
    (p.Checkpoint.pt_upper
    = g.Sdft_analysis.sweep_result.Sdft_analysis.budget.Sdft_analysis.upper);
  Alcotest.(check int) (label ^ ": cutsets")
    g.Sdft_analysis.sweep_result.Sdft_analysis.n_cutsets
    p.Checkpoint.pt_n_cutsets

let test_checkpoint_point_codec () =
  let roundtrip p =
    match Checkpoint.decode_point (Checkpoint.encode_point p) with
    | None -> Alcotest.fail "point failed to decode"
    | Some p' -> Alcotest.(check bool) "point round-trips" true (p = p')
  in
  roundtrip
    {
      Checkpoint.pt_key = "abc123";
      pt_horizon = 24.0;
      pt_total = 3.5216110815998225e-04;
      pt_lower = 1.9787536570744333e-04;
      pt_upper = 3.5216110916598228e-04;
      pt_vacuous = false;
      pt_n_cutsets = 5;
      pt_n_dynamic = 3;
      pt_degraded = None;
    };
  (* The degradation description is free text — it may contain the field
     separator and must still round-trip. *)
  roundtrip
    {
      Checkpoint.pt_key = "k";
      pt_horizon = 1e-300;
      pt_total = Float.min_float;
      pt_lower = 0.0;
      pt_upper = 1.0;
      pt_vacuous = true;
      pt_n_cutsets = 0;
      pt_n_dynamic = 0;
      pt_degraded = Some "deadline expired | 3 fallbacks | cutoff";
    };
  Alcotest.(check (option Alcotest.reject)) "garbage rejects" None
    (Checkpoint.decode_point "p|not|a|point")

(* A resumable sweep (not resuming) over [horizons] into the store at
   [path], closed afterwards. Stopping it short of the full horizon set
   stands in for a crash after the last point it ran. *)
let sweep_into sd path horizons =
  let cache = Quant_cache.open_disk path in
  let items, _ =
    Sdft_analysis.sweep_checkpointed ~cache ~resume:false sd
      (sweep_options_at horizons)
  in
  Quant_cache.close cache;
  (items, cache)

let n_certified cache sd =
  List.length
    (List.filter
       (fun o ->
         Quant_cache.find_point cache (Sdft_analysis.point_key sd o) <> None)
       (sweep_options_at sweep_horizons))

let check_items_match_golden items golden =
  List.iter2
    (fun item (g : Sdft_analysis.sweep_point) ->
      match item with
      | Sdft_analysis.Sweep_run p ->
        Alcotest.(check bool) "run point bit-identical" true
          (p.Sdft_analysis.sweep_result.Sdft_analysis.total
          = g.Sdft_analysis.sweep_result.Sdft_analysis.total)
      | Sdft_analysis.Sweep_skipped p ->
        check_point_matches_golden "skipped point" p g)
    items golden

let test_checkpoint_resume_bit_identical () =
  let sd = Pumps.sd_tree () in
  let golden, _ = Sdft_analysis.sweep sd (sweep_options_at sweep_horizons) in
  with_store (fun path ->
      ignore (sweep_into sd path [ List.hd sweep_horizons ]);
      (* Resume over the full horizon set from the same store. *)
      let cache = Quant_cache.open_disk path in
      Alcotest.(check int) "one certified point in the store" 1
        (n_certified cache sd);
      Alcotest.(check bool) "warm entries in the store" true
        ((Option.get (Quant_cache.disk_stats cache)).Quant_cache.entries_loaded
        > 0);
      let items, _ =
        Sdft_analysis.sweep_checkpointed ~cache ~resume:true sd
          (sweep_options_at sweep_horizons)
      in
      Quant_cache.close cache;
      (match items with
      | [ Sdft_analysis.Sweep_skipped _; Sdft_analysis.Sweep_run _;
          Sdft_analysis.Sweep_run _ ] ->
        check_items_match_golden items golden
      | _ ->
        Alcotest.failf "expected skip+run+run, got %d items"
          (List.length items));
      (* The resumed run only quantified the two unfinished points. *)
      Alcotest.(check int) "only unfinished points quantified" 6
        (Quant_cache.misses cache))

let test_checkpoint_torn_tail_reruns_last_point () =
  let sd = Pumps.sd_tree () in
  let golden, _ = Sdft_analysis.sweep sd (sweep_options_at sweep_horizons) in
  with_store (fun path ->
      ignore (sweep_into sd path [ List.hd sweep_horizons ]);
      (* SIGKILL mid-write: the last frame (the point record) is torn. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let cache = Quant_cache.open_disk path in
      Alcotest.(check int) "torn point certificate discarded" 0
        (n_certified cache sd);
      let items, _ =
        Sdft_analysis.sweep_checkpointed ~cache ~resume:true sd
          (sweep_options_at sweep_horizons)
      in
      Quant_cache.close cache;
      (* Every point re-runs (the torn certificate cannot be trusted), but
         the surviving cache entries still make the replay bit-identical. *)
      List.iter
        (function
          | Sdft_analysis.Sweep_run _ -> ()
          | Sdft_analysis.Sweep_skipped _ ->
            Alcotest.fail "no point should be trusted after the torn tail")
        items;
      check_items_match_golden items golden)

(* A resumed sweep's progress shows only the phases of the points it runs,
   each ending at its total: the certified point is in the printed rows,
   not in a phase of its own. *)
let test_checkpoint_resume_progress () =
  let sd = Pumps.sd_tree () in
  with_store (fun path ->
      ignore (sweep_into sd path [ 6.0 ]);
      let lines = ref [] in
      let progress =
        Sdft_util.Progress.create ~interval:0.0
          ~emit:(fun l -> lines := l :: !lines)
          ~emit_end:ignore ()
      in
      let obs =
        Sdft_util.Obs.with_progress (Sdft_util.Obs.create ()) progress
      in
      let cache = Quant_cache.open_disk path in
      let items, _ =
        Sdft_analysis.sweep_checkpointed ~cache ~obs ~resume:true sd
          (sweep_options_at [ 6.0; 12.0 ])
      in
      Quant_cache.close cache;
      (match items with
      | [ Sdft_analysis.Sweep_skipped _; Sdft_analysis.Sweep_run _ ] -> ()
      | _ -> Alcotest.fail "expected one certified point and one run");
      let lines = List.rev !lines in
      let phase l = String.sub l 1 (String.index l ']' - 1) in
      let count l =
        try Scanf.sscanf l "[%_s@] %d/%d" (fun d t -> Some (d, t))
        with Scanf.Scan_failure _ | End_of_file -> None
      in
      let names_sweep l =
        let rec at i =
          i + 5 <= String.length l && (String.sub l i 5 = "sweep" || at (i + 1))
        in
        at 0
      in
      List.iter
        (fun l -> if names_sweep l then Alcotest.failf "names a sweep: %s" l)
        lines;
      (* The last line of each run of one phase shows its final count. *)
      let rec ends = function
        | a :: (b :: _ as rest) ->
          (if phase a <> phase b then a :: ends rest else ends rest)
        | [ last ] -> [ last ]
        | [] -> []
      in
      Alcotest.(check bool) "a counted phase was shown" true
        (List.exists (fun l -> count l <> None) lines);
      List.iter
        (fun l ->
          match count l with
          | Some (d, t) when d <> t -> Alcotest.failf "phase ends short: %s" l
          | _ -> ())
        (ends lines))

(* One file for all certified work: a cold resumable sweep appends each
   fresh solve exactly once plus one record per point, and a re-run over
   the same store appends nothing at all. *)
let test_checkpoint_appends_once () =
  let sd = Pumps.sd_tree () in
  with_store (fun path ->
      let items, cache = sweep_into sd path sweep_horizons in
      let s = Option.get (Quant_cache.disk_stats cache) in
      Alcotest.(check int) "appends = misses + point records"
        (Quant_cache.misses cache + List.length items)
        s.Quant_cache.appends;
      let _, again = sweep_into sd path sweep_horizons in
      let s2 = Option.get (Quant_cache.disk_stats again) in
      Alcotest.(check int) "re-run appends nothing" 0 s2.Quant_cache.appends;
      Alcotest.(check int) "re-run never misses" 0 s2.Quant_cache.disk_misses)

(* Store failures never fail a resumable sweep: with every append
   failing, the sweep completes bit-identically and reports the fault;
   with no point record on disk, a resume re-runs every point. *)
let test_checkpoint_append_failure () =
  let sd = Pumps.sd_tree () in
  let golden, _ = Sdft_analysis.sweep sd (sweep_options_at sweep_horizons) in
  with_store (fun path ->
      let items, cache =
        Failpoint.configure_string_in fp "store.append=raise";
        Fun.protect ~finally:(fun () -> Failpoint.clear_all_in fp) (fun () ->
            sweep_into sd path sweep_horizons)
      in
      check_items_match_golden items golden;
      let s = Option.get (Quant_cache.disk_stats cache) in
      Alcotest.(check bool) "failure reported" true
        (s.Quant_cache.disk_error <> None);
      let resumed = Quant_cache.open_disk path in
      Alcotest.(check int) "nothing certified" 0 (n_certified resumed sd);
      let items, _ =
        Sdft_analysis.sweep_checkpointed ~cache:resumed ~resume:true sd
          (sweep_options_at sweep_horizons)
      in
      Quant_cache.close resumed;
      List.iter
        (function
          | Sdft_analysis.Sweep_run _ -> ()
          | Sdft_analysis.Sweep_skipped _ ->
            Alcotest.fail "a point no record certifies was skipped")
        items;
      check_items_match_golden items golden)

(* Point records are invisible to every other reader of the store: an
   analysis and a server warm start load the entries, count only them,
   and hit on every lookup. *)
let test_checkpoint_store_serves_other_readers () =
  let sd = Pumps.sd_tree () in
  with_store (fun path ->
      let _, swept = sweep_into sd path sweep_horizons in
      let entries = Quant_cache.misses swept in
      let options = List.hd (sweep_options_at sweep_horizons) in
      let baseline = Sdft_analysis.analyze ~options sd in
      let cache = Quant_cache.open_disk path in
      let r = Sdft_analysis.analyze ~options ~cache sd in
      Quant_cache.close cache;
      let s = Option.get (Quant_cache.disk_stats cache) in
      Alcotest.(check int) "analyze loads entries only" entries
        s.Quant_cache.entries_loaded;
      Alcotest.(check int) "analyze never misses" 0 s.Quant_cache.disk_misses;
      check_same_result "analyze over a sweep store" r baseline;
      let cache = Quant_cache.open_disk path in
      let core = Sdft_server.Server_core.create ~cache () in
      let response =
        Sdft_server.Server_core.call core ~client:"t"
          (Sdft_server.Protocol.analyze_line ~id:"warm"
             ~horizon:options.Sdft_analysis.horizon
             ~model:(Sdft_format.to_string sd) ())
      in
      Sdft_server.Server_core.shutdown core;
      Quant_cache.close cache;
      let s = Option.get (Quant_cache.disk_stats cache) in
      Alcotest.(check (option bool)) "server answers" (Some true)
        (match Sdft_util.Json.parse response with
        | Ok v ->
          Option.bind (Sdft_util.Json.member "ok" v) Sdft_util.Json.to_bool
        | Error _ -> None);
      Alcotest.(check int) "server warm start loads entries only" entries
        s.Quant_cache.entries_loaded;
      Alcotest.(check int) "server warm start never misses" 0
        s.Quant_cache.disk_misses)

(* Warm-start export/seed (the manifest payload path). *)

let test_cache_export_seed () =
  let sd = Pumps.sd_tree () in
  let a = Quant_cache.create () in
  let r1 = Sdft_analysis.analyze ~cache:a sd in
  let exported = Quant_cache.export a in
  Alcotest.(check bool) "exports entries" true (exported <> []);
  let b = Quant_cache.create () in
  Alcotest.(check int)
    "all entries seed" (List.length exported)
    (Quant_cache.seed b exported);
  Alcotest.(check int) "re-seeding adds nothing" 0 (Quant_cache.seed b exported);
  let r2 = Sdft_analysis.analyze ~cache:b sd in
  Alcotest.(check int) "seeded run never misses" 0 (Quant_cache.misses b);
  check_same_result "seeded" r2 r1

(* Manifest round-trip and diff. *)

let test_manifest_round_trip () =
  let sd = Pumps.sd_tree () in
  let options = Sdft_analysis.default_options in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~options ~cache sd in
  let m = Manifest.of_result ~cache sd options r in
  Alcotest.(check bool) "stamp matches" true (Manifest.stamp_matches m);
  let path = Filename.temp_file "sdft_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Manifest.save path m;
      match Manifest.load path with
      | Error e -> Alcotest.failf "manifest reload failed: %s" e
      | Ok m' ->
        Alcotest.(check bool) "total round-trips" true (m'.Manifest.total = m.Manifest.total);
        Alcotest.(check bool) "bounds round-trip" true
          (m'.Manifest.lower = m.Manifest.lower
          && m'.Manifest.upper = m.Manifest.upper);
        Alcotest.(check int) "cutsets round-trip"
          (List.length m.Manifest.cutsets)
          (List.length m'.Manifest.cutsets);
        Alcotest.(check int) "cache entries round-trip"
          (List.length m.Manifest.cache_entries)
          (List.length m'.Manifest.cache_entries);
        Alcotest.(check bool) "cache entries bit-exact" true
          (m'.Manifest.cache_entries = m.Manifest.cache_entries);
        List.iter2
          (fun (a : Manifest.cutset_record) (b : Manifest.cutset_record) ->
            Alcotest.(check (list string)) "events" a.Manifest.events b.Manifest.events;
            Alcotest.(check bool) "probability bit-exact" true
              (a.Manifest.q.Cutset_model.probability
              = b.Manifest.q.Cutset_model.probability))
          m.Manifest.cutsets m'.Manifest.cutsets)

let test_manifest_diff_self_empty () =
  let sd = Pumps.sd_tree () in
  let options = Sdft_analysis.default_options in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~options ~cache sd in
  let m = Manifest.of_result ~cache sd options r in
  (* Diff against a warm re-run of the same model: nothing changed, nothing
     requantified. *)
  let seeded = Quant_cache.create () in
  ignore (Quant_cache.seed seeded m.Manifest.cache_entries);
  let r2 = Sdft_analysis.analyze ~options ~cache:seeded sd in
  let d = Manifest.diff m sd r2 in
  Alcotest.(check int) "no moved cutsets" 0 (List.length d.Manifest.entries);
  Alcotest.(check int) "nothing requantified" 0 d.Manifest.n_requantified;
  Alcotest.(check int) "all cutsets unchanged"
    (List.length m.Manifest.cutsets)
    d.Manifest.n_unchanged

let test_manifest_diff_detects_change () =
  let options = Sdft_analysis.default_options in
  let sd = Pumps.sd_tree () in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~options ~cache sd in
  let m = Manifest.of_result ~cache sd options r in
  (* Re-analyze at a different horizon: every dynamic cutset moves. *)
  let options2 = { options with Sdft_analysis.horizon = 48.0 } in
  let r2 = Sdft_analysis.analyze ~options:options2 sd in
  let d = Manifest.diff m sd r2 in
  Alcotest.(check bool) "some cutsets moved" true (d.Manifest.entries <> []);
  Alcotest.(check bool) "totals differ" true
    (d.Manifest.old_total <> d.Manifest.new_total);
  List.iter
    (fun (e : Manifest.diff_entry) ->
      match e.Manifest.d_change with
      | Manifest.Moved (o, n) ->
        Alcotest.(check bool) "moved probabilities differ" true (o <> n)
      | Manifest.Appeared _ | Manifest.Disappeared _ ->
        Alcotest.fail "same model: no cutset should appear or disappear")
    d.Manifest.entries

(* A manifest carries the entries of its own run only, however many
   other models share the cache: after a BWR run into a shared store, a
   pumps manifest embeds exactly what a memory-only pumps run would. *)
let test_manifest_shared_store_exports_own_entries () =
  let options = Sdft_analysis.default_options in
  let sd = Pumps.sd_tree () in
  let keys m = List.map fst m.Manifest.cache_entries in
  let memory = Quant_cache.create () in
  let alone =
    Manifest.of_result ~cache:memory sd options
      (Sdft_analysis.analyze ~options ~cache:memory sd)
  in
  Alcotest.(check bool) "memory-only run exports entries" true
    (alone.Manifest.cache_entries <> []);
  with_store (fun path ->
      let shared = Quant_cache.open_disk path in
      ignore (Sdft_analysis.analyze ~options ~cache:shared
                (Bwr.build Bwr.default_config));
      let m =
        Manifest.of_result ~cache:shared sd options
          (Sdft_analysis.analyze ~options ~cache:shared sd)
      in
      Quant_cache.close shared;
      Alcotest.(check (list string)) "same entry set as a memory-only run"
        (keys alone) (keys m))

(* Format-1 manifests (cache entries as JSON objects) still load and
   diff; their cache array is skipped. *)
let test_manifest_format1_loads () =
  let options = Sdft_analysis.default_options in
  let sd = Pumps.sd_tree () in
  let cache = Quant_cache.create () in
  let r = Sdft_analysis.analyze ~options ~cache sd in
  let m = Manifest.of_result ~cache sd options r in
  let old_entry (key, e) =
    Sdft_util.Json.Object
      [
        ("key", Sdft_util.Json.String key);
        ("prob", Sdft_util.Json.Number e.Quant_cache.e_prob);
        ("states", Sdft_util.Json.Number (float_of_int e.Quant_cache.e_states));
        ( "transitions",
          Sdft_util.Json.Number (float_of_int e.Quant_cache.e_transitions) );
        ("steps", Sdft_util.Json.Number (float_of_int e.Quant_cache.e_steps));
      ]
  in
  let v1 =
    match Sdft_util.Json.parse (Manifest.to_json m) with
    | Ok (Sdft_util.Json.Object fields) ->
      Sdft_util.Json.Object
        (List.map
           (fun (name, v) ->
             match name with
             | "format" -> (name, Sdft_util.Json.Number 1.0)
             | "cache" ->
               ( name,
                 Sdft_util.Json.Array
                   (List.map old_entry m.Manifest.cache_entries) )
             | _ -> (name, v))
           fields)
    | _ -> Alcotest.fail "manifest is not a JSON object"
  in
  match Manifest.of_json v1 with
  | Error e -> Alcotest.failf "format-1 manifest rejected: %s" e
  | Ok m1 ->
    Alcotest.(check int) "cache array skipped" 0
      (List.length m1.Manifest.cache_entries);
    Alcotest.(check int) "cutsets kept"
      (List.length m.Manifest.cutsets)
      (List.length m1.Manifest.cutsets);
    let d = Manifest.diff m1 sd r in
    Alcotest.(check int) "diffs against the same run: nothing moved" 0
      (List.length d.Manifest.entries)

(* Record codec round-trip. *)

let entry_gen =
  QCheck.Gen.(
    map
      (fun (prob, states, transitions, steps) ->
        { Quant_cache.e_prob = prob; e_states = states;
          e_transitions = transitions; e_steps = steps })
      (quad (float_bound_inclusive 1.0) (int_bound 100_000)
         (int_bound 1_000_000) (int_bound 10_000)))

let key_gen =
  (* Keys are digests plus printf-formatted parameters, but the codec must
     not care: exercise it with arbitrary bytes except newline (records are
     framed, not line-delimited, so even newlines are fine — include them). *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 255)) (1 -- 80))

let prop_record_codec_round_trip =
  QCheck.Test.make ~name:"record codec round-trips" ~count:500
    (QCheck.make
       QCheck.Gen.(pair key_gen entry_gen)
       ~print:(fun (k, e) ->
         Printf.sprintf "key=%S prob=%h states=%d" k e.Quant_cache.e_prob
           e.Quant_cache.e_states))
    (fun (key, e) ->
      match Quant_cache.decode_record (Quant_cache.encode_record key e) with
      | None -> false
      | Some (k', e') ->
        k' = key
        && e'.Quant_cache.e_prob = e.Quant_cache.e_prob
        && e'.Quant_cache.e_states = e.Quant_cache.e_states
        && e'.Quant_cache.e_transitions = e.Quant_cache.e_transitions
        && e'.Quant_cache.e_steps = e.Quant_cache.e_steps)

let prop_decode_total =
  QCheck.Test.make ~name:"decode_record never raises" ~count:500
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (0 -- 60))
       ~print:(Printf.sprintf "%S"))
    (fun s ->
      match Quant_cache.decode_record s with Some _ | None -> true)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "framing",
        [
          Alcotest.test_case "round trip" `Quick test_store_round_trip;
          Alcotest.test_case "truncated tail" `Quick test_store_truncated_tail;
          Alcotest.test_case "reader snapshot of active writer" `Quick
            test_store_reader_snapshot_of_active_writer;
          Alcotest.test_case "flipped byte" `Quick test_store_flipped_byte;
          Alcotest.test_case "stamp mismatch" `Quick test_store_stamp_mismatch;
          Alcotest.test_case "reader sharing" `Quick test_store_reader_sharing;
          Alcotest.test_case "crc32 vector" `Quick test_store_crc32_vector;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "warm reload identical" `Quick
            test_cache_warm_reload_identical;
          Alcotest.test_case "truncated store identical" `Quick
            test_cache_truncated_store_identical;
          Alcotest.test_case "corrupted store identical" `Quick
            test_cache_corrupted_store_identical;
          Alcotest.test_case "stamp mismatch identical" `Quick
            test_cache_stamp_mismatch_identical;
          Alcotest.test_case "read-only sharing" `Quick
            test_cache_readonly_sharing;
          Alcotest.test_case "open failure degrades" `Quick
            test_cache_open_failure_degrades;
          Alcotest.test_case "append failure degrades" `Quick
            test_cache_append_failure_degrades;
          Alcotest.test_case "breaker recovers in place" `Quick
            test_cache_breaker_recovers_in_place;
          Alcotest.test_case "breaker stays open under persistent fault"
            `Quick test_cache_breaker_stays_open_under_persistent_fault;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "point codec round-trip" `Quick
            test_checkpoint_point_codec;
          Alcotest.test_case "resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "torn tail re-runs the last point" `Quick
            test_checkpoint_torn_tail_reruns_last_point;
          Alcotest.test_case "resume progress ends every phase" `Quick
            test_checkpoint_resume_progress;
          Alcotest.test_case "cold sweep appends each record once" `Quick
            test_checkpoint_appends_once;
          Alcotest.test_case "append failure never fails the sweep" `Quick
            test_checkpoint_append_failure;
          Alcotest.test_case "point records invisible to other readers"
            `Quick test_checkpoint_store_serves_other_readers;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "export/seed" `Quick test_cache_export_seed;
          Alcotest.test_case "manifest round trip" `Quick
            test_manifest_round_trip;
          Alcotest.test_case "diff of identical run" `Quick
            test_manifest_diff_self_empty;
          Alcotest.test_case "diff detects change" `Quick
            test_manifest_diff_detects_change;
          Alcotest.test_case "manifest exports only its run's entries"
            `Quick test_manifest_shared_store_exports_own_entries;
          Alcotest.test_case "format-1 manifest loads" `Quick
            test_manifest_format1_loads;
        ] );
      ("codec", qc [ prop_record_codec_round_trip; prop_decode_total ]);
    ]
