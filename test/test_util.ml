(* Tests for the utility library: vectors, RNG, compensated sums, sorted
   integer sets, tables. *)

open Sdft_util

let check_float = Alcotest.(check (float 1e-12))

(* Vec *)

let vec_of_list l =
  let v = Vec.create () in
  List.iter (Vec.push v) l;
  v

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "fresh is empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "get 99" 9801 (Vec.get v 99)

let test_vec_get_out_of_bounds () =
  let v = vec_of_list [ 1 ] in
  Alcotest.check_raises "get past the end"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_iter_fold () =
  let v = vec_of_list [ 1; 2; 3; 4 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  Alcotest.(check int) "fold" 10 sum;
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check (list (pair int int)))
    "iteri order"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !seen)

let test_vec_clear_reuse () =
  let v = vec_of_list [ 1; 2 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "reused" 9 (Vec.get v 0)

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let i = Rng.int rng 17 in
    if i < 0 || i >= 17 then Alcotest.failf "int out of range: %d" i
  done

let test_rng_int_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_exponential_mean () =
  let rng = Rng.create 4 in
  let n = 50_000 in
  let rate = 2.5 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng rate
  done;
  let mean = !sum /. float_of_int n in
  (* mean of Exp(2.5) is 0.4; tolerance ~4 sigma *)
  Alcotest.(check bool) "mean close to 1/rate" true (Float.abs (mean -. 0.4) < 0.01)

let test_rng_split_independent () =
  let rng = Rng.create 5 in
  let child = Rng.split rng in
  let a = Rng.int64 rng and b = Rng.int64 child in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_normal_moments () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let z = Rng.normal rng in
    sum := !sum +. z;
    sq := !sq +. (z *. z)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "variance ~ 1" true (Float.abs (var -. 1.0) < 0.03)

let test_rng_lognormal_median () =
  let rng = Rng.create 12 in
  let n = 20_001 in
  let samples =
    Array.init n (fun _ -> Rng.lognormal rng ~median:3e-3 ~error_factor:5.0)
  in
  Array.sort compare samples;
  let median = samples.(n / 2) in
  Alcotest.(check bool) "median ~ 3e-3" true
    (Float.abs (median -. 3e-3) < 3e-4);
  (* ~95% of samples below EF * median. *)
  let below = Array.fold_left (fun acc x -> if x < 15e-3 then acc + 1 else acc) 0 samples in
  let frac = float_of_int below /. float_of_int n in
  Alcotest.(check bool) "EF is the 95th percentile" true (Float.abs (frac -. 0.95) < 0.01)

let test_rng_lognormal_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad median"
    (Invalid_argument "Rng.lognormal: median must be positive") (fun () ->
      ignore (Rng.lognormal rng ~median:0.0 ~error_factor:2.0));
  Alcotest.check_raises "bad EF"
    (Invalid_argument "Rng.lognormal: error factor must be at least 1") (fun () ->
      ignore (Rng.lognormal rng ~median:0.1 ~error_factor:0.5))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 6 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* Kahan *)

let test_kahan_simple () =
  check_float "sum" 6.0 (Kahan.sum [| 1.0; 2.0; 3.0 |])

let test_kahan_compensation () =
  (* Adding 1e-16 ten million times to 1.0: naive summation loses it all. *)
  let k = Kahan.create () in
  Kahan.add k 1.0;
  for _ = 1 to 10_000_000 do
    Kahan.add k 1e-16
  done;
  let expected = 1.0 +. 1e-9 in
  Alcotest.(check bool)
    "compensated sum keeps small terms" true
    (Float.abs (Kahan.total k -. expected) < 1e-12)

let test_kahan_list () =
  check_float "sum_list" 1.0 (Kahan.sum_list [ 0.25; 0.25; 0.5 ])

(* Int_set *)

let iset = Alcotest.testable Int_set.pp Int_set.equal

let test_int_set_of_array_dedup () =
  Alcotest.check iset "dedup + sort"
    (Int_set.of_list [ 1; 2; 3 ])
    (Int_set.of_array [| 3; 1; 2; 3; 1 |])

let test_int_set_mem () =
  let s = Int_set.of_list [ 2; 5; 9; 40 ] in
  Alcotest.(check bool) "mem 5" true (Int_set.mem 5 s);
  Alcotest.(check bool) "mem 40" true (Int_set.mem 40 s);
  Alcotest.(check bool) "mem 3" false (Int_set.mem 3 s);
  Alcotest.(check bool) "mem empty" false (Int_set.mem 3 Int_set.empty)

let test_int_set_ops () =
  let a = Int_set.of_list [ 1; 3; 5 ] and b = Int_set.of_list [ 3; 4; 5; 6 ] in
  Alcotest.check iset "union" (Int_set.of_list [ 1; 3; 4; 5; 6 ]) (Int_set.union a b);
  Alcotest.check iset "inter" (Int_set.of_list [ 3; 5 ]) (Int_set.inter a b);
  Alcotest.check iset "diff" (Int_set.of_list [ 1 ]) (Int_set.diff a b);
  Alcotest.check iset "diff rev" (Int_set.of_list [ 4; 6 ]) (Int_set.diff b a)

let test_int_set_subset () =
  let a = Int_set.of_list [ 1; 3 ] and b = Int_set.of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "a subset b" true (Int_set.subset a b);
  Alcotest.(check bool) "b not subset a" false (Int_set.subset b a);
  Alcotest.(check bool) "empty subset" true (Int_set.subset Int_set.empty a);
  Alcotest.(check bool) "self subset" true (Int_set.subset a a)

let test_int_set_compare_by_cardinality () =
  let small = Int_set.of_list [ 9 ] and big = Int_set.of_list [ 1; 2 ] in
  Alcotest.(check bool) "smaller first" true (Int_set.compare small big < 0)

(* qcheck properties for Int_set against the stdlib Set. *)

module IS = Set.Make (Int)

let to_stdlib s = IS.of_list (Int_set.to_list s)

let small_list = QCheck.(list_of_size Gen.(0 -- 12) (int_bound 30))

let prop_union =
  QCheck.Test.make ~name:"Int_set.union agrees with Set.union" ~count:500
    (QCheck.pair small_list small_list) (fun (a, b) ->
      let sa = Int_set.of_list a and sb = Int_set.of_list b in
      IS.equal (to_stdlib (Int_set.union sa sb)) (IS.union (to_stdlib sa) (to_stdlib sb)))

let prop_inter =
  QCheck.Test.make ~name:"Int_set.inter agrees with Set.inter" ~count:500
    (QCheck.pair small_list small_list) (fun (a, b) ->
      let sa = Int_set.of_list a and sb = Int_set.of_list b in
      IS.equal (to_stdlib (Int_set.inter sa sb)) (IS.inter (to_stdlib sa) (to_stdlib sb)))

let prop_diff =
  QCheck.Test.make ~name:"Int_set.diff agrees with Set.diff" ~count:500
    (QCheck.pair small_list small_list) (fun (a, b) ->
      let sa = Int_set.of_list a and sb = Int_set.of_list b in
      IS.equal (to_stdlib (Int_set.diff sa sb)) (IS.diff (to_stdlib sa) (to_stdlib sb)))

let prop_subset =
  QCheck.Test.make ~name:"Int_set.subset agrees with Set.subset" ~count:500
    (QCheck.pair small_list small_list) (fun (a, b) ->
      let sa = Int_set.of_list a and sb = Int_set.of_list b in
      Int_set.subset sa sb = IS.subset (to_stdlib sa) (to_stdlib sb))

let prop_mem =
  QCheck.Test.make ~name:"Int_set.mem agrees with Set.mem" ~count:500
    (QCheck.pair (QCheck.int_bound 30) small_list) (fun (x, l) ->
      Int_set.mem x (Int_set.of_list l) = IS.mem x (IS.of_list l))

(* Table *)

let test_table_renders () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bbbb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "row present" true
    (String.length (String.concat "" (String.split_on_char '3' s)) < String.length s)

let test_table_cells () =
  Alcotest.(check string) "sci" "4.090e-09" (Table.cell_sci 4.09e-9);
  Alcotest.(check string) "duration short" "7.9s" (Table.cell_duration 7.9);
  Alcotest.(check string) "duration long" "1m 53s" (Table.cell_duration 113.0)

let test_int_set_remove () =
  let s = Int_set.of_list [ 1; 3; 5 ] in
  Alcotest.check iset "remove middle" (Int_set.of_list [ 1; 5 ]) (Int_set.remove 3 s);
  Alcotest.check iset "remove first" (Int_set.of_list [ 3; 5 ]) (Int_set.remove 1 s);
  Alcotest.check iset "remove last" (Int_set.of_list [ 1; 3 ]) (Int_set.remove 5 s);
  Alcotest.check iset "remove absent" s (Int_set.remove 4 s);
  Alcotest.check iset "remove to empty" Int_set.empty
    (Int_set.remove 7 (Int_set.singleton 7));
  Alcotest.check iset "remove from empty" Int_set.empty (Int_set.remove 7 Int_set.empty)

let prop_remove =
  QCheck.Test.make ~name:"Int_set.remove agrees with Set.remove" ~count:500
    (QCheck.pair (QCheck.int_bound 30) small_list) (fun (x, l) ->
      let s = Int_set.of_list l in
      IS.equal (to_stdlib (Int_set.remove x s)) (IS.remove x (to_stdlib s)))

(* Timer *)

let test_timer_monotone () =
  let t = Timer.start () in
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  Alcotest.(check bool) "elapsed non-negative" true (Timer.elapsed_s t >= 0.0)

let dur s = Format.asprintf "%a" Timer.pp_duration s

let test_pp_duration_boundaries () =
  Alcotest.(check string) "short" "7.9s" (dur 7.9);
  Alcotest.(check string) "long" "1m 53s" (dur 113.0);
  Alcotest.(check string) "exact minute" "1m 0s" (dur 60.0);
  (* 119.96 used to print as "1m 60s": minutes truncated, seconds rounded
     independently. *)
  Alcotest.(check string) "rounds to next minute" "2m 0s" (dur 119.96);
  Alcotest.(check string) "rounds within minute" "1m 59s" (dur 119.4);
  Alcotest.(check string) "rounds up across 60s" "1m 0s" (dur 59.97);
  Alcotest.(check string) "stays below 60s" "59.9s" (dur 59.94)

(* Metrics *)

let test_metrics_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter_in m "test.counter" in
  Alcotest.(check int) "fresh" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  (* Registration is idempotent: same name, same instrument. *)
  Metrics.incr (Metrics.counter_in m "test.counter");
  Alcotest.(check int) "shared" 43 (Metrics.counter_value c)

(* A span is timed into the histogram of its name: [sum] is the total
   seconds, [count] the number of intervals. *)
let test_metrics_gauge_span () =
  let m = Metrics.create () in
  let g = Metrics.gauge_in m "test.gauge" in
  Metrics.set g 2.5;
  Metrics.set g 1.5;
  check_float "gauge last write" 1.5 (Metrics.gauge_value g);
  let h = Metrics.histogram_in m "test.span" in
  let count () = (Metrics.hist_value h).Metrics.count in
  Metrics.observe h 0.25;
  Metrics.observe h 0.5;
  check_float "span total" 0.75 (Metrics.hist_value h).Metrics.sum;
  Alcotest.(check int) "span count" 2 (count ());
  let obs = Obs.create ~metrics:m () in
  (* A declared span resolves to the histogram registered by name. *)
  let s = Obs.declare_span (Metrics.group ~eager:false ()) "test.span" in
  let v = Obs.span obs s (fun () -> 7) in
  Alcotest.(check int) "time result" 7 v;
  Alcotest.(check int) "time recorded" 3 (count ());
  (* The duration is recorded even when the timed function raises. *)
  Alcotest.check_raises "raise passes through" Exit (fun () ->
      Obs.span obs s (fun () -> raise Exit));
  Alcotest.(check int) "raise recorded" 4 (count ());
  (* A disabled trace sink still times the span into the histogram. *)
  let quiet = Obs.create ~metrics:m ~trace:(Trace.create ~enabled:false ()) () in
  Alcotest.check_raises "raise passes through (trace off)" Exit (fun () ->
      Obs.span quiet s (fun () -> raise Exit));
  Alcotest.(check int) "raise recorded (trace off)" 5 (count ());
  Alcotest.(check int) "trace off records no event" 0
    (List.length (Trace.snapshot_in quiet.Obs.trace))

let test_metrics_snapshot_json_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter_in m "test.snap_counter" in
  Metrics.add c 5;
  let h = Metrics.histogram_in m "test.snap_span" in
  Metrics.observe h 1.5;
  let snap = Metrics.snapshot_in m in
  Alcotest.(check (option int))
    "counter in snapshot" (Some 5)
    (List.assoc_opt "test.snap_counter" snap.Metrics.counters);
  Alcotest.(check bool)
    "span in snapshot" true
    (match List.assoc_opt "test.snap_span" snap.Metrics.histograms with
     | Some v -> v.Metrics.sum = 1.5 && v.Metrics.count = 1
     | None -> false);
  let names = List.map fst snap.Metrics.counters in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  let json = Metrics.to_json_in m in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec loop i = i + n <= h && (String.sub json i n = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "json counters" true (contains "\"counters\"");
  Alcotest.(check bool) "json counter entry" true (contains "\"test.snap_counter\": 5");
  Alcotest.(check bool) "json span fields" true (contains "\"count\": 1");
  Metrics.reset_in m;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c);
  Alcotest.(check int) "reset keeps handle" 0 (Metrics.hist_value h).Metrics.count;
  (* A span resolved after the reset lands in the same instrument. *)
  let obs = Obs.create ~metrics:m () in
  Obs.span obs
    (Obs.declare_span (Metrics.group ~eager:false ()) "test.snap_span")
    ignore;
  Alcotest.(check int) "handle still live" 1 (Metrics.hist_value h).Metrics.count

let test_metrics_concurrent () =
  let m = Metrics.create () in
  let obs = Obs.create ~metrics:m () in
  let c = Metrics.counter_in m "test.concurrent_counter" in
  let h = Metrics.histogram_in m "test.concurrent_mass" in
  (* First resolved concurrently, by every domain at once. *)
  let s =
    Obs.declare_span (Metrics.group ~eager:false ()) "test.concurrent_span"
  in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h 0.001;
      Obs.span obs s ignore
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let spans = Metrics.hist_value (Metrics.histogram_in m "test.concurrent_span") in
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Metrics.counter_value c);
  Alcotest.(check int) "no lost records" (4 * per_domain)
    (Metrics.hist_value h).Metrics.count;
  Alcotest.(check bool) "no lost float mass" true
    (Float.abs
       ((Metrics.hist_value h).Metrics.sum
       -. (0.001 *. float_of_int (4 * per_domain)))
     < 1e-6);
  Alcotest.(check int) "no lost spans" (4 * per_domain) spans.Metrics.count;
  Alcotest.(check int) "one trace event per span" (4 * per_domain)
    (List.length (Trace.snapshot_in obs.Obs.trace))

(* Trace *)

let with_tracing f = f (Trace.create ())

let test_trace_disabled_noop () =
  let sink = Trace.default in
  Trace.reset_in sink;
  Alcotest.(check bool) "disabled by default" false (Trace.enabled_in sink);
  let v = Trace.with_span ~sink "t.off" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 v;
  Trace.add_attr ~sink "k" (Trace.Int 1);
  Trace.instant ~sink "t.off_instant";
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Trace.snapshot_in sink))

let test_trace_spans_nesting () =
  with_tracing (fun sink ->
      let v =
        Trace.with_span ~sink "t.outer" (fun () ->
            Trace.add_attr ~sink "n" (Trace.Int 7);
            Trace.with_span ~sink "t.inner" ~attrs:[ ("ok", Trace.Bool true) ]
              (fun () -> Trace.instant ~sink "t.tick");
            3)
      in
      Alcotest.(check int) "result" 3 v;
      (* A span that raises is still recorded. *)
      Alcotest.check_raises "raise passes through" Exit (fun () ->
          Trace.with_span ~sink "t.raises" (fun () -> raise Exit));
      let events = Trace.snapshot_in sink in
      Alcotest.(check int) "event count" 4 (List.length events);
      let find name =
        List.find (fun e -> e.Trace.ev_name = name) events
      in
      Alcotest.(check int) "outer depth" 0 (find "t.outer").Trace.ev_depth;
      Alcotest.(check int) "inner depth" 1 (find "t.inner").Trace.ev_depth;
      Alcotest.(check int) "instant depth" 2 (find "t.tick").Trace.ev_depth;
      Alcotest.(check bool) "instant kind" true
        ((find "t.tick").Trace.ev_kind = Trace.Instant);
      Alcotest.(check bool) "outer attr recorded" true
        (List.mem_assoc "n" (find "t.outer").Trace.ev_attrs);
      Alcotest.(check bool) "inner attrs recorded" true
        (List.mem_assoc "ok" (find "t.inner").Trace.ev_attrs);
      Alcotest.(check bool) "nesting: inner within outer" true
        (let o = find "t.outer" and i = find "t.inner" in
         i.Trace.ev_start >= o.Trace.ev_start
         && i.Trace.ev_start +. i.Trace.ev_dur
            <= o.Trace.ev_start +. o.Trace.ev_dur +. 1e-6);
      let agg = Trace.aggregate_in sink in
      Alcotest.(check (option int)) "aggregate count" (Some 1)
        (Option.map (fun (c, _) -> c) (List.assoc_opt "t.inner" agg)))

let test_trace_multi_domain () =
  with_tracing (fun sink ->
      let per_item = 25 in
      let work = Array.init (4 * per_item) Fun.id in
      let results =
        Parallel.map_init ~domains:4
          (fun () -> ())
          (fun () x ->
            Trace.with_span ~sink "t.work"
              ~attrs:[ ("item", Trace.Int x) ]
              (fun () ->
                Trace.instant ~sink "t.item";
                x * 2))
          work
      in
      Alcotest.(check (array int))
        "results correct" (Array.map (fun x -> x * 2) work) results;
      (* Worker domains are dead by now; their buffers must still be in the
         merged snapshot — one span and one instant per item, no losses. *)
      let events = Trace.snapshot_in sink in
      let count name =
        List.length (List.filter (fun e -> e.Trace.ev_name = name) events)
      in
      Alcotest.(check int) "all spans survive the join" (4 * per_item)
        (count "t.work");
      Alcotest.(check int) "all instants survive the join" (4 * per_item)
        (count "t.item");
      let agg = Trace.aggregate_in sink in
      Alcotest.(check (option int)) "aggregate sees every span"
        (Some (4 * per_item))
        (Option.map (fun (c, _) -> c) (List.assoc_opt "t.work" agg)))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let test_trace_json_escaping () =
  with_tracing (fun sink ->
      Trace.with_span ~sink "t.\"quoted\"\\back"
        ~attrs:
          [
            ("ctrl", Trace.Str "a\nb\tc\rd\x01e");
            ("inf", Trace.Float infinity);
          ]
        (fun () -> ());
      let jsonl = Trace.to_jsonl_in sink in
      Alcotest.(check bool) "quote escaped" true
        (contains ~needle:{|t.\"quoted\"\\back|} jsonl);
      Alcotest.(check bool) "newline/tab/cr escaped" true
        (contains ~needle:{|a\nb\tc\rd\u0001e|} jsonl);
      Alcotest.(check bool) "non-finite floats become null" true
        (contains ~needle:{|"inf": null|} jsonl);
      Alcotest.(check bool) "no raw control chars" true
        (String.for_all (fun c -> c = '\n' || c >= ' ') jsonl);
      let chrome = Trace.to_chrome_in sink in
      Alcotest.(check bool) "chrome is an array" true
        (String.length chrome > 0 && chrome.[0] = '[');
      Alcotest.(check bool) "chrome complete events" true
        (contains ~needle:{|"ph": "X"|} chrome);
      Alcotest.(check bool) "chrome escapes too" true
        (contains ~needle:{|t.\"quoted\"\\back|} chrome))

let test_metrics_json_escaping () =
  let m = Metrics.create () in
  let c = Metrics.counter_in m "test.\"esc\"\nname" in
  Metrics.add c 3;
  let json = Metrics.to_json_in m in
  Alcotest.(check bool) "metrics name escaped" true
    (contains ~needle:{|test.\"esc\"\nname|} json);
  Alcotest.(check bool) "no raw control chars" true
    (String.for_all (fun ch -> ch = '\n' || ch >= ' ') json)

(* Parallel *)

let parallel_map ~domains f work =
  Parallel.map_init ~domains ignore (fun () x -> f x) work

let test_parallel_map_matches_sequential () =
  let work = Array.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int))
    "domains=4 matches map" (Array.map f work)
    (parallel_map ~domains:4 f work);
  Alcotest.(check (array int))
    "domains=1 matches map" (Array.map f work)
    (parallel_map ~domains:1 f work);
  Alcotest.(check (array int)) "empty" [||] (parallel_map ~domains:4 f [||])

let test_parallel_map_init () =
  (* Each domain gets its own scratch buffer; results must not depend on
     which domain claimed which item. *)
  let work = Array.init 50 Fun.id in
  let init () = Buffer.create 8 in
  let f buf x =
    Buffer.clear buf;
    Buffer.add_string buf (string_of_int (x * 2));
    Buffer.contents buf
  in
  Alcotest.(check (array string))
    "per-domain state" (Array.map (fun x -> string_of_int (x * 2)) work)
    (Parallel.map_init ~domains:4 init f work)

let test_parallel_worker_exception () =
  (* The original exception must surface — not Invalid_argument from
     collecting unfilled result slots. *)
  let work = Array.init 64 Fun.id in
  let f x = if x = 37 then failwith "boom" else x in
  Alcotest.check_raises "original exception" (Failure "boom") (fun () ->
      ignore (parallel_map ~domains:4 f work));
  Alcotest.check_raises "sequential path too" (Failure "boom") (fun () ->
      ignore (parallel_map ~domains:1 f work))

let test_parallel_init_exception () =
  let work = Array.init 8 Fun.id in
  Alcotest.check_raises "init failure surfaces" (Failure "bad init") (fun () ->
      ignore (Parallel.map_init ~domains:4 (fun () -> failwith "bad init") (fun () x -> x) work))

let test_parallel_domains_capped_by_items () =
  (* Every domain of a pass runs [init] once, so the calls count the
     domains: a pass over three items never starts more than three. *)
  let inits = Atomic.make 0 in
  let init () = Atomic.incr inits in
  let work = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "results" [| 2; 4; 6 |]
    (Parallel.map_init ~domains:8 init (fun () x -> 2 * x) work);
  Alcotest.(check bool)
    (Printf.sprintf "%d domains for 3 items" (Atomic.get inits))
    true
    (Atomic.get inits <= 3);
  Atomic.set inits 0;
  ignore (Parallel.map_init ~domains:8 init (fun () x -> x) [| 1 |]);
  Alcotest.(check int) "one item, one domain" 1 (Atomic.get inits)

let test_parallel_adopts_worker_heaps () =
  (* A terminated domain's heap counts in top_heap_words next to the
     caller's maximum until a major cycle ends and the caller adopts it.
     After a 32 MB caller peak, each pass holds 2 MB on each of its two
     domains: once adopted, that stays under the old peak and the reading
     does not move; left orphaned it adds the worker's 2 MB. Without the
     cycle finish after the join, a pass read 2.1-2.2 MB higher in 15 of
     20 runs, so three passes in a row catch it almost always. *)
  let peak = Array.make (4 * 1024 * 1024) 0 in
  ignore (Sys.opaque_identity peak);
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  let chunk = 256 * 1024 in
  for pass = 1 to 3 do
    Gc.full_major ();
    let before = top () in
    let held = Atomic.make 0 in
    (* Each item waits until both are allocated, so each domain holds one. *)
    let arrays =
      parallel_map ~domains:2
        (fun i ->
          let a = Array.make chunk i in
          Atomic.incr held;
          while Atomic.get held < 2 do
            Domain.cpu_relax ()
          done;
          a)
        [| 1; 2 |]
    in
    let grown = top () - before in
    ignore (Sys.opaque_identity arrays);
    Alcotest.(check bool)
      (Printf.sprintf "pass %d: top_heap_words grew by %d words" pass grown)
      true (grown < chunk)
  done

(* Backoff *)

let test_backoff_deterministic () =
  let delays b = List.init 10 (fun _ -> Backoff.next b) in
  let a = delays (Backoff.create ~seed:7 ()) in
  let b = delays (Backoff.create ~seed:7 ()) in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  let c = delays (Backoff.create ~seed:8 ()) in
  Alcotest.(check bool) "different seed differs somewhere" true (a <> c)

let test_backoff_delay_for_matches_next () =
  let stateful = Backoff.create ~seed:3 () in
  let pure = Backoff.create ~seed:3 () in
  for k = 1 to 12 do
    let d = Backoff.next stateful in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d" k)
      d (Backoff.delay_for pure k)
  done;
  Alcotest.(check int) "stateful consumed attempts" 12
    (Backoff.attempt stateful);
  Alcotest.(check int) "delay_for left the counter alone" 0
    (Backoff.attempt pure)

let test_backoff_bounds_and_cap () =
  let base = 0.05 and factor = 2.0 and cap = 5.0 and jitter = 0.25 in
  let b = Backoff.create ~base ~factor ~cap ~jitter ~seed:11 () in
  for k = 1 to 30 do
    let ideal = Float.min cap (base *. (factor ** float_of_int (k - 1))) in
    let d = Backoff.delay_for b k in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within jitter band" k)
      true
      (d >= ideal *. (1.0 -. jitter) -. 1e-12
      && d <= ideal *. (1.0 +. jitter) +. 1e-12)
  done;
  (* Without jitter the schedule is exactly the capped exponential. *)
  let exact = Backoff.create ~base ~factor ~cap ~jitter:0.0 () in
  Alcotest.(check (float 1e-15)) "first delay is base" base
    (Backoff.delay_for exact 1);
  Alcotest.(check (float 1e-15)) "deep attempts sit on the cap" cap
    (Backoff.delay_for exact 20)

let test_backoff_reset () =
  let b = Backoff.create ~seed:5 () in
  let first = Backoff.next b in
  ignore (Backoff.next b);
  Backoff.reset b;
  Alcotest.(check int) "reset rewinds the counter" 0 (Backoff.attempt b);
  Alcotest.(check (float 0.0)) "schedule restarts identically" first
    (Backoff.next b)

let test_backoff_invalid_args () =
  let invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  invalid "negative base" (fun () -> Backoff.create ~base:(-1.0) ());
  invalid "factor below one" (fun () -> Backoff.create ~factor:0.5 ());
  invalid "cap below base" (fun () -> Backoff.create ~base:1.0 ~cap:0.5 ());
  invalid "jitter above one" (fun () -> Backoff.create ~jitter:1.5 ());
  invalid "non-finite cap" (fun () -> Backoff.create ~cap:Float.nan ());
  invalid "attempt zero" (fun () ->
      Backoff.delay_for (Backoff.create ()) 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_get_out_of_bounds;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "clear/reuse" `Quick test_vec_clear_reuse;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "bad bound" `Quick test_rng_int_bad_bound;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "lognormal median" `Slow test_rng_lognormal_median;
          Alcotest.test_case "lognormal validation" `Quick test_rng_lognormal_validation;
        ] );
      ( "kahan",
        [
          Alcotest.test_case "simple" `Quick test_kahan_simple;
          Alcotest.test_case "compensation" `Quick test_kahan_compensation;
          Alcotest.test_case "sum_list" `Quick test_kahan_list;
        ] );
      ( "int_set",
        [
          Alcotest.test_case "of_array dedup" `Quick test_int_set_of_array_dedup;
          Alcotest.test_case "mem" `Quick test_int_set_mem;
          Alcotest.test_case "union/inter/diff" `Quick test_int_set_ops;
          Alcotest.test_case "subset" `Quick test_int_set_subset;
          Alcotest.test_case "compare" `Quick test_int_set_compare_by_cardinality;
          Alcotest.test_case "remove" `Quick test_int_set_remove;
        ]
        @ qc [ prop_union; prop_inter; prop_diff; prop_subset; prop_mem; prop_remove ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_renders;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "timer",
        [
          Alcotest.test_case "monotone" `Quick test_timer_monotone;
          Alcotest.test_case "pp_duration boundaries" `Quick test_pp_duration_boundaries;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "gauge/span" `Quick test_metrics_gauge_span;
          Alcotest.test_case "snapshot/json/reset" `Quick test_metrics_snapshot_json_reset;
          Alcotest.test_case "concurrent updates" `Quick test_metrics_concurrent;
          Alcotest.test_case "json escaping" `Quick test_metrics_json_escaping;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "spans/nesting/attrs" `Quick test_trace_spans_nesting;
          Alcotest.test_case "multi-domain merge" `Quick test_trace_multi_domain;
          Alcotest.test_case "json escaping" `Quick test_trace_json_escaping;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map matches sequential" `Quick test_parallel_map_matches_sequential;
          Alcotest.test_case "map_init state" `Quick test_parallel_map_init;
          Alcotest.test_case "worker exception" `Quick test_parallel_worker_exception;
          Alcotest.test_case "init exception" `Quick test_parallel_init_exception;
          Alcotest.test_case "domains capped by items" `Quick
            test_parallel_domains_capped_by_items;
          Alcotest.test_case "worker heaps adopted on return" `Quick
            test_parallel_adopts_worker_heaps;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_backoff_deterministic;
          Alcotest.test_case "delay_for matches next" `Quick test_backoff_delay_for_matches_next;
          Alcotest.test_case "jitter bounds and cap" `Quick test_backoff_bounds_and_cap;
          Alcotest.test_case "reset" `Quick test_backoff_reset;
          Alcotest.test_case "invalid args" `Quick test_backoff_invalid_args;
        ] );
    ]
