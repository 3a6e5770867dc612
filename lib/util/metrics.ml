type counter = int Atomic.t

type gauge = float Atomic.t

(* Histograms use one fixed, process-wide bucket scheme: log-spaced
   boundaries, four buckets per decade, covering 1e-9 .. ~5.6e8 with one
   overflow bucket. Fixing the boundaries (instead of adapting them to the
   data) makes merges across domains and across snapshots exact: bucket i
   always means the same interval, so merging is integer addition. *)
let n_buckets = 73

let bounds = Array.init (n_buckets - 1) (fun i -> 10.0 ** (float_of_int (i - 36) /. 4.0))

let bucket_le i = if i >= n_buckets - 1 then infinity else bounds.(i)

(* Smallest i with v <= bounds.(i); the last bucket catches everything
   above the largest boundary. NaN is counted as 0 so a bad observation
   can never corrupt the count invariants. *)
let bucket_index v =
  let v = if Float.is_nan v then 0.0 else v in
  if v <= bounds.(0) then 0
  else if v > bounds.(n_buckets - 2) then n_buckets - 1
  else begin
    let lo = ref 0 and hi = ref (n_buckets - 2) in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !hi
  end

type histogram = {
  h_counts : int Atomic.t array; (* length [n_buckets], not cumulative *)
  h_sum : float Atomic.t;
}

(* The registry maps kind-prefixed names to instruments; the lock guards
   registration only — updates go straight to the atomics. [slots] holds
   the registry's instrument for each declared id, by the id's index: it
   is written under the lock only (and replaced whole when it grows), so
   a racy read sees either the filled slot or [None], and [None] falls
   back to the lock. *)
type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  tbl : (string, instrument) Hashtbl.t;
  lock : Mutex.t;
  mutable slots : instrument option array;
}

let create () =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); slots = [||] }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Under [t]'s lock. *)
let find_or_add t key make =
  match Hashtbl.find_opt t.tbl key with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.add t.tbl key i;
    i

let new_counter () = Counter (Atomic.make 0)

let new_gauge () = Gauge (Atomic.make 0.0)

let new_histogram () =
  Histogram
    {
      h_counts = Array.init n_buckets (fun _ -> Atomic.make 0);
      h_sum = Atomic.make 0.0;
    }

(* Each kind's names live under their own key prefix, so a key only ever
   holds an instrument of its kind. *)
let as_counter = function Counter c -> c | Gauge _ | Histogram _ -> assert false

let as_gauge = function Gauge g -> g | Counter _ | Histogram _ -> assert false

let as_histogram = function
  | Histogram h -> h
  | Counter _ | Gauge _ -> assert false

let counter_in t name =
  as_counter (locked t (fun () -> find_or_add t ("c:" ^ name) new_counter))

let gauge_in t name =
  as_gauge (locked t (fun () -> find_or_add t ("g:" ^ name) new_gauge))

let histogram_in t name =
  as_histogram
    (locked t (fun () -> find_or_add t ("h:" ^ name) new_histogram))

(* Declared instruments: a global index per id, and per group the members
   declared so far. *)
type decl = {
  index : int;
  key : string;
  make : unit -> instrument;
}

type group = {
  mutable members : decl list;
  eager : bool;
}

type 'a id = {
  decl : decl;
  group : group;
  id_name : string;
  cast : instrument -> 'a;
}

let n_declared = Atomic.make 0

let fill t decls =
  locked t (fun () ->
      let n = Atomic.get n_declared in
      if Array.length t.slots < n then begin
        let slots = Array.make n None in
        Array.blit t.slots 0 slots 0 (Array.length t.slots);
        t.slots <- slots
      end;
      List.iter
        (fun d ->
          if t.slots.(d.index) = None then
            t.slots.(d.index) <- Some (find_or_add t d.key d.make))
        decls)

let register t g = fill t g.members

let group ?(eager = true) () = { members = []; eager }

let declare prefix make cast g name =
  let decl =
    { index = Atomic.fetch_and_add n_declared 1; key = prefix ^ name; make }
  in
  g.members <- decl :: g.members;
  if g.eager then fill default [ decl ];
  { decl; group = g; id_name = name; cast }

let counter g name = declare "c:" new_counter as_counter g name

let gauge g name = declare "g:" new_gauge as_gauge g name

let histogram g name = declare "h:" new_histogram as_histogram g name

let name id = id.id_name

(* [id] is a member of its own group, so one [register] fills its slot. *)
let rec get t id =
  let slots = t.slots and i = id.decl.index in
  match if i < Array.length slots then slots.(i) else None with
  | Some inst -> id.cast inst
  | None ->
    register t id.group;
    get t id

let incr c = ignore (Atomic.fetch_and_add c 1)

let add c n = ignore (Atomic.fetch_and_add c n)

let set g v = Atomic.set g v

(* Boxed-float CAS loop: [compare_and_set] compares physically, and the
   value read by [get] is the stored box, so the retry is sound. *)
let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

(* Monotone-max via CAS: under parallel domains, concurrent [set_max]
   calls converge on the maximum no matter how they interleave — unlike
   [set], which keeps whichever write happened to land last. *)
let rec set_max g v =
  let old = Atomic.get g in
  if v > old && not (Atomic.compare_and_set g old v) then set_max g v

let observe h v =
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index v) 1);
  atomic_add_float h.h_sum v

let counter_value c = Atomic.get c

let gauge_value g = Atomic.get g

(* Pure histogram values: the snapshot form of a live histogram. *)
type hist = {
  buckets : int array; (* length [n_buckets], not cumulative *)
  sum : float;
  count : int;
}

(* Quantile as the upper boundary of the bucket holding the q-th ranked
   observation — the standard fixed-bucket estimate (what a Prometheus
   histogram_quantile reports, up to interpolation). [nan] on empty. *)
let hist_quantile h q =
  if h.count = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.max 1.0 (Float.round (q *. float_of_int h.count)) in
    let rank = int_of_float rank in
    let rec walk i acc =
      if i >= n_buckets - 1 then bucket_le i
      else
        let acc = acc + h.buckets.(i) in
        if acc >= rank then bucket_le i else walk (i + 1) acc
    in
    walk 0 0
  end

let hist_value h =
  let buckets = Array.map Atomic.get h.h_counts in
  {
    buckets;
    sum = Atomic.get h.h_sum;
    count = Array.fold_left ( + ) 0 buckets;
  }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}

let strip key = String.sub key 2 (String.length key - 2)

let snapshot_in t =
  let instruments =
    locked t (fun () -> Hashtbl.fold (fun k i acc -> (k, i) :: acc) t.tbl [])
  in
  let counters = ref []
  and gauges = ref []
  and histograms = ref [] in
  List.iter
    (fun (key, i) ->
      let name = strip key in
      match i with
      | Counter c -> counters := (name, Atomic.get c) :: !counters
      | Gauge g -> gauges := (name, Atomic.get g) :: !gauges
      | Histogram h -> histograms := (name, hist_value h) :: !histograms)
    instruments;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset_in t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.0
          | Histogram h ->
            Array.iter (fun c -> Atomic.set c 0) h.h_counts;
            Atomic.set h.h_sum 0.0)
        t.tbl)

(* Hand-rolled JSON: names are code-controlled but escape them anyway. *)
let to_json_in t =
  let s = snapshot_in t in
  let buf = Buffer.create 1024 in
  let obj fields =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, emit) ->
        if i > 0 then Buffer.add_string buf ", ";
        Json.add_string buf name;
        Buffer.add_string buf ": ";
        emit ())
      fields;
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\"counters\": ";
  obj
    (List.map
       (fun (n, v) -> (n, fun () -> Buffer.add_string buf (string_of_int v)))
       s.counters);
  Buffer.add_string buf ", \"gauges\": ";
  obj (List.map (fun (n, v) -> (n, fun () -> Json.add_float buf v)) s.gauges);
  Buffer.add_string buf ", \"histograms\": ";
  obj
    (List.map
       (fun (n, h) ->
         ( n,
           fun () ->
             Printf.ksprintf (Buffer.add_string buf)
               "{\"count\": %d, \"sum\": " h.count;
             Json.add_float buf h.sum;
             List.iter
               (fun (label, q) ->
                 Printf.ksprintf (Buffer.add_string buf) ", \"%s\": " label;
                 Json.add_float buf (hist_quantile h q))
               [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
             Buffer.add_string buf ", \"buckets\": [";
             let first = ref true in
             Array.iteri
               (fun i c ->
                 if c > 0 then begin
                   if not !first then Buffer.add_string buf ", ";
                   first := false;
                   let le = bucket_le i in
                   Buffer.add_char buf '[';
                   if Float.is_finite le then Json.add_float buf le
                   else Json.add_string buf "+Inf";
                   Printf.ksprintf (Buffer.add_string buf) ", %d]" c
                 end)
               h.buckets;
             Buffer.add_string buf "]}" ))
       s.histograms);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Prometheus text exposition (version 0.0.4): one # TYPE line per metric,
   histogram buckets cumulative with an le label. The output is sorted by
   name within each kind, so it is deterministic for a given snapshot. *)

let prom_name name =
  let mangled =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  "sdft_" ^ mangled

let prom_float v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%.17g" v

let to_prometheus_in t =
  let s = snapshot_in t in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (n, v) ->
      let pn = prom_name n in
      line "# TYPE %s counter" pn;
      line "%s %d" pn v)
    s.counters;
  List.iter
    (fun (n, v) ->
      let pn = prom_name n in
      line "# TYPE %s gauge" pn;
      line "%s %s" pn (prom_float v))
    s.gauges;
  List.iter
    (fun (n, h) ->
      let pn = prom_name n in
      line "# TYPE %s histogram" pn;
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          let le =
            let b = bucket_le i in
            if Float.is_finite b then Printf.sprintf "%g" b else "+Inf"
          in
          line "%s_bucket{le=\"%s\"} %d" pn le !cum)
        h.buckets;
      line "%s_sum %s" pn (prom_float h.sum);
      line "%s_count %d" pn h.count)
    s.histograms;
  Buffer.contents buf

type format =
  | Json_format
  | Prom_format

let write_file_in ?(format = Json_format) t path =
  let contents =
    match format with
    | Json_format -> to_json_in t ^ "\n"
    | Prom_format -> to_prometheus_in t
  in
  Atomic_io.write_file path contents
