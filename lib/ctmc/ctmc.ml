(* Flat CSR representation: row [i] owns the index range
   [row_ptr.(i) .. row_end.(i) - 1] of [cols]/[rates]. For freshly built
   chains [row_end.(i) = row_ptr.(i + 1)]; [restrict_absorbing] produces
   views that share [row_ptr]/[cols]/[rates] and only replace [row_end]
   (emptied rows) and [exit], and chains instantiated from one [plan] share
   [row_ptr]/[cols]. [rates] is an unboxed float array, so the hot
   uniformization loop is two flat-array reads per transition instead of a
   pointer chase through boxed [(int * float)] pairs. *)
type t = {
  n : int;
  row_ptr : int array; (* length n + 1 *)
  row_end : int array; (* length n *)
  cols : int array;
  rates : float array;
  exit : float array;
}

let validate_edge n_states src dst =
  if src < 0 || src >= n_states || dst < 0 || dst >= n_states then
    invalid_arg "Ctmc.make: state out of range";
  if src = dst then invalid_arg "Ctmc.make: self-loop"

let validate_rate rate =
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Ctmc.make: rate must be positive and finite"

(* Stable insertion sort of the row segment [lo, hi) by destination, keeping
   [cols] and [refs] in step. Rows are tiny (a handful of entries), and an
   int comparison avoids the polymorphic [compare] on boxed pairs. *)
let sort_row_segment cols refs lo hi =
  for k = lo + 1 to hi - 1 do
    let c = cols.(k) and r = refs.(k) in
    let j = ref k in
    while !j > lo && cols.(!j - 1) > c do
      cols.(!j) <- cols.(!j - 1);
      refs.(!j) <- refs.(!j - 1);
      decr j
    done;
    cols.(!j) <- c;
    refs.(!j) <- r
  done

(* A chain's structure without its rates: the CSR layout, plus for every
   merged entry [k] the rate references it sums, references [ref_ptr.(k)]
   to [ref_ptr.(k + 1) - 1] of [refs], listed in summation order. An entry
   without duplicates is a range of length one. *)
type plan = {
  p_n : int;
  p_row_ptr : int array;
  p_cols : int array;
  ref_ptr : int array; (* length (number of entries) + 1 *)
  refs : int array;
}

(* Counting pass + bucket fill in input order, a stable per-row sort, then
   a merge of duplicate destinations. A run of duplicates is reversed in
   place, so its references read last-to-first — the historical
   hashtable-accumulator order, which every instantiation then sums bit
   for bit. Each run keeps its length, so [refs] needs no compaction. The
   merged entries are counted before the merge, so each output array is
   allocated once, at its final size. *)
let plan ~n_states ~srcs ~dsts ~refs:in_refs =
  if n_states <= 0 then invalid_arg "Ctmc.make: need at least one state";
  let total = Array.length srcs in
  if Array.length dsts <> total || Array.length in_refs <> total then
    invalid_arg "Ctmc: mismatched array lengths";
  let row_ptr = Array.make (n_states + 1) 0 in
  for k = 0 to total - 1 do
    validate_edge n_states srcs.(k) dsts.(k);
    row_ptr.(srcs.(k) + 1) <- row_ptr.(srcs.(k) + 1) + 1
  done;
  for i = 0 to n_states - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let cols = Array.make total 0 and refs = Array.make total 0 in
  let fill = Array.sub row_ptr 0 n_states in
  for k = 0 to total - 1 do
    let src = srcs.(k) in
    let slot = fill.(src) in
    cols.(slot) <- dsts.(k);
    refs.(slot) <- in_refs.(k);
    fill.(src) <- slot + 1
  done;
  let merged = ref 0 in
  for i = 0 to n_states - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    sort_row_segment cols refs lo hi;
    for k = lo to hi - 1 do
      if k = lo || cols.(k) <> cols.(k - 1) then incr merged
    done
  done;
  let merged_ptr = Array.make (n_states + 1) 0 in
  let merged_cols = Array.make !merged 0 in
  let ref_ptr = Array.make (!merged + 1) 0 in
  let w = ref 0 in
  for i = 0 to n_states - 1 do
    merged_ptr.(i) <- !w;
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let k = ref lo in
    while !k < hi do
      let dst = cols.(!k) in
      let last = ref !k in
      while !last + 1 < hi && cols.(!last + 1) = dst do incr last done;
      for p = 0 to ((!last - !k + 1) / 2) - 1 do
        let a = !k + p and b = !last - p in
        let r = refs.(a) in
        refs.(a) <- refs.(b);
        refs.(b) <- r
      done;
      merged_cols.(!w) <- dst;
      ref_ptr.(!w) <- !k;
      incr w;
      k := !last + 1
    done
  done;
  merged_ptr.(n_states) <- !w;
  ref_ptr.(!w) <- total;
  {
    p_n = n_states;
    p_row_ptr = merged_ptr;
    p_cols = merged_cols;
    ref_ptr;
    refs;
  }

let instantiate p in_rates =
  let rate_of q =
    let rate = in_rates.(p.refs.(q)) in
    validate_rate rate;
    rate
  in
  let rates =
    Array.init (Array.length p.p_cols) (fun k ->
        let lo = p.ref_ptr.(k) in
        let acc = ref (rate_of lo) in
        for q = lo + 1 to p.ref_ptr.(k + 1) - 1 do
          acc := !acc +. rate_of q
        done;
        !acc)
  in
  let exit = Array.make p.p_n 0.0 in
  for i = 0 to p.p_n - 1 do
    let acc = ref 0.0 in
    for k = p.p_row_ptr.(i) to p.p_row_ptr.(i + 1) - 1 do
      acc := !acc +. rates.(k)
    done;
    exit.(i) <- !acc
  done;
  {
    n = p.p_n;
    row_ptr = p.p_row_ptr;
    row_end = Array.sub p.p_row_ptr 1 p.p_n;
    cols = p.p_cols;
    rates;
    exit;
  }

let of_arrays ~n_states ~srcs ~dsts ~rates =
  instantiate
    (plan ~n_states ~srcs ~dsts ~refs:(Array.init (Array.length rates) Fun.id))
    rates

let make ~n_states ~transitions =
  let ts = Array.of_list transitions in
  of_arrays ~n_states
    ~srcs:(Array.map (fun (s, _, _) -> s) ts)
    ~dsts:(Array.map (fun (_, d, _) -> d) ts)
    ~rates:(Array.map (fun (_, _, r) -> r) ts)

let n_states c = c.n

let row_ptr c = c.row_ptr

let row_end c = c.row_end

let cols c = c.cols

let rates c = c.rates

let exit_rates c = c.exit

let rate c i j =
  if i < 0 || i >= c.n || j < 0 || j >= c.n then
    invalid_arg "Ctmc.rate: state out of range";
  let rec loop k =
    if k >= c.row_end.(i) then 0.0
    else if c.cols.(k) = j then c.rates.(k)
    else loop (k + 1)
  in
  loop c.row_ptr.(i)

let exit_rate c i =
  if i < 0 || i >= c.n then invalid_arg "Ctmc.exit_rate: state out of range";
  c.exit.(i)

let max_exit_rate c = Array.fold_left max 0.0 c.exit

let iter_row c i f =
  if i < 0 || i >= c.n then invalid_arg "Ctmc.iter_row: state out of range";
  for k = c.row_ptr.(i) to c.row_end.(i) - 1 do
    f c.cols.(k) c.rates.(k)
  done

let outgoing c i =
  if i < 0 || i >= c.n then invalid_arg "Ctmc.outgoing: state out of range";
  let lo = c.row_ptr.(i) in
  Array.init (c.row_end.(i) - lo) (fun k -> (c.cols.(lo + k), c.rates.(lo + k)))

let n_transitions c =
  let acc = ref 0 in
  for i = 0 to c.n - 1 do
    acc := !acc + (c.row_end.(i) - c.row_ptr.(i))
  done;
  !acc

let iter_transitions c f =
  for src = 0 to c.n - 1 do
    for k = c.row_ptr.(src) to c.row_end.(src) - 1 do
      f src c.cols.(k) c.rates.(k)
    done
  done

let restrict_absorbing c is_absorbing =
  (* Share [row_ptr]/[cols]/[rates]; only the per-row end markers and the
     exit rates change. The parent chain is never mutated. *)
  let row_end =
    Array.init c.n (fun i -> if is_absorbing i then c.row_ptr.(i) else c.row_end.(i))
  in
  let exit = Array.init c.n (fun i -> if is_absorbing i then 0.0 else c.exit.(i)) in
  { c with row_end; exit }

let embedded_dtmc_row c i =
  let e = c.exit.(i) in
  if e = 0.0 then [||]
  else begin
    let lo = c.row_ptr.(i) in
    Array.init (c.row_end.(i) - lo) (fun k ->
        (c.cols.(lo + k), c.rates.(lo + k) /. e))
  end

let pp ppf c =
  Format.fprintf ppf "@[<v>CTMC with %d states, %d transitions@," c.n
    (n_transitions c);
  iter_transitions c (fun src dst r ->
      Format.fprintf ppf "  %d -> %d @@ %g@," src dst r);
  Format.fprintf ppf "@]"
