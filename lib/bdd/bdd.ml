(* Terminals are the handles 0 (false) and 1 (true); internal nodes are
   handles >= 2 indexing the [vars]/[lows]/[highs] vectors (offset by 2). *)

type node = int

type manager = {
  nv : int;
  level_of : int array; (* variable -> level, smaller = closer to root *)
  var_of : int array; (* level -> variable *)
  vars : int Sdft_util.Vec.t;
  lows : int Sdft_util.Vec.t;
  highs : int Sdft_util.Vec.t;
  unique : (int * int * int, int) Hashtbl.t;
  and_cache : (int * int, int) Hashtbl.t;
  or_cache : (int * int, int) Hashtbl.t;
  guard : Sdft_util.Guard.t;
}

let zero = 0

let one = 1

let is_terminal n = n < 2

let manager ?var_order ?(guard = Sdft_util.Guard.none) ~n_vars () =
  if n_vars < 0 then invalid_arg "Bdd.manager: negative variable count";
  let var_of =
    match var_order with
    | None -> Array.init n_vars (fun i -> i)
    | Some order ->
      if Array.length order <> n_vars then
        invalid_arg "Bdd.manager: var_order has wrong length";
      let seen = Array.make n_vars false in
      Array.iter
        (fun v ->
          if v < 0 || v >= n_vars || seen.(v) then
            invalid_arg "Bdd.manager: var_order is not a permutation";
          seen.(v) <- true)
        order;
      Array.copy order
  in
  let level_of = Array.make n_vars 0 in
  Array.iteri (fun level v -> level_of.(v) <- level) var_of;
  (* Tables start at a few entries per variable, up to the sizes that suit
     the widest modules, and grow as they fill: a module of a handful of
     events (most of a small tree's) would otherwise spend more time
     allocating and clearing empty tables than compiling. *)
  let initial_size largest = min largest (8 * n_vars) in
  {
    nv = n_vars;
    level_of;
    var_of;
    vars = Sdft_util.Vec.create ();
    lows = Sdft_util.Vec.create ();
    highs = Sdft_util.Vec.create ();
    unique = Hashtbl.create (initial_size 1024);
    and_cache = Hashtbl.create (initial_size 1024);
    or_cache = Hashtbl.create (initial_size 1024);
    guard;
  }

let n_vars m = m.nv

let guard m = m.guard

let node_var m n =
  if is_terminal n then invalid_arg "Bdd.node_var: terminal";
  Sdft_util.Vec.get m.vars (n - 2)

let node_low m n =
  if is_terminal n then invalid_arg "Bdd.node_low: terminal";
  Sdft_util.Vec.get m.lows (n - 2)

let node_high m n =
  if is_terminal n then invalid_arg "Bdd.node_high: terminal";
  Sdft_util.Vec.get m.highs (n - 2)

let level m n = if is_terminal n then max_int else m.level_of.(node_var m n)

let mk m v low high =
  (* The cons point is the one place every BDD construction funnels through,
     so an amortized guard probe here covers apply/compile uniformly. *)
  Sdft_util.Guard.check m.guard;
  if low = high then low
  else begin
    let key = (v, low, high) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      let id = Sdft_util.Vec.length m.vars + 2 in
      Sdft_util.Vec.push m.vars v;
      Sdft_util.Vec.push m.lows low;
      Sdft_util.Vec.push m.highs high;
      Hashtbl.add m.unique key id;
      id
  end

let var m v =
  if v < 0 || v >= m.nv then invalid_arg "Bdd.var: out of range";
  mk m v zero one

let level_of_var m v =
  if v < 0 || v >= m.nv then invalid_arg "Bdd.level_of_var: out of range";
  m.level_of.(v)

let cofactors m top n =
  if is_terminal n || level m n > top then (n, n)
  else (node_low m n, node_high m n)

let rec apply_and m a b =
  if a = zero || b = zero then zero
  else if a = one then b
  else if b = one then a
  else if a = b then a
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.and_cache key with
    | Some r -> r
    | None ->
      let top = min (level m a) (level m b) in
      let a0, a1 = cofactors m top a and b0, b1 = cofactors m top b in
      let r = mk m m.var_of.(top) (apply_and m a0 b0) (apply_and m a1 b1) in
      Hashtbl.add m.and_cache key r;
      r
  end

let rec apply_or m a b =
  if a = one || b = one then one
  else if a = zero then b
  else if b = zero then a
  else if a = b then a
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.or_cache key with
    | Some r -> r
    | None ->
      let top = min (level m a) (level m b) in
      let a0, a1 = cofactors m top a and b0, b1 = cofactors m top b in
      let r = mk m m.var_of.(top) (apply_or m a0 b0) (apply_or m a1 b1) in
      Hashtbl.add m.or_cache key r;
      r
  end

let probability m p root =
  let memo = Hashtbl.create 256 in
  let rec go n =
    if n = zero then 0.0
    else if n = one then 1.0
    else
      match Hashtbl.find_opt memo n with
      | Some x -> x
      | None ->
        let pv = p (node_var m n) in
        let x =
          (pv *. go (node_high m n)) +. ((1.0 -. pv) *. go (node_low m n))
        in
        Hashtbl.add memo n x;
        x
  in
  go root

let rec eval m assignment n =
  if n = zero then false
  else if n = one then true
  else if assignment (node_var m n) then eval m assignment (node_high m n)
  else eval m assignment (node_low m n)

(* Variable order by first DFS visit from the given root gate: keeps
   structurally related events adjacent, the usual static heuristic. *)
let dfs_order tree root_gate =
  let nb = Fault_tree.n_basics tree in
  let order = Sdft_util.Vec.create () in
  let seen_b = Array.make nb false in
  let seen_g = Array.make (Fault_tree.n_gates tree) false in
  let rec walk_gate g =
    if not seen_g.(g) then begin
      seen_g.(g) <- true;
      Array.iter
        (function
          | Fault_tree.B b ->
            if not seen_b.(b) then begin
              seen_b.(b) <- true;
              Sdft_util.Vec.push order b
            end
          | Fault_tree.G g' -> walk_gate g')
        (Fault_tree.gate_inputs tree g)
    end
  in
  walk_gate root_gate;
  (* Events not under the root keep their natural order at the bottom. *)
  for b = 0 to nb - 1 do
    if not seen_b.(b) then Sdft_util.Vec.push order b
  done;
  Sdft_util.Vec.to_array order

let compile m tree ~assume root_gate =
  let n_gates = Fault_tree.n_gates tree in
  let memo = Array.make n_gates (-1) in
  let node_of_basic b =
    match assume b with
    | Some true -> one
    | Some false -> zero
    | None -> var m b
  in
  let rec gate g =
    if memo.(g) >= 0 then memo.(g)
    else begin
      let inputs = Fault_tree.gate_inputs tree g in
      let input_node = function
        | Fault_tree.B b -> node_of_basic b
        | Fault_tree.G g' -> gate g'
      in
      let r =
        match Fault_tree.gate_kind tree g with
        | Fault_tree.And ->
          Array.fold_left (fun acc n -> apply_and m acc (input_node n)) one inputs
        | Fault_tree.Or ->
          Array.fold_left (fun acc n -> apply_or m acc (input_node n)) zero inputs
        | Fault_tree.Atleast k ->
          (* atleast(k, xs): dynamic programming over suffixes. acc.(j) is
             "at least j of the inputs seen so far" after each step. *)
          let njs = Array.length inputs in
          let acc = Array.make (k + 1) zero in
          acc.(0) <- one;
          for i = 0 to njs - 1 do
            let x = input_node inputs.(i) in
            for j = min k (i + 1) downto 1 do
              acc.(j) <- apply_or m acc.(j) (apply_and m x acc.(j - 1))
            done
          done;
          acc.(k)
      in
      memo.(g) <- r;
      r
    end
  in
  gate root_gate

let of_fault_tree_gate ?(assume = fun _ -> None) ?guard tree g =
  let order = dfs_order tree g in
  let m =
    manager ~var_order:order ?guard ~n_vars:(Fault_tree.n_basics tree) ()
  in
  let root = compile m tree ~assume g in
  (m, root)

let of_fault_tree ?assume ?guard tree =
  of_fault_tree_gate ?assume ?guard tree (Fault_tree.top tree)
