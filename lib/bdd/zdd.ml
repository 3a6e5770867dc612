(* Handles: 0 = bottom (empty family), 1 = top ({empty set}), >= 2 internal.
   Node (v, low, high) denotes low ∪ { s ∪ {v} | s ∈ high }; zero-suppression
   rule: high = bottom collapses to low. *)

type node = int

type manager = {
  nv : int;
  level_of : int array;
  var_of : int array;
  mutable guard : Sdft_util.Guard.t;
  vars : int Sdft_util.Vec.t;
  lows : int Sdft_util.Vec.t;
  highs : int Sdft_util.Vec.t;
  mutable unique : (int * int * int, int) Hashtbl.t;
  mutable without_cache : (int * int, int) Hashtbl.t;
  mutable sealed : bool;
}

let bottom = 0

let top = 1

let is_terminal n = n < 2

let manager ?var_order ?(guard = Sdft_util.Guard.none) ~n_vars () =
  let var_of =
    match var_order with
    | None -> Array.init n_vars (fun i -> i)
    | Some order ->
      if Array.length order <> n_vars then
        invalid_arg "Zdd.manager: var_order has wrong length";
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
    guard;
    vars = Sdft_util.Vec.create ();
    lows = Sdft_util.Vec.create ();
    highs = Sdft_util.Vec.create ();
    unique = Hashtbl.create (initial_size 1024);
    without_cache = Hashtbl.create (initial_size 1024);
    sealed = false;
  }

(* A finished diagram is only read: its unique and memo tables, and the
   guard its construction answered to, go; the node store stays. *)
let seal m =
  m.unique <- Hashtbl.create 1;
  m.without_cache <- Hashtbl.create 1;
  m.guard <- Sdft_util.Guard.none;
  m.sealed <- true

let node_var m n = Sdft_util.Vec.get m.vars (n - 2)

let node_low m n = Sdft_util.Vec.get m.lows (n - 2)

let node_high m n = Sdft_util.Vec.get m.highs (n - 2)

let level m n = if is_terminal n then max_int else m.level_of.(node_var m n)

(* As in [Bdd.mk], the cons point funnels every construction, so an
   amortized guard probe here covers every construction — but [without]
   also probes on its own entry, because a memo-heavy recursion can traverse
   large shared structures while consing nothing new. *)
let mk m v low high =
  Sdft_util.Guard.check m.guard;
  if high = bottom then low
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

let make_node m v low high =
  if m.sealed then invalid_arg "Zdd.make_node: sealed manager";
  if v < 0 || v >= m.nv then invalid_arg "Zdd.make_node: variable out of range";
  let lv = m.level_of.(v) in
  if lv >= level m low || lv >= level m high then
    invalid_arg "Zdd.make_node: variable must be above both children";
  mk m v low high

let rec has_empty m n =
  if n = top then true
  else if n = bottom then false
  else has_empty m (node_low m n)

(* Remove from [a] all sets that are supersets of some set in [b]. *)
let rec subsume m a b =
  Sdft_util.Guard.check m.guard;
  if a = bottom then bottom
  else if b = bottom then a
  else if b = top then bottom (* the empty set subsumes everything *)
  else if a = top then
    (* the empty set is subsumed only by the empty set, which b may contain
       deeper down its low chain even though b is not the top terminal *)
    if has_empty m b then bottom else top
  else if a = b then bottom (* every set subsumes itself *)
  else begin
    let key = (a, b) in
    match Hashtbl.find_opt m.without_cache key with
    | Some r -> r
    | None ->
      let la = level m a and lb = level m b in
      let r =
        if la < lb then
          (* b's sets do not mention a's top variable; a set with or without
             it is subsumed iff the rest is. *)
          mk m (node_var m a) (subsume m (node_low m a) b) (subsume m (node_high m a) b)
        else if lb < la then
          (* a's sets never contain b's top variable, so only b's sets
             without it can subsume. *)
          subsume m a (node_low m b)
        else begin
          let v = node_var m a in
          let low = subsume m (node_low m a) (node_low m b) in
          let high =
            subsume m (subsume m (node_high m a) (node_high m b)) (node_low m b)
          in
          mk m v low high
        end
      in
      Hashtbl.add m.without_cache key r;
      r
  end

let without m a b =
  if m.sealed then invalid_arg "Zdd.without: sealed manager";
  subsume m a b

(* Bottom-up memoized fold, with an explicit worklist instead of recursion:
   a chain-shaped ZDD (one node per level) is as deep as the variable count,
   and recursing down it overflows the native stack long before the node
   store is any burden. A node is popped once its children have values; a
   node whose children are pending stays on the worklist below them. *)
let fold ?guard m root ~bottom:vbot ~top:vtop ~node =
  let guard = Option.value guard ~default:m.guard in
  let memo = Hashtbl.create 64 in
  let value n =
    if n = bottom then Some vbot
    else if n = top then Some vtop
    else Hashtbl.find_opt memo n
  in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest -> (
      Sdft_util.Guard.check guard;
      match value n with
      | Some _ -> stack := rest
      | None -> (
        let low = node_low m n and high = node_high m n in
        match (value low, value high) with
        | Some lv, Some hv ->
          Hashtbl.replace memo n (node (node_var m n) lv hv);
          stack := rest
        | lv, hv ->
          if hv = None then stack := high :: !stack;
          if lv = None then stack := low :: !stack))
  done;
  match value root with Some v -> v | None -> assert false

let weighted_count ?guard m w n =
  fold ?guard m n ~bottom:0.0 ~top:1.0 ~node:(fun v low high -> low +. (w v *. high))

let iter_sets m root f =
  (* Explicit stack, same DFS order as the natural recursion (low branch
     fully before the high branch); the accumulated prefixes share tails. *)
  let stack = ref [ ([], root) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (acc, n) :: rest ->
      Sdft_util.Guard.check m.guard;
      if n = top then begin
        stack := rest;
        f (List.rev acc)
      end
      else if n = bottom then stack := rest
      else
        stack :=
          (acc, node_low m n) :: (node_var m n :: acc, node_high m n) :: rest
  done

let to_cutsets m root =
  let out = ref [] in
  iter_sets m root (fun s -> out := Sdft_util.Int_set.of_list s :: !out);
  List.rev !out

let size m n =
  let seen = Hashtbl.create 64 in
  let stack = ref [ n ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      if (not (is_terminal n)) && not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        stack := node_low m n :: node_high m n :: !stack
      end
  done;
  Hashtbl.length seen
