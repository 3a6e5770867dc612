(* ZDD-backed cutset engine: a peer of MOCUS built on the BDD/ZDD layer.

   Per independent module of the (translated, static) tree — bottom-up —
   the module's structure function is compiled to a BDD in which nested
   module gates appear as pseudo-variables, the minimal solutions are
   extracted as a ZDD (Rauzy), and three quantities are folded out of the
   shared diagram without ever enumerating the family:

   - the rare-event mass [W] (sum over all minimal cutsets of the product
     of their probabilities), by {!Zdd.weighted_count} with a module
     pseudo-variable weighted by its own [W];
   - a saturating count of the minimal cutsets;
   - the enumeration bounds: the maximum single-cutset product and the
     minimum cutset cardinality, used to prune the top-k walk below.

   Modules have disjoint strict interiors (a basic shared across two
   subtrees prevents both from being modules), so the minimal cutsets of
   the whole tree are exactly the compositions of per-module minimal
   cutsets, and the rare-event mass factorizes through the pseudo-variable
   weights. The composition is only ever materialized for the cutsets
   above the caller's cutoff (and within its order bound) — everything
   below is accounted exactly by [total_mass - emitted_mass], which is what
   lets the analysis report a certified interval with zero unaccounted
   pruned mass where MOCUS can only bound what it dropped. *)

module Int_set = Sdft_util.Int_set
module Guard = Sdft_util.Guard
module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Obs = Sdft_util.Obs

let g = Metrics.group ()
let m_runs = Metrics.counter g "zdd.runs"
let m_modules = Metrics.counter g "zdd.modules"
let m_emitted = Metrics.counter g "zdd.cutsets_emitted"
let m_peak_nodes = Metrics.gauge g "zdd.peak_nodes"
let m_compilations = Metrics.counter g "zdd.compilations"
let s_run = Obs.declare_span g "zdd.run"

type module_stats = {
  ms_gate : int;
  ms_basics : int;
  ms_gates : int;
  ms_and : int;
  ms_or : int;
  ms_atleast : int;
  ms_inner_modules : int;
}

(* Stats of each module's *cut* subtree: the DFS stops at nested module
   gates (counted as leaves), because that is exactly the shape of the BDD
   the engine will compile for the module — the numbers the auto-selector
   needs. *)
let module_stats tree =
  let ng = Fault_tree.n_gates tree in
  let is_mod = Array.make ng false in
  let mods = Modules.find tree in
  List.iter (fun g -> is_mod.(g) <- true) mods;
  List.map
    (fun g ->
      let basics = ref Int_set.empty in
      let gates = ref 0
      and n_and = ref 0
      and n_or = ref 0
      and n_atleast = ref 0
      and inner = ref 0 in
      let seen_gate = Hashtbl.create 16 in
      let rec visit = function
        | Fault_tree.B b -> basics := Int_set.add b !basics
        | Fault_tree.G h ->
          if h <> g && is_mod.(h) then incr inner
          else if not (Hashtbl.mem seen_gate h) then begin
            Hashtbl.add seen_gate h ();
            incr gates;
            (match Fault_tree.gate_kind tree h with
            | Fault_tree.And -> incr n_and
            | Fault_tree.Or -> incr n_or
            | Fault_tree.Atleast _ -> incr n_atleast);
            Array.iter visit (Fault_tree.gate_inputs tree h)
          end
      in
      visit (Fault_tree.G g);
      {
        ms_gate = g;
        ms_basics = Int_set.cardinal !basics;
        ms_gates = !gates;
        ms_and = !n_and;
        ms_or = !n_or;
        ms_atleast = !n_atleast;
        ms_inner_modules = !inner;
      })
    mods

type result = {
  cutsets : Int_set.t list;
  total_mass : float;
  emitted_mass : float;
  residual_mass : float;
  n_minimal : int;
  n_minimal_saturated : bool;
  n_modules : int;
  max_zdd_nodes : int;
}

(* Per-module compiled state: what the structure alone decides. The ZDD
   manager is kept (node handles feed the folds and the enumeration below)
   but sealed: its construction tables go once the module is compiled. *)
type compiled_module = {
  cm_zm : Zdd.manager;
  cm_root : Zdd.node;
  cm_count : int;  (* saturating minimal-cutset count *)
  cm_min_order : int;  (* min cutset cardinality: order-pruning bound *)
}

type compiled = {
  c_basics : int;
  c_gates : int;
  c_top : int;
  c_order : int array;  (* module gates, children before parents *)
  c_modules : compiled_module option array;  (* per gate; [None] off-module *)
  c_max_nodes : int;
}

let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

(* K-of-N over already-compiled inputs: standard suffix DP
   [need i j] = "at least j of inputs i..n-1 fail". *)
let atleast bm inputs k =
  let n = Array.length inputs in
  let memo = Hashtbl.create 16 in
  let rec need i j =
    if j <= 0 then Bdd.one
    else if n - i < j then Bdd.zero
    else
      match Hashtbl.find_opt memo (i, j) with
      | Some f -> f
      | None ->
        let f =
          Bdd.apply_or bm
            (Bdd.apply_and bm inputs.(i) (need (i + 1) (j - 1)))
            (need (i + 1) j)
        in
        Hashtbl.add memo (i, j) f;
        f
  in
  need 0 k

let compile ?(guard = Guard.none) ?(obs = Obs.default) tree =
  (* One unamortized probe up front: on small trees the strided checks
     inside the BDD/ZDD recursions may never fire, and an already-expired
     deadline must surface as a generation limit, not leak into the
     quantification phase. *)
  Guard.check_now guard;
  let nb = Fault_tree.n_basics tree in
  let ng = Fault_tree.n_gates tree in
  (* Pseudo-variable space: basic [b] is variable [b]; nested module gate
     [h] is variable [nb + h] in its parent's BDD. *)
  let nv = nb + ng in
  let mods = Modules.find tree in
  let is_mod = Array.make ng false in
  List.iter (fun g -> is_mod.(g) <- true) mods;
  let modules = Array.make ng None in
  let info h = Option.get modules.(h) in
  let max_zdd_nodes = ref 0 in
  let compile_module g =
    Sdft_util.Failpoint.hit_in obs.Obs.failpoints "zdd.module";
    (* Variable order: first DFS visit from the module root, the same
       static-ordering heuristic [Bdd.of_fault_tree] uses — then the unused
       variables, to complete the permutation the manager requires. *)
    let seen_var = Array.make nv false in
    let seen_gate = Array.make ng false in
    let order = ref [] in
    let rec visit = function
      | Fault_tree.B b ->
        if not seen_var.(b) then begin
          seen_var.(b) <- true;
          order := b :: !order
        end
      | Fault_tree.G h ->
        if h <> g && is_mod.(h) then begin
          let v = nb + h in
          if not seen_var.(v) then begin
            seen_var.(v) <- true;
            order := v :: !order
          end
        end
        else if not seen_gate.(h) then begin
          seen_gate.(h) <- true;
          Array.iter visit (Fault_tree.gate_inputs tree h)
        end
    in
    seen_gate.(g) <- true;
    Array.iter visit (Fault_tree.gate_inputs tree g);
    let var_order = Array.make nv 0 in
    let k = ref 0 in
    List.iter
      (fun v ->
        var_order.(!k) <- v;
        incr k)
      (List.rev !order);
    for v = 0 to nv - 1 do
      if not seen_var.(v) then begin
        var_order.(!k) <- v;
        incr k
      end
    done;
    let bm = Bdd.manager ~var_order ~guard ~n_vars:nv () in
    let memo : (int, Bdd.node) Hashtbl.t = Hashtbl.create 64 in
    let rec build_gate h =
      match Hashtbl.find_opt memo h with
      | Some f -> f
      | None ->
        let inputs = Array.map build_node (Fault_tree.gate_inputs tree h) in
        let f =
          match Fault_tree.gate_kind tree h with
          | Fault_tree.And -> Array.fold_left (Bdd.apply_and bm) Bdd.one inputs
          | Fault_tree.Or -> Array.fold_left (Bdd.apply_or bm) Bdd.zero inputs
          | Fault_tree.Atleast k -> atleast bm inputs k
        in
        Hashtbl.add memo h f;
        f
    and build_node = function
      | Fault_tree.B b -> Bdd.var bm b
      | Fault_tree.G h ->
        if h <> g && is_mod.(h) then Bdd.var bm (nb + h) else build_gate h
    in
    let root = build_gate g in
    let zm, z = Minsol.minimal_cutsets_zdd bm root in
    let cnt_of v = if v < nb then 1 else (info (v - nb)).cm_count in
    let ord_of v = if v < nb then 1 else (info (v - nb)).cm_min_order in
    let count =
      Zdd.fold ~guard zm z ~bottom:0 ~top:1 ~node:(fun v low high ->
          sat_add low (sat_mul (cnt_of v) high))
    in
    let min_order =
      Zdd.fold ~guard zm z ~bottom:max_int ~top:0 ~node:(fun v low high ->
          min low (sat_add (ord_of v) high))
    in
    max_zdd_nodes := max !max_zdd_nodes (Zdd.size zm z);
    Zdd.seal zm;
    modules.(g) <-
      Some
        { cm_zm = zm; cm_root = z; cm_count = count; cm_min_order = min_order }
  in
  (* Children before parents, so a nested module's count and order exist
     by the time its parent's folds reference them. *)
  let order =
    Array.of_list
      (List.filter (fun g -> is_mod.(g))
         (Array.to_list (Fault_tree.topological_gates tree)))
  in
  Array.iter compile_module order;
  Metrics.incr (Metrics.get obs.Obs.metrics m_compilations);
  {
    c_basics = nb;
    c_gates = ng;
    c_top = Fault_tree.top tree;
    c_order = order;
    c_modules = modules;
    c_max_nodes = !max_zdd_nodes;
  }

(* This tree's probabilities on a compiled structure: each module's
   rare-event mass [w] and largest single-cutset product [mx], bottom-up,
   then the top-k walk. *)
let enumerate ~cutoff ?max_order ~guard c tree =
  if
    Fault_tree.n_basics tree <> c.c_basics
    || Fault_tree.n_gates tree <> c.c_gates
    || Fault_tree.top tree <> c.c_top
  then invalid_arg "Zdd_engine.run: compiled for another tree";
  Guard.check_now guard;
  let nb = c.c_basics in
  let info h = Option.get c.c_modules.(h) in
  let w = Array.make c.c_gates 0.0 and mx = Array.make c.c_gates 0.0 in
  Array.iter
    (fun g ->
      let mi = info g in
      let w_of v = if v < nb then Fault_tree.prob tree v else w.(v - nb) in
      let mx_of v = if v < nb then Fault_tree.prob tree v else mx.(v - nb) in
      w.(g) <- Zdd.weighted_count ~guard mi.cm_zm w_of mi.cm_root;
      mx.(g) <-
        Zdd.fold ~guard mi.cm_zm mi.cm_root ~bottom:0.0 ~top:1.0
          ~node:(fun v low high -> Float.max low (mx_of v *. high)))
    c.c_order;
  let top_gate = c.c_top in
  let top_info = info top_gate in
  let order_cap = match max_order with None -> max_int | Some k -> k in
  let out = ref [] in
  let emitted = Sdft_util.Kahan.create () in
  (* Composed enumeration. [enum h ctx_mx ctx_ord emit] produces every
     fully-expanded cutset of module [h] — basics only — as
     [emit basics prod ord], pruned against the caller's context: any
     emission will be multiplied by outer factors of product at most
     [ctx_mx] and cardinality at least [ctx_ord], so subtrees that cannot
     reach the cutoff (or that must overrun the order bound) are skipped
     wholesale. Pending nested modules encountered on a ZDD path are
     carried at their optimistic bounds ([mi_mx], [mi_min_order]) and
     expanded recursively once the path completes. *)
  let rec enum h ctx_mx ctx_ord emit =
    let zm = (info h).cm_zm in
    let rec walk acc prod ord pend_mx pend_ord pending node =
      Guard.check guard;
      if
        prod *. pend_mx *. ctx_mx >= cutoff
        && sat_add ord (sat_add pend_ord ctx_ord) <= order_cap
      then begin
        if node = Zdd.top then expand acc prod ord pending ctx_mx ctx_ord emit
        else if node <> Zdd.bottom then begin
          let v = Zdd.node_var zm node in
          walk acc prod ord pend_mx pend_ord pending (Zdd.node_low zm node);
          if v < nb then
            walk (Int_set.add v acc)
              (prod *. Fault_tree.prob tree v)
              (ord + 1) pend_mx pend_ord pending (Zdd.node_high zm node)
          else begin
            let u = v - nb in
            walk acc prod ord (pend_mx *. mx.(u))
              (sat_add pend_ord (info u).cm_min_order)
              (v - nb :: pending)
              (Zdd.node_high zm node)
          end
        end
      end
    in
    walk Int_set.empty 1.0 0 1.0 0 [] (info h).cm_root
  and expand acc prod ord pending ctx_mx ctx_ord emit =
    match pending with
    | [] -> emit acc prod ord
    | u :: rest ->
      let rest_mx =
        List.fold_left (fun a x -> a *. mx.(x)) 1.0 rest
      in
      let rest_ord =
        List.fold_left (fun a x -> sat_add a (info x).cm_min_order) 0 rest
      in
      enum u
        (ctx_mx *. prod *. rest_mx)
        (sat_add ctx_ord (sat_add ord rest_ord))
        (fun uacc uprod uord ->
          expand (Int_set.union acc uacc) (prod *. uprod) (sat_add ord uord)
            rest ctx_mx ctx_ord emit)
  in
  enum top_gate 1.0 0 (fun acc prod ord ->
      (* The walk pruned on optimistic bounds; the final product and
         cardinality are exact here. *)
      if prod >= cutoff && ord <= order_cap then begin
        out := acc :: !out;
        Sdft_util.Kahan.add emitted prod
      end);
  let cutsets = List.sort Int_set.compare !out in
  let emitted_mass = Sdft_util.Kahan.total emitted in
  let saturated = top_info.cm_count = max_int in
  {
    cutsets;
    total_mass = w.(top_gate);
    emitted_mass;
    (* Exact by construction — the weighted count covers every minimal
       cutset, the emitted sum covers the materialized ones. When every
       minimal cutset was emitted nothing was dropped, and the difference
       of the two sums is rounding, not mass; otherwise the clamp only
       absorbs last-ulp float noise. *)
    residual_mass =
      (if (not saturated) && top_info.cm_count = List.length cutsets then 0.0
       else Float.max 0.0 (w.(top_gate) -. emitted_mass));
    n_minimal = top_info.cm_count;
    n_minimal_saturated = saturated;
    n_modules = Array.length c.c_order;
    max_zdd_nodes = c.c_max_nodes;
  }

let run ?(cutoff = 0.0) ?max_order ?(guard = Guard.none) ?(obs = Obs.default)
    ?compiled tree =
  let m = obs.Obs.metrics in
  let sink = obs.Obs.trace in
  Obs.span obs s_run (fun () ->
      let c =
        match compiled with
        | Some get -> get ()
        | None -> compile ~guard ~obs tree
      in
      let r = enumerate ~cutoff ?max_order ~guard c tree in
      Metrics.incr (Metrics.get m m_runs);
      Metrics.add (Metrics.get m m_modules) r.n_modules;
      Metrics.add (Metrics.get m m_emitted) (List.length r.cutsets);
      Metrics.set_max (Metrics.get m m_peak_nodes)
        (float_of_int r.max_zdd_nodes);
      Trace.add_attr ~sink "modules" (Trace.Int r.n_modules);
      Trace.add_attr ~sink "emitted" (Trace.Int (List.length r.cutsets));
      Trace.add_attr ~sink "max_zdd_nodes" (Trace.Int r.max_zdd_nodes);
      r)
