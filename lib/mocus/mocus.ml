module Int_set = Sdft_util.Int_set
module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Failpoint = Sdft_util.Failpoint
module Obs = Sdft_util.Obs

(* Instrument handles, resolved once per run from the observability
   context's registry. The default context's handles are resolved once per
   process and reused, so the historical global-metrics path costs the same
   as before. *)
type handles = {
  s_run : Obs.span;
  s_minimize : Obs.span;
  m_runs : Metrics.counter;
  m_generated : Metrics.counter;
  m_pruned : Metrics.counter;
  m_deduped : Metrics.counter;
  m_cutsets : Metrics.counter;
  m_peak_stack : Metrics.gauge;
}

let handles_in m =
  {
    s_run = Obs.span_in m "mocus.run";
    s_minimize = Obs.span_in m "mocus.minimize";
    m_runs = Metrics.counter_in m "mocus.runs";
    m_generated = Metrics.counter_in m "mocus.partials_generated";
    m_pruned = Metrics.counter_in m "mocus.partials_pruned";
    m_deduped = Metrics.counter_in m "mocus.partials_deduped";
    m_cutsets = Metrics.counter_in m "mocus.cutsets";
    m_peak_stack = Metrics.gauge_max_in m "mocus.peak_stack_depth";
  }

let default_handles = handles_in Metrics.default

let handles_of m =
  if m == Metrics.default then default_handles else handles_in m

type options = {
  cutoff : float;
  max_order : int option;
}

let default_options = { cutoff = 1e-15; max_order = None }

type result = {
  cutsets : Cutset.t list;
  generated : int;
  pruned_by_cutoff : int;
  pruned_mass : float;
  truncated : bool;
  limit_hit : Sdft_util.Guard.reason option;
}

(* A partial cutset: basic events chosen to fail, gates still to be failed,
   and the probability product of the chosen basics (an upper bound on the
   probability of any cutset refining this partial one, since gates can only
   add more basic events). *)
type partial = {
  basics : Int_set.t;
  gates : Int_set.t;
  prob : float;
}

(* Per-gate probability estimate, computed bottom-up: sum for OR, product
   for AND, product of the k largest child estimates for K-of-N. Exact for
   tree-shaped subtrees over independent events; for DAGs with shared
   events the product rule can under-estimate, so the estimates only steer
   the expansion ORDER (always safe) and never the pruning. *)
let gate_estimates tree =
  let nb = Fault_tree.n_basics tree and ng = Fault_tree.n_gates tree in
  ignore nb;
  let est = Array.make ng 1.0 in
  let node_est = function
    | Fault_tree.B b -> Fault_tree.prob tree b
    | Fault_tree.G g -> est.(g)
  in
  Array.iter
    (fun g ->
      let inputs = Fault_tree.gate_inputs tree g in
      let v =
        match Fault_tree.gate_kind tree g with
        | Fault_tree.Or ->
          Float.min 1.0 (Array.fold_left (fun acc n -> acc +. node_est n) 0.0 inputs)
        | Fault_tree.And ->
          Array.fold_left (fun acc n -> acc *. node_est n) 1.0 inputs
        | Fault_tree.Atleast k ->
          let vals = Array.map node_est inputs in
          Array.sort (fun a b -> compare b a) vals;
          let acc = ref 1.0 in
          for i = 0 to k - 1 do
            acc := !acc *. vals.(i)
          done;
          !acc
      in
      est.(g) <- v)
    (Fault_tree.topological_gates tree);
  est

let run_inner ~options ~guard ~obs ~h tree =
  let fp = obs.Obs.failpoints in
  let sink = obs.Obs.trace in
  let tree = Expand.expand_atleast tree in
  let estimate = gate_estimates tree in
  let out = Sdft_util.Vec.create () in
  let pruned = ref 0 in
  let pruned_mass = Sdft_util.Kahan.create () in
  let deduped = ref 0 in
  let pushes = ref 0 in
  let seen : (Int_set.t * Int_set.t, unit) Hashtbl.t = Hashtbl.create 4096 in
  let stack = Stack.create () in
  let push p =
    incr pushes;
    let key = (p.basics, p.gates) in
    if Hashtbl.mem seen key then incr deduped
    else begin
      Hashtbl.add seen key ();
      Stack.push p stack
    end
  in
  let over_order basics =
    match options.max_order with
    | None -> false
    | Some k -> Int_set.cardinal basics > k
  in
  (* Expand AND gates first (no branching); among OR gates pick the one
     with the smallest probability estimate, so that improbable basics
     accumulate early and the cutoff prunes as soon as possible. *)
  let pick_gate gates =
    let gates = (gates : Int_set.t :> int array) in
    let n = Array.length gates in
    let best = ref (-1) and best_cost = ref infinity in
    let i = ref 0 in
    while !i < n do
      let g = gates.(!i) in
      (match Fault_tree.gate_kind tree g with
      | Fault_tree.And ->
        best := g;
        i := n (* AND wins outright: stop scanning *)
      | Fault_tree.Or ->
        if estimate.(g) < !best_cost then begin
          best := g;
          best_cost := estimate.(g)
        end
      | Fault_tree.Atleast _ -> assert false (* expanded above *));
      incr i
    done;
    !best
  in
  let add_node p node =
    match node with
    | Fault_tree.B b ->
      if Int_set.mem b p.basics then Some p
      else
        let prob = p.prob *. Fault_tree.prob tree b in
        Some { p with basics = Int_set.add b p.basics; prob }
    | Fault_tree.G g -> Some { p with gates = Int_set.add g p.gates }
  in
  let admit p =
    if p.prob < options.cutoff || over_order p.basics then begin
      incr pruned;
      (* Every cutset refining this partial contains its basics, so the
         probability that the pruned branch contributes a failure is at most
         the basics' product [p.prob] (independent events). The Kahan-summed
         total upper-bounds the union mass dropped by the cutoff and order
         bounds, and feeds the analysis error budget. *)
      Sdft_util.Kahan.add pruned_mass p.prob;
      false
    end
    else true
  in
  push
    {
      basics = Int_set.empty;
      gates = Int_set.singleton (Fault_tree.top tree);
      prob = 1.0;
    };
  let limit = ref None in
  let max_depth = ref 0 in
  (try
    (* The resource checkpoints sit before the pop so that, when a limit
       fires, every partial not yet refined is still on the stack and its
       mass can be folded below — nothing escapes the accounting. *)
    while not (Stack.is_empty stack) do
    Sdft_util.Guard.check guard;
    Failpoint.hit_in fp "mocus.expand";
    let depth = Stack.length stack in
    if depth > !max_depth then max_depth := depth;
    let p = Stack.pop stack in
    if Int_set.cardinal p.gates = 0 then Sdft_util.Vec.push out p.basics
    else begin
      let g = pick_gate p.gates in
      let rest = Int_set.remove g p.gates in
      let p = { p with gates = rest } in
      let inputs = Fault_tree.gate_inputs tree g in
      match Fault_tree.gate_kind tree g with
      | Fault_tree.And ->
        let refined =
          Array.fold_left
            (fun acc node ->
              match acc with
              | None -> None
              | Some q -> add_node q node)
            (Some p) inputs
        in
        (match refined with
        | Some q when admit q -> push q
        | Some _ | None -> ())
      | Fault_tree.Or ->
        Array.iter
          (fun node ->
            match add_node p node with
            | Some q when admit q -> push q
            | Some _ | None -> ())
          inputs
      | Fault_tree.Atleast _ -> assert false
    end
    done
  with
  | Sdft_util.Guard.Limit_hit r -> limit := Some r
  | Out_of_memory -> limit := Some Sdft_util.Guard.Mem_limit);
  (match !limit with
  | None -> ()
  | Some _ ->
    (* Graceful degradation: every unexplored partial upper-bounds the
       union probability of all cutsets refining it by its basics product
       (same argument as [admit]), so folding the remaining stack into the
       pruned mass keeps the downstream certified interval sound even
       though generation stopped early. The stack holds each pending
       partial exactly once (the [seen] table dedupes pushes). *)
    Stack.iter (fun p -> Sdft_util.Kahan.add pruned_mass p.prob) stack;
    Stack.clear stack);
  let generated = Sdft_util.Vec.length out in
  let cutsets =
    Obs.span obs h.s_minimize @@ fun () ->
    let cutsets = Cutset.minimize (Sdft_util.Vec.to_list out) in
    Trace.add_attr ~sink "candidates" (Trace.Int generated);
    Trace.add_attr ~sink "kept" (Trace.Int (List.length cutsets));
    cutsets
  in
  (* Publish the locally accumulated tallies with one atomic add each. *)
  Metrics.incr h.m_runs;
  Metrics.add h.m_generated !pushes;
  Metrics.add h.m_pruned !pruned;
  Metrics.add h.m_deduped !deduped;
  Metrics.add h.m_cutsets (List.length cutsets);
  Metrics.set_max h.m_peak_stack (float_of_int !max_depth);
  let result =
    {
      cutsets;
      generated;
      pruned_by_cutoff = !pruned;
      pruned_mass = Sdft_util.Kahan.total pruned_mass;
      truncated = false;
      limit_hit = !limit;
    }
  in
  Trace.add_attr ~sink "cutsets" (Trace.Int (List.length cutsets));
  Trace.add_attr ~sink "generated" (Trace.Int !pushes);
  Trace.add_attr ~sink "pruned" (Trace.Int !pruned);
  Trace.add_attr ~sink "pruned_mass" (Trace.Float result.pruned_mass);
  result

let run ?(options = default_options) ?(guard = Sdft_util.Guard.none)
    ?(obs = Obs.default) tree =
  let h = handles_of obs.Obs.metrics in
  Obs.span obs h.s_run (fun () -> run_inner ~options ~guard ~obs ~h tree)

let minimal_cutsets ?options ?guard ?obs tree =
  (run ?options ?guard ?obs tree).cutsets
