module Metrics = Sdft_util.Metrics
module Trace = Sdft_util.Trace
module Obs = Sdft_util.Obs
module Canon = Sdft_util.Canon

let g = Metrics.group ()
let m_runs = Metrics.counter g "analysis.runs"
let s_analyze = Obs.declare_span g "analysis.analyze"
let s_mcs = Obs.declare_span g "analysis.mcs_generation"
let s_quant = Obs.declare_span g "analysis.quantification"
let s_cutset = Obs.declare_span g "analysis.cutset"
let m_fallbacks = Metrics.counter g "analysis.fallbacks"
let m_product_states = Metrics.counter g "analysis.product_states"
let m_cutsets = Metrics.counter g "analysis.cutsets_quantified"
let m_solve_s = Metrics.histogram g "analysis.cutset_solve_s"

type engine = Mocus_sound | Zdd_engine | Auto

let engines = [ ("mocus", Mocus_sound); ("zdd", Zdd_engine); ("auto", Auto) ]

let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

type options = {
  horizon : float;
  cutoff : float;
  transient_epsilon : float;
  max_product_states : int;
  max_cutset_order : int option;
  engine : engine;
  domains : int;
  rel_rule : Cutset_model.rel_rule;
  deadline : float option;
  mem_limit_mb : int option;
}

let default_options =
  {
    horizon = 24.0;
    cutoff = 1e-15;
    transient_epsilon = 1e-12;
    max_product_states = 1_000_000;
    max_cutset_order = None;
    engine = Auto;
    domains = Domain.recommended_domain_count ();
    rel_rule = Cutset_model.Paper;
    deadline = None;
    mem_limit_mb = None;
  }

(* Auto-selection threshold on a module's effective variable width. BDD
   sizes are exponential in the worst case in the number of variables of one
   module (nested modules collapse to single pseudo-variables, so only the
   module's own cut width counts); atleast gates additionally multiply the
   diagram's width by their threshold, so they weigh in. Below the bound the
   ZDD engine's exact residual accounting wins; above it MOCUS's anytime
   behaviour (a sound partial list with bounded pruned mass) is the safer
   default. The bound is deliberately generous — realistic tree-shaped
   structure functions compile fine at this width (the industrial benchmark
   tops out at 86), and a pathological case still degrades soundly through
   the resource guard rather than hanging. Past it the gap is wide: on
   random trees of 200 basics and 150 gates (widest module 260-263) MOCUS
   generates the same cutsets in about 1 ms where ZDD needs 0.3-9 s. This
   is [Auto]'s only rule. *)
let zdd_max_module_width = 128

let resolve_engine engine tree =
  match engine with
  | Mocus_sound | Zdd_engine -> engine
  | Auto ->
    if
      List.exists
        (fun s ->
          s.Zdd_engine.ms_basics + s.Zdd_engine.ms_inner_modules
          + (4 * s.Zdd_engine.ms_atleast)
          > zdd_max_module_width)
        (Zdd_engine.module_stats tree)
    then Mocus_sound
    else Zdd_engine

let generate ?compiled ~cutoff ~max_order ~guard ~obs engine tree =
  let empty_on limit =
    (* Unlike MOCUS there is no sound partial cutset list to salvage from
       an interrupted ZDD compilation, and no mass bound for what is
       missing: return an empty truncated (hence vacuous) result. *)
    {
      Mocus.cutsets = [];
      generated = 0;
      pruned_by_cutoff = 0;
      pruned_mass = 0.0;
      truncated = true;
      limit_hit = Some limit;
    }
  in
  match engine with
  | Auto -> assert false (* resolved by every caller *)
  | Mocus_sound ->
    let options = { Mocus.cutoff; max_order } in
    Mocus.run ~options ~guard ~obs tree
  | Zdd_engine -> (
    match Zdd_engine.run ~cutoff ?max_order ~guard ~obs ?compiled tree with
    | r ->
      let emitted = List.length r.Zdd_engine.cutsets in
      {
        Mocus.cutsets = r.Zdd_engine.cutsets;
        generated =
          (if r.Zdd_engine.n_minimal_saturated then max_int
           else r.Zdd_engine.n_minimal);
        pruned_by_cutoff =
          (if r.Zdd_engine.n_minimal_saturated then max_int
           else r.Zdd_engine.n_minimal - emitted);
        (* Exact, not an upper bound: the ZDD weighted count covers the mass
           of every minimal cutset without enumerating them, so what the
           cutoff and order bounds dropped is accounted to the last bit and
           the certified interval stays non-vacuous. *)
        pruned_mass = r.Zdd_engine.residual_mass;
        truncated = false;
        limit_hit = None;
      }
    | exception Sdft_util.Guard.Limit_hit r -> empty_on r
    | exception Out_of_memory -> empty_on Sdft_util.Guard.Mem_limit)

let generate_cutsets ?(cutoff = 1e-15) ?(max_order = None)
    ?(guard = Sdft_util.Guard.none) ?(obs = Obs.default) engine tree =
  generate ~cutoff ~max_order ~guard ~obs (resolve_engine engine tree) tree

(* One guard per analysis: the deadline spans generation and quantification
   together, so a generation overrun eats the budget of the quantification
   phase (which then degrades cutset by cutset). A live progress reporter
   rides the same guard: its probe callback runs at the guard's amortized
   stride, so an unlimited-but-observed analysis keeps a (passive-limit)
   guard just for the heartbeat. *)
let resource_guard ?(obs = Obs.default) options =
  match (options.deadline, options.mem_limit_mb, Obs.on_probe obs) with
  | None, None, None -> Sdft_util.Guard.none
  | deadline, mem_limit_mb, on_probe ->
    Sdft_util.Guard.create ?deadline ?mem_limit_mb ?on_probe ()

type phase1 = {
  translation : Sdft_translate.result;
  engine_used : engine;
  generation : Mocus.result;
  generation_seconds : float;
}

(* What the plan learns of a cutset from its FT_C, at any horizon: the
   FT_C's digest ([None] without a chain), the static multiplier (without
   a chain, the cutset's probability: 0 when impossible), the dynamic
   counts, and the shape id, [-1] until the cutset's first cache miss. *)
type planned = {
  digest : string option;
  multiplier : float;
  dyn : int;
  added : int;
  shape : int;
}

(* A model's horizon-independent work, filled on first use and never with
   a partial result: the FT_C context, one plan memo per rel-rule, the
   shape ids, the ZDD engine's compiled structure of the translated tree
   and [Auto]'s choice for it. [lock] guards every table and field; no
   computation runs under it. No FT_C is kept. *)
type prepared = {
  sd : Sdft.t;
  lock : Mutex.t;
  context : Cutset_model.context;
  memos : (Cutset.t, planned) Hashtbl.t array;
  shapes : (int array, int) Hashtbl.t;
  mutable compiled : Zdd_engine.compiled option;
  mutable auto : engine option;
}

let m_memo_hits = Metrics.counter g "analysis.plan_memo_hits"

(* A model is read-only once its lazy descendant caches are forced, so
   any number of domains may read it. *)
let force_descendants sd =
  let tree = Sdft.tree sd in
  for g = 0 to Fault_tree.n_gates tree - 1 do
    ignore (Fault_tree.descendant_basics tree g);
    ignore (Sdft.dynamic_descendants sd g)
  done

let unforced sd =
  {
    sd;
    lock = Mutex.create ();
    context = Cutset_model.context sd;
    memos = Array.init 2 (fun _ -> Hashtbl.create 64);
    shapes = Hashtbl.create 16;
    compiled = None;
    auto = None;
  }

let prepare sd =
  force_descendants sd;
  unforced sd

let memo_of prep = function
  | Cutset_model.Paper -> prep.memos.(0)
  | Cutset_model.All_events -> prep.memos.(1)

(* A part of [prep], computed outside its lock on first use, so a long
   compilation never blocks the model's other analyses, and stored only
   once complete: a guard trip or a failpoint leaves it empty. Concurrent
   first uses may both compute it; the first to finish is kept. *)
let fill prep get set compute =
  match Mutex.protect prep.lock get with
  | Some v -> v
  | None ->
    let v = compute () in
    Mutex.protect prep.lock (fun () ->
        match get () with
        | Some v -> v
        | None ->
          set v;
          v)

let compiled_zdd prep ~guard ~obs tree () =
  fill prep
    (fun () -> prep.compiled)
    (fun c -> prep.compiled <- Some c)
    (fun () -> Zdd_engine.compile ~guard ~obs tree)

let auto_engine prep tree =
  fill prep
    (fun () -> prep.auto)
    (fun e -> prep.auto <- Some e)
    (fun () -> resolve_engine Auto tree)

(* [Auto] is resolved against the translated tree, whose modules include
   the trigger conjunctions, and the concrete choice is recorded as
   provenance. Through [prep], the choice and the ZDD structure come from
   the model's first analysis: a translation changes only probabilities. *)
let front ?prep ~guard ~obs options sd =
  let sink = obs.Obs.trace in
  Obs.begin_phase obs "generation" ();
  let (translation, engine_used, generation), generation_seconds =
    Obs.span_timed obs s_mcs (fun () ->
        let translation =
          Sdft_translate.translate ~epsilon:options.transient_epsilon ~obs sd
            ~horizon:options.horizon
        in
        let tree = translation.static_tree in
        let engine_used =
          match (prep, options.engine) with
          | Some prep, Auto -> auto_engine prep tree
          | _, engine -> resolve_engine engine tree
        in
        Trace.add_attr ~sink "engine" (Trace.Str (engine_name engine_used));
        let compiled =
          Option.map (fun prep -> compiled_zdd prep ~guard ~obs tree) prep
        in
        ( translation,
          engine_used,
          generate ?compiled ~cutoff:options.cutoff
            ~max_order:options.max_cutset_order ~guard ~obs engine_used tree ))
  in
  { translation; engine_used; generation; generation_seconds }

let phase1 ?guard ?(obs = Obs.default) options sd =
  let guard =
    match guard with Some g -> g | None -> resource_guard ~obs options
  in
  front ~guard ~obs options sd

type cutset_info = {
  cutset : Cutset.t;
  probability : float;
  n_dynamic : int;
  n_added_dynamic : int;
  product_states : int;
  product_transitions : int;
  solver_steps : int;
  solver_error : float;
  from_cache : bool;
  solve_seconds : float;
  used_fallback : bool;
  degraded : Sdft_util.Guard.reason option;
}

type error_budget = {
  pruned_mass : float;
  below_cutoff_mass : float;
  solver_error_total : float;
  rare_event_slack : float;
  lower : float;
  upper : float;
  vacuous : bool;
}

type degradation = {
  generation_limit : Sdft_util.Guard.reason option;
  degraded_cutsets : (Sdft_util.Guard.reason * int) list;
}

type result = {
  total : float;
  cutoff : float;
  engine_used : engine;
  cutsets : cutset_info list;
  n_cutsets : int;
  n_dynamic_cutsets : int;
  n_fallbacks : int;
  budget : error_budget;
  degradation : degradation;
  mcs_generation_seconds : float;
  quantification_seconds : float;
  generation : Mocus.result;
  translation : Sdft_translate.result;
}

let degraded r =
  r.degradation.generation_limit <> None || r.degradation.degraded_cutsets <> []

type sweep_point = {
  sweep_options : options;
  sweep_result : result;
  cache_hits : int;
  cache_misses : int;
}

(* A point after Phase 1: its cutsets take [first, first + count) in the
   call's flat arrays. [misses] counts the cache misses of those cutsets;
   their hits are the answers marked [from_cache]. *)
type point = {
  opts : options;
  guard : Sdft_util.Guard.t;
  front : phase1;
  first : int;
  count : int;
  misses : int Atomic.t;
}

(* Phase 2 of one call: the cutsets of every point under one index, point
   after point, each in input order. Of a cutset that needs a product chain
   the plan keeps its cache key ([""] without a cache), shape ([-1] when not
   pending), static multiplier and dynamic counts, in flat arrays: a record
   per cutset outliving the plan would fragment the heap. The prepared
   model's FT_C context serves the call: the plan fills it, and the solve
   pass reads it from every domain through a read-only view. Each domain
   of a pass takes one of the call's solver workspaces, one per domain of
   the widest pass, so passes and points share buffers. *)
type work = {
  prep : prepared;
  cache : Quant_cache.t option;
  obs : Obs.t;
  points : point array;
  owner : int array;
  sets : Cutset.t array;
  infos : cutset_info option array;
  keys : string array;
  shape : int array;
  multiplier : float array;
  n_dyn : int array;
  n_added : int array;
  workers : Transient.workspace array;
}

(* Phase 1 of each point, in order, each under its own guard. *)
let work_of ?cache ~obs (prep : prepared) option_sets =
  let n = ref 0 in
  let point opts =
    Metrics.incr (Metrics.get obs.Obs.metrics m_runs);
    let guard = resource_guard ~obs opts in
    let front = front ~prep ~guard ~obs opts prep.sd in
    let count = List.length front.generation.Mocus.cutsets in
    n := !n + count;
    { opts; guard; front; first = !n - count; count; misses = Atomic.make 0 }
  in
  let points = Array.of_list (List.map point option_sets) in
  let owner = Array.make !n 0 in
  Array.iteri (fun k p -> Array.fill owner p.first p.count k) points;
  let sets p = Array.of_list p.front.generation.Mocus.cutsets in
  let domains = Array.fold_left (fun d p -> max d p.opts.domains) 1 points in
  {
    prep;
    cache;
    obs;
    points;
    owner;
    sets = Array.concat (List.map sets (Array.to_list points));
    infos = Array.make !n None;
    keys = Array.make !n "";
    shape = Array.make !n (-1);
    multiplier = Array.create_float !n;
    n_dyn = Array.make !n 0;
    n_added = Array.make !n 0;
    workers = Array.init domains (fun _ -> Transient.workspace ());
  }

let count_dynamic sd cutset =
  Sdft_util.Int_set.fold
    (fun b acc -> if Sdft.is_dynamic sd b then acc + 1 else acc)
    cutset 0

(* ETA cost proxy for the progress schedule: the product chain grows
   multiplicatively with the cutset's dynamic width. *)
let cost_of sd cutset = float_of_int (1 lsl min (count_dynamic sd cutset) 20)

(* The fallback: the static worst-case product at the point's horizon,
   which upper-bounds p~(C), with the typed reason as provenance. *)
let fallback_info w p ?dynamic ~reason cutset =
  let n_dynamic, n_added_dynamic =
    match dynamic with Some d -> d | None -> (count_dynamic w.prep.sd cutset, 0)
  in
  Trace.add_attr ~sink:w.obs.Obs.trace "fallback" (Trace.Bool true);
  let worst_case = p.front.translation.Sdft_translate.worst_case in
  {
    cutset;
    probability =
      Sdft_util.Int_set.fold (fun b acc -> acc *. worst_case.(b)) cutset 1.0;
    n_dynamic;
    n_added_dynamic;
    product_states = 0;
    product_transitions = 0;
    solver_steps = 0;
    (* Each worst-case factor was computed by a transient solve with error
       at most [transient_epsilon]; factors are at most 1, so the product's
       absolute error is bounded by the factor count times epsilon (first
       order). *)
    solver_error =
      float_of_int (Sdft_util.Int_set.cardinal cutset)
      *. p.opts.transient_epsilon;
    from_cache = false;
    solve_seconds = 0.0;
    used_fallback = true;
    degraded = Some reason;
  }

let exact_info w cutset ~dynamic:(n_dynamic, n_added_dynamic) q =
  let sink = w.obs.Obs.trace in
  Trace.add_attr ~sink "probability" (Trace.Float q.Cutset_model.probability);
  Trace.add_attr ~sink "states" (Trace.Int q.Cutset_model.product_states);
  if q.Cutset_model.from_cache then
    Trace.add_attr ~sink "cached" (Trace.Bool true);
  {
    cutset;
    probability = q.Cutset_model.probability;
    n_dynamic;
    n_added_dynamic;
    product_states = q.Cutset_model.product_states;
    product_transitions = q.Cutset_model.product_transitions;
    solver_steps = q.Cutset_model.solver_steps;
    solver_error = q.Cutset_model.solver_error;
    from_cache = q.Cutset_model.from_cache;
    solve_seconds = q.Cutset_model.seconds;
    used_fallback = false;
    degraded = None;
  }

(* A cutset's answer, once final: time it and step the progress (atomic
   state, safe from worker domains). *)
let settle w i info =
  if not info.used_fallback then
    Metrics.observe (Metrics.get w.obs.Obs.metrics m_solve_s)
      info.solve_seconds;
  Obs.step w.obs ~cost:(cost_of w.prep.sd info.cutset) ();
  w.infos.(i) <- Some info

(* Every pass runs the same crash-containing map: an exception neither the
   guard nor the state bound accounts for (a bug, an injected crash)
   poisons only its own cutset, which takes the fallback marked
   [Worker_crash] instead of killing the whole call. *)
let run w ~domains f order =
  let next = Atomic.make 0 in
  let take () = w.workers.(Atomic.fetch_and_add next 1) in
  Array.iteri
    (fun pos r ->
      if Result.is_error r then begin
        let i = order.(pos) in
        Trace.instant ~sink:w.obs.Obs.trace "analysis.worker_crash";
        settle w i
          (fallback_info w w.points.(w.owner.(i))
             ~reason:Sdft_util.Guard.Worker_crash w.sets.(i))
      end)
    (Sdft_util.Parallel.map_init_result ~domains take f order)

(* Model construction answers to the same guard as the solve: its
   trigger-set BDD compilations can blow up on their own, and a limit
   tripping there is a resource degradation, not a worker crash. *)
let build_model w p context cutset =
  Cutset_model.build ~context ~rel_rule:p.opts.rel_rule ~guard:p.guard
    ~obs:w.obs w.prep.sd cutset

(* The cutset's plan entry, with its FT_C when this call built it: a memo
   hit builds nothing; a miss builds the FT_C and stores the entry once
   the build completes. *)
let planned w p cutset =
  let memo = memo_of w.prep p.opts.rel_rule in
  match Mutex.protect w.prep.lock (fun () -> Hashtbl.find_opt memo cutset) with
  | Some e ->
    Metrics.incr (Metrics.get w.obs.Obs.metrics m_memo_hits);
    (e, None)
  | None ->
    let m = build_model w p w.prep.context cutset in
    let e =
      {
        digest = Option.map Quant_cache.digest m.Cutset_model.model;
        multiplier =
          (if m.Cutset_model.impossible then 0.0
           else m.Cutset_model.static_multiplier);
        dyn = m.Cutset_model.n_dynamic_in_cutset;
        added = m.Cutset_model.n_added_dynamic;
        shape = -1;
      }
    in
    Mutex.protect w.prep.lock (fun () -> Hashtbl.replace memo cutset e);
    (e, m.Cutset_model.model)

(* The shape id of a pending cutset, interned per prepared model and set
   in its entry at the cutset's first miss. *)
let shape_of w p cutset (e : planned) built =
  if e.shape >= 0 then e.shape
  else begin
    let sd_c =
      match built with
      | Some sd_c -> sd_c
      | None -> Option.get (build_model w p w.prep.context cutset).model
    in
    let key = Sdft_product.shape sd_c in
    Mutex.protect w.prep.lock (fun () ->
        let id =
          match Hashtbl.find_opt w.prep.shapes key with
          | Some id -> id
          | None ->
            let id = Hashtbl.length w.prep.shapes in
            Hashtbl.add w.prep.shapes key id;
            id
        in
        Hashtbl.replace (memo_of w.prep p.opts.rel_rule) cutset
          { e with shape = id };
        id)
  end

let plan_item w p ~suffix _ i =
  let cutset = w.sets.(i) and obs = w.obs in
  let epsilon = p.opts.transient_epsilon in
  (* The per-item crash site, on this call's own failpoints; raised inside
     the crash-containing map, so it is contained in its slot. *)
  Sdft_util.Failpoint.hit_in obs.Obs.failpoints "parallel.worker";
  Obs.span obs s_cutset (fun () ->
      match Sdft_util.Guard.status p.guard with
      | Some r ->
        (* The point's limit tripped: skip the build and the solve so the
           remaining cutsets drain fast. *)
        settle w i (fallback_info w p ~reason:r cutset)
      | None -> (
        match planned w p cutset with
        | exception Sdft_util.Guard.Limit_hit r ->
          settle w i (fallback_info w p ~reason:r cutset)
        | e, built -> (
          let t0 = Sdft_util.Timer.start () in
          let dynamic = (e.dyn, e.added) in
          match e.digest with
          | None ->
            (* No chain: the static product, or 0 when impossible. *)
            settle w i
              (exact_info w cutset ~dynamic
                 (Cutset_model.no_solve ~probability:e.multiplier t0))
          | Some digest -> (
            let looked_up =
              Option.map
                (fun c -> Quant_cache.lookup c ~suffix ~obs digest)
                w.cache
            in
            match looked_up with
            | Some (_, Some sol) ->
              settle w i
                (exact_info w cutset ~dynamic
                   (Cutset_model.of_solution ~epsilon
                      ~static_multiplier:e.multiplier ~from_cache:true
                      ~seconds:(Sdft_util.Timer.elapsed_s t0) sol))
            | _ -> (
              match shape_of w p cutset e built with
              | exception Sdft_util.Guard.Limit_hit r ->
                settle w i (fallback_info w p ~reason:r cutset)
              | shape ->
                Option.iter (fun (key, _) -> w.keys.(i) <- key) looked_up;
                w.multiplier.(i) <- e.multiplier;
                w.n_dyn.(i) <- e.dyn;
                w.n_added.(i) <- e.added;
                w.shape.(i) <- shape)))))

(* The plan, point by point: find each cutset's entry in the prepared
   model's memo, building its FT_C on a miss, and answer what needs no
   product chain — static and impossible cutsets, cache hits, a tripped
   guard. The rest leave their key and shape. Each point's key suffix is
   built once, for all its lookups. It runs on the calling domain, in
   input order: a wide pass measured no faster, and every domain it
   spawns adds its heap to the peak. Returns each point's plan time. *)
let plan w =
  Array.map
    (fun p ->
      let t0 = Sdft_util.Timer.start () in
      let suffix =
        Quant_cache.key_suffix ~engine_tag:(engine_name p.front.engine_used)
          ~epsilon:p.opts.transient_epsilon
          ~max_states:p.opts.max_product_states ~horizon:p.opts.horizon
      in
      run w ~domains:1 (plan_item w p ~suffix)
        (Array.init p.count (fun j -> p.first + j));
      Sdft_util.Timer.elapsed_s t0)
    w.points

(* Solve one pending cutset: its FT_C rebuilt through [context], a
   read-only view of the plan's, and one product chain. Through a cache the
   solve answers the cutset's key, so a key some earlier cutset solved is a
   hit, and one whose solve failed is tried again. *)
let solve_item w context workspace i =
  let p = w.points.(w.owner.(i)) and cutset = w.sets.(i) and obs = w.obs in
  let key = w.keys.(i) and dynamic = (w.n_dyn.(i), w.n_added.(i)) in
  let epsilon = p.opts.transient_epsilon in
  w.keys.(i) <- "";
  settle w i
  @@ Obs.span obs s_cutset (fun () ->
         match Sdft_util.Guard.status p.guard with
         | Some r -> fallback_info w p ~dynamic ~reason:r cutset
         | None -> (
           let t0 = Sdft_util.Timer.start () in
           let solve_model () =
             Cutset_model.solve ~epsilon
               ~max_states:p.opts.max_product_states ~guard:p.guard
               ~workspace ~obs
               (Option.get (build_model w p context cutset).Cutset_model.model)
               ~horizon:p.opts.horizon
           in
           match
             match w.cache with
             | Some c when key <> "" ->
               Quant_cache.answer c ~obs key (fun () ->
                   Atomic.incr p.misses;
                   solve_model ())
             | _ -> (solve_model (), false)
           with
           | e, from_cache ->
             exact_info w cutset ~dynamic
               (Cutset_model.of_solution ~epsilon
                  ~static_multiplier:w.multiplier.(i) ~from_cache
                  ~seconds:(Sdft_util.Timer.elapsed_s t0) e)
           | exception Sdft_product.Too_many_states _ ->
             fallback_info w p ~dynamic ~reason:Sdft_util.Guard.State_limit
               cutset
           | exception Sdft_util.Guard.Limit_hit r ->
             fallback_info w p ~dynamic ~reason:r cutset
           | exception Out_of_memory ->
             fallback_info w p ~dynamic ~reason:Sdft_util.Guard.Mem_limit
               cutset))

(* One solve pass over the pending cutsets of every point. Each key is
   solved once, by its first cutset in input order, with the builds grouped
   by shape, so a domain's kept template re-rates a whole group, of any
   point, after one exploration. At one domain the groups come in order of
   first appearance; at several, widest first, since a big chain picked up
   last leaves one domain solving alone. A domain leaves a group only once
   it is taken, so it explores each shape at most once. The other cutsets
   of each key come last, on one domain, in input order, each a cache hit.
   A pass never starts more domains than it has cutsets. Every rebuild
   finds its classifications and trigger sets in the plan's context, so
   the pass classifies and compiles nothing, at any domain count. *)
let solve w =
  let domains = Array.length w.workers in
  let firsts = Sdft_util.Vec.create () and rest = Sdft_util.Vec.create () in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      if s >= 0 then begin
        let key = w.keys.(i) in
        let lead = key = "" || not (Hashtbl.mem seen key) in
        Hashtbl.replace seen key ();
        Sdft_util.Vec.push (if lead then firsts else rest) i
      end)
    w.shape;
  let firsts = Sdft_util.Vec.to_array firsts in
  if domains > 1 then begin
    let width i = w.n_dyn.(i) + w.n_added.(i) in
    Array.stable_sort (fun i j -> compare (width j) (width i)) firsts
  end;
  let rank = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      if not (Hashtbl.mem rank w.shape.(i)) then
        Hashtbl.add rank w.shape.(i) (Hashtbl.length rank))
    firsts;
  let rank_of i = Hashtbl.find rank w.shape.(i) in
  Array.stable_sort (fun i j -> compare (rank_of i) (rank_of j)) firsts;
  (* A model {!prepare} made is forced already; one a call prepared for
     itself is forced only here, after Phase 1, whose heap peak it would
     otherwise raise. *)
  if domains > 1 && Array.length firsts > 1 then force_descendants w.prep.sd;
  let solve_item = solve_item w (Cutset_model.read_only w.prep.context) in
  run w ~domains solve_item firsts;
  run w ~domains:1 solve_item (Sdft_util.Vec.to_array rest)

(* Fold one point's answers, in input order, into its result. Upper bound:
   the rare-event sum over-approximates the union, so adding back every
   discarded mass (pruned in generation, or below the relevance filter) and
   the summed solver error bounds the top-event probability. Lower bound:
   any single cutset failing fails the top, so the largest certified cutset
   probability minus its own solver error; fallbacks over-approximate and
   must not anchor it. *)
let budget w p ~quantification_seconds =
  let { translation; engine_used; generation; generation_seconds } =
    p.front
  in
  let cutoff = p.opts.cutoff and m = w.obs.Obs.metrics in
  let infos = List.init p.count (fun j -> Option.get w.infos.(p.first + j)) in
  let mass f = Sdft_util.Kahan.sum_list (List.filter_map f infos) in
  let total =
    mass (fun i -> if i.probability > cutoff then Some i.probability else None)
  in
  let below_cutoff_mass =
    mass (fun i -> if i.probability <= cutoff then Some i.probability else None)
  in
  let solver_error_total = mass (fun i -> Some i.solver_error) in
  let n_of f = List.length (List.filter f infos) in
  let n_fallbacks = n_of (fun i -> i.used_fallback) in
  Metrics.add (Metrics.get m m_cutsets) p.count;
  Metrics.add (Metrics.get m m_fallbacks) n_fallbacks;
  Metrics.add (Metrics.get m m_product_states)
    (List.fold_left (fun acc i -> acc + i.product_states) 0 infos);
  let certified i =
    if i.used_fallback then None else Some (i.probability -. i.solver_error)
  in
  let lower = List.fold_left Float.max 0.0 (List.filter_map certified infos) in
  (* Both engines account for what their cutoff and order bounds drop
     (MOCUS as an upper bound, the ZDD engine exactly), so only truncated
     generation leaves mass unaccounted. *)
  let vacuous = generation.Mocus.truncated in
  let upper =
    if vacuous then Float.max 1.0 total
    else
      total +. generation.Mocus.pruned_mass +. below_cutoff_mass
      +. solver_error_total
  in
  let attr name v = (name, Trace.Float v) in
  Trace.instant ~sink:w.obs.Obs.trace "analysis.point"
    ~attrs:
      [ attr "horizon" p.opts.horizon; attr "total" total; attr "lower" lower;
        attr "upper" upper ];
  {
    total;
    cutoff;
    engine_used;
    cutsets =
      List.sort
        (fun a b ->
          let c = compare b.probability a.probability in
          if c <> 0 then c else Sdft_util.Int_set.compare a.cutset b.cutset)
        infos;
    n_cutsets = p.count;
    n_dynamic_cutsets = n_of (fun i -> i.n_dynamic > 0);
    n_fallbacks;
    budget =
      {
        pruned_mass = generation.Mocus.pruned_mass;
        below_cutoff_mass;
        solver_error_total;
        rare_event_slack = Float.max 0.0 (total -. lower);
        lower;
        upper;
        vacuous;
      };
    degradation =
      {
        generation_limit = generation.Mocus.limit_hit;
        degraded_cutsets =
          List.filter_map
            (fun r ->
              let n = n_of (fun i -> i.degraded = Some r) in
              if n > 0 then Some (r, n) else None)
            Sdft_util.Guard.[ Deadline; Mem_limit; State_limit; Worker_crash ];
      };
    mcs_generation_seconds = generation_seconds;
    quantification_seconds;
    generation;
    translation;
  }

(* The one core behind [analyze], [sweep] and [sweep_checkpointed]: Phase 1
   and the plan for each point, one solve pass over the misses of every
   point, then each point's budget. A point's quantification time is its
   plan's plus a share of the solve pass's, in proportion to what the pass
   spent on the point's cutsets. *)
let analyze_points ?prepared ?cache ~obs sd option_sets =
  let prep, owned =
    match prepared with
    | Some (prep : prepared) when prep.sd == sd -> (Some prep, false)
    | Some _ ->
      invalid_arg "Sdft_analysis: the prepared model wraps another model"
    | None -> (None, true)
  in
  if option_sets = [] then []
  else
    Obs.span obs s_analyze @@ fun () ->
    (* The product template memo serves this call only: emptying it on the
       way out keeps one request's heap from counting against the next
       one's memory limit on a long-lived domain. *)
    Fun.protect
      ~finally:(fun () ->
        Sdft_product.release_template ();
        Obs.finish obs)
    @@ fun () ->
    let prep = match prep with Some p -> p | None -> unforced sd in
    let w = work_of ?cache ~obs prep option_sets in
    (* A model prepared for this call alone lets go of its compiled ZDD
       once Phase 1 is done, and of its plan memos once the plan is. *)
    if owned then prep.compiled <- None;
    Obs.begin_phase obs "quantification" ~total:(Array.length w.sets)
      ~cost_total:
        (Array.fold_left (fun acc c -> acc +. cost_of sd c) 0.0 w.sets)
      ();
    let plan_s, solve_s =
      Obs.span obs s_quant (fun () ->
          let plan_s = plan w in
          if owned then begin
            Array.iter Hashtbl.reset prep.memos;
            Hashtbl.reset prep.shapes
          end;
          let t0 = Sdft_util.Timer.start () in
          solve w;
          (plan_s, Sdft_util.Timer.elapsed_s t0))
    in
    let spent = Array.make (Array.length w.points) 0.0 in
    Array.iteri
      (fun i s ->
        let k = w.owner.(i) in
        if s >= 0 then
          spent.(k) <- spent.(k) +. (Option.get w.infos.(i)).solve_seconds)
      w.shape;
    let all = Array.fold_left ( +. ) 0.0 spent in
    List.mapi
      (fun k p ->
        let share = if all > 0.0 then spent.(k) /. all else 0.0 in
        let quantification_seconds = plan_s.(k) +. (share *. solve_s) in
        let r = budget w p ~quantification_seconds in
        let hits = List.filter (fun i -> i.from_cache) r.cutsets in
        {
          sweep_options = p.opts;
          sweep_result = r;
          cache_hits = List.length hits;
          cache_misses = Atomic.get p.misses;
        })
      (Array.to_list w.points)

let analyze ?(options = default_options) ?cache ?(obs = Obs.default)
    ?prepared sd =
  (List.hd (analyze_points ?prepared ?cache ~obs sd [ options ])).sweep_result

let sweep ?cache ?(obs = Obs.default) sd option_sets =
  let cache = match cache with Some c -> c | None -> Quant_cache.create () in
  (analyze_points ~cache ~obs sd option_sets, cache)

let static_rare_event ?(cutoff = 1e-15) ?(engine = default_options.engine)
    tree =
  let result = generate_cutsets ~cutoff engine tree in
  let relevant =
    List.filter
      (fun c -> Cutset.probability tree c > cutoff)
      result.Mocus.cutsets
  in
  (Cutset.rare_event_approximation tree relevant, List.length relevant)

let dynamic_histogram result =
  let n =
    List.fold_left (fun acc info -> max acc (info.n_dynamic + 1)) 0
      result.cutsets
  in
  let counts = Array.make n 0 in
  List.iter
    (fun info -> counts.(info.n_dynamic) <- counts.(info.n_dynamic) + 1)
    result.cutsets;
  counts

let print_histogram ?(label = "") counts =
  if label <> "" then Printf.printf "%s\n" label;
  let peak = Array.fold_left max 1 counts in
  let bar_width = 50 in
  Array.iteri
    (fun i c ->
      Printf.printf "  %3d | %-*s %d\n" i bar_width
        (String.make (c * bar_width / peak) '#')
        c)
    counts

let mean_added_dynamic result =
  let dynamic = List.filter (fun info -> info.n_dynamic > 0) result.cutsets in
  match dynamic with
  | [] -> 0.0
  | _ ->
    let added =
      List.fold_left (fun acc info -> acc + info.n_added_dynamic) 0 dynamic
    in
    float_of_int added /. float_of_int (List.length dynamic)

(* Rebuilding the sub-models costs one FT_C construction per cutset; only
   a manifest save pays it, never the analysis itself. *)
let cache_keys options sd r =
  let context = Cutset_model.context sd in
  let key_of =
    Quant_cache.key_of ~engine_tag:(engine_name r.engine_used)
      ~epsilon:options.transient_epsilon
      ~max_states:options.max_product_states ~horizon:options.horizon
  in
  List.filter_map
    (fun info ->
      if info.used_fallback then None
      else
        key_of
          (Cutset_model.build ~context ~rel_rule:options.rel_rule sd
             info.cutset))
    r.cutsets

let degradation_description r =
  let d = r.degradation in
  String.concat "; "
    ((match d.generation_limit with
     | Some reason ->
       [
         "cutset generation stopped early ("
         ^ Sdft_util.Guard.reason_to_string reason
         ^ ")";
       ]
     | None -> [])
    @ List.map
        (fun (reason, n) ->
          Printf.sprintf "%d cutset%s fell back to the worst-case bound (%s)"
            n
            (if n = 1 then "" else "s")
            (Sdft_util.Guard.reason_to_string reason))
        d.degraded_cutsets)

(* ------------------------------------------------------------------ *)
(* Checkpointed sweeps. *)

(* Canonical encoding (Canon tokens, as in Quant_cache.fingerprint) of
   everything in [options] that can influence the result bits: numerical
   parameters, engine, rel-rule and the resource limits (which steer the
   degradation ladder). [domains] is deliberately excluded — the work
   partition never changes the result, only the wall time — so a resume
   may use a different [-j] than the interrupted run. *)
let options_fingerprint o =
  let buf = Buffer.create 64 in
  Canon.add_float buf o.horizon;
  Canon.add_float buf o.cutoff;
  Canon.add_float buf o.transient_epsilon;
  Canon.add_int buf o.max_product_states;
  Canon.add_option Canon.add_int buf o.max_cutset_order;
  Canon.add_string buf (engine_name o.engine);
  Buffer.add_char buf
    (match o.rel_rule with
    | Cutset_model.Paper -> 'p'
    | Cutset_model.All_events -> 'a');
  Canon.add_option Canon.add_float buf o.deadline;
  Canon.add_option Canon.add_int buf o.mem_limit_mb;
  Buffer.contents buf

(* The model's fingerprint is self-delimiting, so the concatenation is
   itself a canonical encoding of the pair. *)
let point_key sd options =
  Digest.to_hex
    (Digest.string (Quant_cache.fingerprint sd ^ options_fingerprint options))

type sweep_item =
  | Sweep_run of sweep_point
  | Sweep_skipped of Checkpoint.point

let checkpoint_point key opts r =
  {
    Checkpoint.pt_key = key;
    pt_horizon = opts.horizon;
    pt_total = r.total;
    pt_lower = r.budget.lower;
    pt_upper = r.budget.upper;
    pt_vacuous = r.budget.vacuous;
    pt_n_cutsets = r.n_cutsets;
    pt_n_dynamic = r.n_dynamic_cutsets;
    pt_degraded =
      (if degraded r then Some (degradation_description r) else None);
  }

let sweep_checkpointed ?cache ?(obs = Obs.default) ~resume ?on_point sd
    option_sets =
  let cache = match cache with Some c -> c | None -> Quant_cache.create () in
  let keyed =
    List.map
      (fun o ->
        let key = point_key sd o in
        (o, key, if resume then Quant_cache.find_point cache key else None))
      option_sets
  in
  let to_run =
    List.filter_map (fun (o, _, c) -> if c = None then Some o else None) keyed
  in
  let run = ref (analyze_points ~cache ~obs sd to_run) in
  let item (opts, key, certified) =
    let item =
      match certified with
      | Some pt -> Sweep_skipped pt
      | None ->
        let p = List.hd !run in
        run := List.tl !run;
        Quant_cache.record_point cache
          (checkpoint_point key opts p.sweep_result);
        Sweep_run p
    in
    Option.iter (fun f -> f item) on_point;
    item
  in
  (List.map item keyed, cache)

let pp_summary ppf r =
  Format.fprintf ppf "@[<v>";
  if degraded r then
    Format.fprintf ppf "DEGRADED: %s@," (degradation_description r);
  Format.fprintf ppf
    "failure frequency (rare-event approx): %.3e@,\
     certified interval: [%.3e, %.3e]%s@,\
     minimal cutsets: %d (%d with dynamic events), engine: %s@,\
     MCS generation: %a, quantification: %a@]"
    r.total r.budget.lower r.budget.upper
    (if r.budget.vacuous then "  (vacuous: coverage not certified)" else "")
    r.n_cutsets r.n_dynamic_cutsets (engine_name r.engine_used)
    Sdft_util.Timer.pp_duration r.mcs_generation_seconds
    Sdft_util.Timer.pp_duration r.quantification_seconds

let pp_budget ppf r =
  let b = r.budget in
  Format.fprintf ppf
    "@[<v>error budget:@,\
     \  pruned mass (generation):     %.3e%s@,\
     \  below-cutoff cutset mass:     %.3e@,\
     \  solver error (uniformization): %.3e@,\
     \  rare-event slack (over-approx): %.3e@,\
     \  certified interval: [%.3e, %.3e]%s@]"
    b.pruned_mass
    (match r.engine_used with
    | Zdd_engine -> "  (exact)"
    | Mocus_sound -> "  (upper bound)"
    | Auto -> "")
    b.below_cutoff_mass b.solver_error_total b.rare_event_slack
    b.lower b.upper
    (if b.vacuous then "  VACUOUS (truncated generation)" else "")

type sim_check = {
  sim_lower : float;
  sim_upper : float;
  budget_lower : float;
  budget_upper : float;
  overlaps : bool;
  gap : float;
  vacuous_budget : bool;
}

let verify_sim result ~sim_ci:(sim_lower, sim_upper) =
  if sim_lower > sim_upper then
    invalid_arg "Sdft_analysis.verify_sim: empty simulation interval";
  let b = result.budget in
  let overlaps = sim_lower <= b.upper && b.lower <= sim_upper in
  let gap =
    if overlaps then 0.0
    else if sim_lower > b.upper then sim_lower -. b.upper
    else b.lower -. sim_upper
  in
  {
    sim_lower;
    sim_upper;
    budget_lower = b.lower;
    budget_upper = b.upper;
    overlaps;
    gap;
    vacuous_budget = b.vacuous;
  }

let pp_sim_check ppf c =
  Format.fprintf ppf
    "@[<v>simulation CI: [%.3e, %.3e]@,\
     analytic certified interval: [%.3e, %.3e]%s@,\
     verdict: %s@]"
    c.sim_lower c.sim_upper c.budget_lower c.budget_upper
    (if c.vacuous_budget then "  (vacuous)" else "")
    (if c.overlaps then "OVERLAP (simulation consistent with the analysis)"
     else Printf.sprintf "DISJOINT (gap %.3e) — the estimators disagree" c.gap)
