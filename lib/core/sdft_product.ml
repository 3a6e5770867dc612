module Obs = Sdft_util.Obs
module Metrics = Sdft_util.Metrics
module Failpoint = Sdft_util.Failpoint

type built = {
  chain : Ctmc.t;
  init : (int * float) list;
  failed : bool array;
  participants : int array;
  n_states : int;
}

exception Too_many_states of int

(* Per-participant component data, extracted once from the Dbe / static
   probability so the exploration loops work on plain arrays. A dynamic
   event's rows are its Dbe chain's own CSR arrays, never copied. *)
type component = {
  basic : int;
  n_local : int;
  (* local state s owns entries row_ptr.(s) .. row_ptr.(s + 1) - 1 *)
  row_ptr : int array;
  cols : int array;
  rates : float array;
  init_states : int array; (* initial states of positive mass *)
  init_weights : float array;
  failed_local : bool array;
  trigger_gate : int; (* -1 when untriggered *)
  mode_on : bool array; (* true = on *)
  partner : int array; (* on <-> off; identity for untriggered *)
}

(* The initial distribution without its zero-mass states, as two arrays. *)
let positive_init dist =
  let dist = List.filter (fun (_, m) -> m > 0.0) dist in
  (Array.of_list (List.map fst dist), Array.of_list (List.map snd dist))

let component_of_basic sd b =
  let tree = Sdft.tree sd in
  if Sdft.is_dynamic sd b then begin
    let d = Sdft.dbe sd b in
    let n_local = Dbe.n_states d in
    let chain = Dbe.chain d in
    let init_states, init_weights = positive_init (Dbe.init d) in
    let failed_local = Array.init n_local (Dbe.is_failed d) in
    let triggered = Dbe.is_triggered_model d in
    let mode_on = Array.init n_local (fun s -> Dbe.mode_of d s = Dbe.On) in
    let partner =
      Array.init n_local (fun s ->
          if not triggered then s
          else if mode_on.(s) then Dbe.switch_off d s
          else Dbe.switch_on d s)
    in
    let trigger_gate =
      match Sdft.trigger_of sd b with
      | Some g -> g
      | None -> -1
    in
    {
      basic = b;
      n_local;
      row_ptr = Ctmc.row_ptr chain;
      cols = Ctmc.cols chain;
      rates = Ctmc.rates chain;
      init_states;
      init_weights;
      failed_local;
      trigger_gate;
      mode_on;
      partner;
    }
  end
  else begin
    let p = Fault_tree.prob tree b in
    let init_states, init_weights = positive_init [ (0, 1.0 -. p); (1, p) ] in
    {
      basic = b;
      n_local = 2;
      row_ptr = [| 0; 0; 0 |];
      cols = [||];
      rates = [||];
      init_states;
      init_weights;
      failed_local = [| false; true |];
      trigger_gate = -1;
      mode_on = [| true; true |];
      partner = [| 0; 1 |];
    }
  end

type semantics = {
  sd : Sdft.t;
  components : component array; (* one per basic event, in index order *)
  n_triggered : int;
  gates_buf : bool array;
      (* scratch for gate evaluations; closure passes stop allocating a
         gates array per call. One semantics must not be shared between
         domains. *)
}

let semantics sd =
  let tree = Sdft.tree sd in
  let components =
    Array.init (Fault_tree.n_basics tree) (component_of_basic sd)
  in
  let n_triggered =
    Array.fold_left
      (fun acc c -> if c.trigger_gate >= 0 then acc + 1 else acc)
      0 components
  in
  {
    sd;
    components;
    n_triggered;
    gates_buf = Array.make (Fault_tree.n_gates tree) false;
  }

let sem_components sem = sem.components

(* Evaluates into the semantics' scratch buffer; the returned array is
   overwritten by the next [eval] on the same semantics. *)
let eval sem state =
  let comps = sem.components in
  let basic_failed b = comps.(b).failed_local.(state.(b)) in
  Fault_tree.eval_gates_into (Sdft.tree sem.sd) ~failed:basic_failed
    sem.gates_buf;
  sem.gates_buf

(* Update closure: switch triggered events until consistent. Each pass
   settles at least the events whose triggers' values are final, so
   n_triggered + 1 passes always suffice (trigger structure is acyclic).
   Without triggered events every state is already consistent, and the
   closure returns without evaluating a gate. *)
let sem_close sem state =
  if sem.n_triggered = 0 then ()
  else begin
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let gates = eval sem state in
    Array.iteri
      (fun slot c ->
        if c.trigger_gate >= 0 then begin
          let on = c.mode_on.(state.(slot)) in
          let want_on = gates.(c.trigger_gate) in
          if on <> want_on then begin
            state.(slot) <- c.partner.(state.(slot));
            changed := true
          end
        end)
      sem.components;
    incr passes;
    if !passes > sem.n_triggered + 2 then
      failwith "Sdft_product: update closure did not converge (cyclic triggers?)"
  done
  end

let sem_fails_top sem state =
  (eval sem state).(Fault_tree.top (Sdft.tree sem.sd))

let sem_initial_states sem ~max_states =
  let n_components = Array.length sem.components in
  let masses : (int array, float) Hashtbl.t = Hashtbl.create 64 in
  let rec enumerate slot prefix mass =
    if mass > 0.0 then begin
      if slot = n_components then begin
        let state = Array.copy prefix in
        sem_close sem state;
        if Hashtbl.length masses >= max_states && not (Hashtbl.mem masses state)
        then raise (Too_many_states (Hashtbl.length masses));
        let prev = try Hashtbl.find masses state with Not_found -> 0.0 in
        Hashtbl.replace masses state (prev +. mass)
      end
      else begin
        let c = sem.components.(slot) in
        Array.iteri
          (fun j s ->
            prefix.(slot) <- s;
            enumerate (slot + 1) prefix (mass *. c.init_weights.(j)))
          c.init_states
      end
    end
  in
  enumerate 0 (Array.make n_components 0) 1.0;
  Hashtbl.fold (fun state m acc -> (state, m) :: acc) masses []

(* Mixed-radix packing: the component state vector fits one OCaml int when
   the product of the local state counts does (FT_C components have 2-6
   local states, so this is virtually always true). Packed states intern
   through an int-keyed table and the successor loop reuses two scratch
   vectors — no per-transition array allocation or polymorphic hashing. *)
let radix_strides components =
  let n = Array.length components in
  let strides = Array.make n 1 in
  let rec fits i acc =
    if i = n then Some strides
    else begin
      strides.(i) <- acc;
      let r = components.(i).n_local in
      if r = 0 || acc > max_int / r then None else fits (i + 1) (acc * r)
    end
  in
  fits 0 1

let pack strides state =
  let key = ref 0 in
  for i = 0 to Array.length state - 1 do
    key := !key + (state.(i) * strides.(i))
  done;
  !key

let unpack strides key state =
  let k = ref key in
  for i = Array.length state - 1 downto 0 do
    let q = !k / strides.(i) in
    state.(i) <- q;
    k := !k - (q * strides.(i))
  done

(* The initial distribution in the order [build] has always listed it:
   masses summed per state id in a hashtable, then folded out. *)
let init_distribution ids_masses =
  let mass : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (id, m) ->
      let prev = try Hashtbl.find mass id with Not_found -> 0.0 in
      Hashtbl.replace mass id (prev +. m))
    ids_masses;
  Hashtbl.fold (fun id m acc -> (id, m) :: acc) mass []

(* The number of transitions of a component: its rate prefix's length
   (a chain's rate array may be longer than its own entries). *)
let n_transitions c = c.row_ptr.(c.n_local)

(* The component-local transitions numbered slot by slot, in each
   component's CSR order: the rate vector a template's plan refers into. *)
let local_rates components =
  Array.concat
    (Array.to_list
       (Array.map (fun c -> Array.sub c.rates 0 (n_transitions c)) components))

(* Everything a packed exploration derives from the model's structure
   alone. Two models with the same shape key reach the same states in the
   same order, so they differ only in the rates summed into each chain
   entry and in the masses of the initial states. Immutable once built. *)
type template = {
  t_n_states : int;
  t_failed : bool array;
  t_init_keys : int array;
      (* packed key of the [j]-th state of [sem_initial_states], which is
         interned first and so gets id [j] *)
  t_plan : Ctmc.plan;
}

(* Positional shape key: the tree's gates and top, then every component in
   slot order with its rates and masses erased but the support of its
   initial distribution kept. Positional, not canonical, because state
   numbering follows slot order. *)
let shape_key sem =
  let key = Sdft_util.Vec.create () in
  let emit = Sdft_util.Vec.push key in
  let tree = Sdft.tree sem.sd in
  let emit_bools a = Array.iter (fun b -> emit (Bool.to_int b)) a in
  emit (Fault_tree.n_basics tree);
  emit (Fault_tree.n_gates tree);
  emit (Fault_tree.top tree);
  for g = 0 to Fault_tree.n_gates tree - 1 do
    (match Fault_tree.gate_kind tree g with
    | Fault_tree.And -> emit (-1)
    | Fault_tree.Or -> emit (-2)
    | Fault_tree.Atleast k -> emit k);
    let inputs = Fault_tree.gate_inputs tree g in
    emit (Array.length inputs);
    Array.iter
      (function Fault_tree.B b -> emit b | Fault_tree.G g -> emit (-1 - g))
      inputs
  done;
  Array.iter
    (fun c ->
      emit c.basic;
      emit c.n_local;
      for s = 0 to c.n_local - 1 do
        emit (c.row_ptr.(s + 1) - c.row_ptr.(s));
        for k = c.row_ptr.(s) to c.row_ptr.(s + 1) - 1 do
          emit c.cols.(k)
        done
      done;
      emit (Array.length c.init_states);
      Array.iter emit c.init_states;
      emit_bools c.failed_local;
      emit c.trigger_gate;
      emit_bools c.mode_on;
      Array.iter emit c.partner)
    sem.components;
  Sdft_util.Vec.to_array key

let shape sd = shape_key (semantics sd)

(* Breadth-first exploration of consistent states over two reused scratch
   vectors: [state] is the decoded source, [next] the successor being
   closed. Initial states are interned first, in [initial]'s order, and
   successors in (slot, local transition) order — the same numbering as
   [build_generic], hence bit-identical chains. The frontier pops states
   in id order, so the transitions come out grouped by source and go to
   [Ctmc.plan_rows] as rows, with no source array and no regrouping. *)
let explore sem ~max_states ~guard ~fp strides initial =
  let components = sem.components in
  let n_components = Array.length components in
  (* Transition [k] of slot [slot]'s CSR arrays is entry
     [slot_base.(slot) + k] of [local_rates]. *)
  let slot_base = Array.make n_components 0 in
  for slot = 1 to n_components - 1 do
    slot_base.(slot) <-
      slot_base.(slot - 1) + n_transitions components.(slot - 1)
  done;
  let ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let keys : int Sdft_util.Vec.t = Sdft_util.Vec.create () in
  let failed_v = Sdft_util.Vec.create () in
  let frontier = Queue.create () in
  let intern key state =
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Sdft_util.Vec.length keys in
      if id >= max_states then raise (Too_many_states id);
      Hashtbl.add ids key id;
      Sdft_util.Vec.push keys key;
      Sdft_util.Vec.push failed_v (sem_fails_top sem state);
      Queue.add id frontier;
      id
  in
  let init_keys =
    Array.of_list
      (List.map
         (fun (state, _) ->
           let key = pack strides state in
           ignore (intern key state);
           key)
         initial)
  in
  let row_ptr : int Sdft_util.Vec.t = Sdft_util.Vec.create () in
  let dsts : int Sdft_util.Vec.t = Sdft_util.Vec.create () in
  let refs : int Sdft_util.Vec.t = Sdft_util.Vec.create () in
  let state = Array.make n_components 0 in
  let next = Array.make n_components 0 in
  while not (Queue.is_empty frontier) do
    Sdft_util.Guard.check guard;
    Failpoint.hit_in fp "product.explore";
    let src = Queue.pop frontier in
    Sdft_util.Vec.push row_ptr (Sdft_util.Vec.length dsts);
    unpack strides (Sdft_util.Vec.get keys src) state;
    for slot = 0 to n_components - 1 do
      let c = components.(slot) in
      let local = state.(slot) in
      for k = c.row_ptr.(local) to c.row_ptr.(local + 1) - 1 do
        Array.blit state 0 next 0 n_components;
        next.(slot) <- c.cols.(k);
        sem_close sem next;
        let dst = intern (pack strides next) next in
        if dst <> src then begin
          Sdft_util.Vec.push dsts dst;
          Sdft_util.Vec.push refs (slot_base.(slot) + k)
        end
      done
    done
  done;
  Sdft_util.Vec.push row_ptr (Sdft_util.Vec.length dsts);
  {
    t_n_states = Sdft_util.Vec.length keys;
    t_failed = Sdft_util.Vec.to_array failed_v;
    t_init_keys = init_keys;
    t_plan =
      Ctmc.plan_rows
        ~row_ptr:(Sdft_util.Vec.to_array row_ptr)
        ~cols:(Sdft_util.Vec.to_array dsts)
        ~refs:(Sdft_util.Vec.to_array refs);
  }

(* Does [initial] enumerate the template's initial states, in its order?
   It does whenever the shape keys agree, unless a product of initial
   masses underflowed to zero and dropped a state. *)
let same_initial tpl strides initial =
  let keys = tpl.t_init_keys in
  let rec go j = function
    | [] -> j = Array.length keys
    | (state, _) :: rest ->
      j < Array.length keys && pack strides state = keys.(j) && go (j + 1) rest
  in
  go 0 initial

(* Fill a template with the model's own rates and initial masses: fresh
   rate and exit vectors, or the workspace's. The labelling is the
   template's own. *)
let instantiate ?workspace sem tpl initial =
  let rates = local_rates sem.components in
  {
    chain =
      (match workspace with
      | Some ws -> Transient.instantiate ws tpl.t_plan rates
      | None -> Ctmc.instantiate tpl.t_plan rates);
    init = init_distribution (List.mapi (fun j (_, m) -> (j, m)) initial);
    failed = tpl.t_failed;
    participants = Array.map (fun c -> c.basic) sem.components;
    n_states = tpl.t_n_states;
  }

(* The last shape explored on this domain and its template. One slot, not
   a table: consecutive cutset models mostly share a shape, and a table of
   every shape seen would cost more heap than the explorations it saves. *)
let last_shape : (int array * template) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let release_template () = Domain.DLS.set last_shape None

(* Packed build: instantiate the domain's last template when the model has
   its shape, otherwise explore and keep the new template. Returns whether
   the template was reused. A template larger than [max_states] is not
   reused, so an oversized model raises from the exploration exactly as
   before; an exploration that raises leaves the slot empty. *)
let build_packed ?workspace sem ~max_states ~guard ~fp strides =
  let initial = sem_initial_states sem ~max_states in
  let key = shape_key sem in
  match Domain.DLS.get last_shape with
  | Some (last_key, tpl)
    when tpl.t_n_states <= max_states && last_key = key
         && same_initial tpl strides initial ->
    (* The guard and the failpoint fire once per state, as they would in
       the exploration this replaces. *)
    for _ = 1 to tpl.t_n_states do
      Sdft_util.Guard.check guard;
      Failpoint.hit_in fp "product.explore"
    done;
    (instantiate ?workspace sem tpl initial, true)
  | _ ->
    (* Drop the old template first, so the exploration's working set
       never coexists with it. *)
    release_template ();
    let tpl = explore sem ~max_states ~guard ~fp strides initial in
    Domain.DLS.set last_shape (Some (key, tpl));
    (instantiate ?workspace sem tpl initial, false)

(* Generic fallback for oversized radix products: array-keyed interning with
   a state copy per explored transition. *)
let build_generic sem ~max_states ~guard ~fp =
  let components = sem.components in
  let ids : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  let states = Sdft_util.Vec.create () in
  let failed_v = Sdft_util.Vec.create () in
  let frontier = Queue.create () in
  let intern state =
    match Hashtbl.find_opt ids state with
    | Some id -> id
    | None ->
      let id = Sdft_util.Vec.length states in
      if id >= max_states then raise (Too_many_states id);
      Hashtbl.add ids state id;
      Sdft_util.Vec.push states state;
      Sdft_util.Vec.push failed_v (sem_fails_top sem state);
      Queue.add id frontier;
      id
  in
  let init =
    init_distribution
      (List.map
         (fun (state, m) -> (intern state, m))
         (sem_initial_states sem ~max_states))
  in
  (* Breadth-first exploration of consistent states. *)
  let transitions = Sdft_util.Vec.create () in
  while not (Queue.is_empty frontier) do
    Sdft_util.Guard.check guard;
    Failpoint.hit_in fp "product.explore";
    let src = Queue.pop frontier in
    let state = Sdft_util.Vec.get states src in
    Array.iteri
      (fun slot c ->
        for k = c.row_ptr.(state.(slot)) to c.row_ptr.(state.(slot) + 1) - 1 do
          let next = Array.copy state in
          next.(slot) <- c.cols.(k);
          sem_close sem next;
          let dst = intern next in
          if dst <> src then
            Sdft_util.Vec.push transitions (src, dst, c.rates.(k))
        done)
      components
  done;
  let n_states = Sdft_util.Vec.length states in
  let chain =
    Ctmc.make ~n_states ~transitions:(Sdft_util.Vec.to_list transitions)
  in
  {
    chain;
    init;
    failed = Sdft_util.Vec.to_array failed_v;
    participants = Array.map (fun c -> c.basic) components;
    n_states;
  }

(* One group: a registry lists both build counters as soon as either
   moves, so a dump shows a zero rather than omitting the one that never
   moved. *)
let g = Metrics.group ()
let m_explorations = Metrics.counter g "product.explorations"
let m_template_hits = Metrics.counter g "product.template_hits"
let s_build = Obs.declare_span g "product.build"

let build ?(max_states = 1_000_000) ?(generic = false)
    ?(guard = Sdft_util.Guard.none) ?workspace ?(obs = Obs.default) sd =
  let m = obs.Obs.metrics in
  let sink = obs.Obs.trace in
  let fp = obs.Obs.failpoints in
  Obs.span obs s_build (fun () ->
      let sem = semantics sd in
      let built, reused =
        if generic then (build_generic sem ~max_states ~guard ~fp, false)
        else
          match radix_strides sem.components with
          | Some strides ->
            build_packed ?workspace sem ~max_states ~guard ~fp strides
          | None -> (build_generic sem ~max_states ~guard ~fp, false)
      in
      Metrics.incr
        (Metrics.get m (if reused then m_template_hits else m_explorations));
      Sdft_util.Trace.add_attr ~sink "states"
        (Sdft_util.Trace.Int built.n_states);
      Sdft_util.Trace.add_attr ~sink "transitions"
        (Sdft_util.Trace.Int (Ctmc.n_transitions built.chain));
      Sdft_util.Trace.add_attr ~sink "template" (Sdft_util.Trace.Bool reused);
      built)

let unreliability ?(epsilon = 1e-12) ?guard ?workspace ?obs built ~horizon =
  let options = { Transient.epsilon } in
  Transient.reach_within ~options ?guard ?workspace ?obs built.chain
    ~init:built.init
    ~target:(fun s -> built.failed.(s))
    ~t:horizon

let solve ?max_states ?epsilon ?guard ?obs sd ~horizon =
  let built = build ?max_states ?guard ?obs sd in
  unreliability ?epsilon ?guard ?obs built ~horizon
