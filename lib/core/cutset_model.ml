module Int_set = Sdft_util.Int_set

type t = {
  model : Sdft.t option;
  static_multiplier : float;
  impossible : bool;
  n_dynamic_in_cutset : int;
  n_added_dynamic : int;
  n_added_static : int;
}

type trigger_result =
  [ `Never | `Always | `Sets of Int_set.t list ]

(* The memo tables are read and written under [lock]; an answer is
   computed outside it, so a slow trigger-set compilation never blocks
   another domain's lookups. A [sealed] view reads the tables and never
   writes them. *)
type context = {
  ctx_sd : Sdft.t;
  class_memo : (int, Sdft_classify.gate_class) Hashtbl.t;
  tsets_memo : (int * Int_set.t * Int_set.t, trigger_result) Hashtbl.t;
  lock : Mutex.t;
  sealed : bool;
}

let context sd =
  {
    ctx_sd = sd;
    class_memo = Hashtbl.create 16;
    tsets_memo = Hashtbl.create 64;
    lock = Mutex.create ();
    sealed = false;
  }

let read_only ctx = { ctx with sealed = true }

let memo ctx table key compute =
  match Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt table key) with
  | Some v -> v
  | None ->
    let v = compute () in
    if not ctx.sealed then
      Mutex.protect ctx.lock (fun () ->
          if not (Hashtbl.mem table key) then Hashtbl.add table key v);
    v

let classify_cached ?obs ctx g =
  memo ctx ctx.class_memo g (fun () ->
      Sdft_classify.classify ?obs ctx.ctx_sd g)

(* Minimal subsets A_1..A_k of [rel] that, together with the assumed-failed
   static events, fail the gate [g]: compile the gate's structure function
   with everything outside [rel] fixed (statics of C to true, the rest to
   false) and extract the minimal solutions. *)
let trigger_sets_uncached ?guard sd ~gate ~rel ~assumed_true : trigger_result =
  let assume b =
    if Int_set.mem b assumed_true then Some true
    else if Int_set.mem b rel then None
    else Some false
  in
  let bm, root = Bdd.of_fault_tree_gate ~assume ?guard (Sdft.tree sd) gate in
  if root = Bdd.zero then `Never
  else if root = Bdd.one then `Always
  else `Sets (Minsol.minimal_cutsets bm root)

let trigger_sets ?guard ctx ~gate ~rel ~assumed_true =
  (* Only the assumed statics below the gate influence the result; keying
     on their restriction makes cutsets differing elsewhere share entries. *)
  let relevant_true =
    Int_set.inter assumed_true (Sdft.static_descendants ctx.ctx_sd gate)
  in
  (* A guard trip propagates before the memo entry is stored, so a limit
     can never poison the table with a partial result. *)
  memo ctx ctx.tsets_memo (gate, rel, relevant_true) (fun () ->
      trigger_sets_uncached ?guard ctx.ctx_sd ~gate ~rel
        ~assumed_true:relevant_true)

type rel_rule =
  | Paper
  | All_events

let build ?context:ctx ?(rel_rule = Paper) ?guard ?obs sd cutset =
  let ctx = match ctx with Some c -> c | None -> context sd in
  let tree = Sdft.tree sd in
  let c_dyn, c_stat =
    List.partition (Sdft.is_dynamic sd) (Int_set.to_list cutset)
  in
  let c_stat_set = Int_set.of_list c_stat in
  let static_multiplier =
    List.fold_left (fun acc b -> acc *. Fault_tree.prob tree b) 1.0 c_stat
  in
  let n_dynamic_in_cutset = List.length c_dyn in
  if c_dyn = [] then
    {
      model = None;
      static_multiplier;
      impossible = false;
      n_dynamic_in_cutset;
      n_added_dynamic = 0;
      n_added_static = 0;
    }
  else begin
    let builder = Fault_tree.Builder.create () in
    let leaf_memo : (int, Fault_tree.node) Hashtbl.t = Hashtbl.create 16 in
    let dynamic_assoc = ref [] in
    let trigger_assoc = ref [] in
    let queue = Queue.create () in
    let n_added_dynamic = ref 0 and n_added_static = ref 0 in
    let impossible = ref false in
    let constant_leaf = Hashtbl.create 2 in
    let constant name prob =
      match Hashtbl.find_opt constant_leaf name with
      | Some node -> node
      | None ->
        let node = Fault_tree.Builder.basic builder ~prob name in
        Hashtbl.add constant_leaf name node;
        node
    in
    let add_leaf ~from_cutset b =
      match Hashtbl.find_opt leaf_memo b with
      | Some node -> node
      | None ->
        let name = Fault_tree.basic_name tree b in
        let is_dyn = Sdft.is_dynamic sd b in
        let prob = if is_dyn then 0.0 else Fault_tree.prob tree b in
        let node = Fault_tree.Builder.basic builder ~prob name in
        Hashtbl.add leaf_memo b node;
        if is_dyn then begin
          dynamic_assoc := (name, Sdft.dbe sd b) :: !dynamic_assoc;
          if not from_cutset then incr n_added_dynamic;
          if Sdft.trigger_of sd b <> None then
            Queue.add (b, from_cutset) queue
        end
        else if not from_cutset then incr n_added_static;
        node
    in
    let cutset_leaves = List.map (add_leaf ~from_cutset:true) c_dyn in
    (* One triggering gate is modeled once and shared by all events it
       triggers (step 3 of the construction). *)
    let modeled_gate : (int, string) Hashtbl.t = Hashtbl.create 8 in
    let fresh = ref 0 in
    let model_trigger_logic b first_round =
      let g =
        match Sdft.trigger_of sd b with
        | Some g -> g
        | None -> assert false (* only triggered events are enqueued *)
      in
      let basic_nm = Fault_tree.basic_name tree b in
      match Hashtbl.find_opt modeled_gate g with
      | Some gate_nm -> trigger_assoc := (gate_nm, basic_nm) :: !trigger_assoc
      | None ->
        let general_rel () =
          Int_set.diff (Fault_tree.descendant_basics tree g) c_stat_set
        in
        let rel =
          if not first_round then general_rel ()
          else
            match rel_rule with
            | All_events -> general_rel ()
            | Paper -> (
              match classify_cached ?obs ctx g with
              | Sdft_classify.Static_branching ->
                Int_set.inter (Sdft.dynamic_descendants sd g) cutset
              | Sdft_classify.Static_joins _ -> Sdft.dynamic_descendants sd g
              | Sdft_classify.General -> general_rel ())
        in
        let gate_nm = Printf.sprintf "#trig:%s" (Fault_tree.gate_name tree g) in
        let or_inputs =
          match trigger_sets ?guard ctx ~gate:g ~rel ~assumed_true:c_stat_set with
          | `Never ->
            (* The event can never be switched on, hence never fail. *)
            if first_round then impossible := true;
            [ constant "#never" 0.0 ]
          | `Always -> [ constant "#always" 1.0 ]
          | `Sets sets ->
            List.map
              (fun a ->
                let leaves =
                  List.map (add_leaf ~from_cutset:false) (Int_set.to_list a)
                in
                match leaves with
                | [ single ] -> single
                | several ->
                  incr fresh;
                  Fault_tree.Builder.gate builder
                    (Printf.sprintf "%s/and%d" gate_nm !fresh)
                    Fault_tree.And several)
              sets
        in
        let _node =
          Fault_tree.Builder.gate builder gate_nm Fault_tree.Or or_inputs
        in
        Hashtbl.add modeled_gate g gate_nm;
        trigger_assoc := (gate_nm, basic_nm) :: !trigger_assoc
    in
    while not (Queue.is_empty queue) && not !impossible do
      let b, first_round = Queue.pop queue in
      model_trigger_logic b first_round
    done;
    if !impossible then
      {
        model = None;
        static_multiplier;
        impossible = true;
        n_dynamic_in_cutset;
        n_added_dynamic = !n_added_dynamic;
        n_added_static = !n_added_static;
      }
    else begin
      let top =
        Fault_tree.Builder.gate builder "#cutset" Fault_tree.And cutset_leaves
      in
      let tree_c = Fault_tree.Builder.build builder ~top in
      let model =
        Sdft.make tree_c ~dynamic:!dynamic_assoc ~triggers:!trigger_assoc
      in
      {
        model = Some model;
        static_multiplier;
        impossible = false;
        n_dynamic_in_cutset;
        n_added_dynamic = !n_added_dynamic;
        n_added_static = !n_added_static;
      }
    end
  end

type quantification = {
  probability : float;
  product_states : int;
  product_transitions : int;
  solver_steps : int;
  solver_error : float;
  from_cache : bool;
  seconds : float;
}

let no_solve ~probability t0 =
  {
    probability;
    product_states = 0;
    product_transitions = 0;
    solver_steps = 0;
    solver_error = 0.0;
    from_cache = false;
    seconds = Sdft_util.Timer.elapsed_s t0;
  }

type solution = {
  e_prob : float;
  e_states : int;
  e_transitions : int;
  e_steps : int;
}

(* Materialize a workspace even when the caller has none so that the
   solver's step count can be read back for provenance. The chain lives in
   the workspace and never leaves this function. *)
let solve ?(epsilon = 1e-12) ?max_states ?guard ?workspace ?obs sd_c ~horizon =
  let ws = match workspace with Some w -> w | None -> Transient.workspace () in
  let built = Sdft_product.build ?max_states ?guard ~workspace:ws ?obs sd_c in
  let p =
    Sdft_product.unreliability ~epsilon ?guard ~workspace:ws ?obs built
      ~horizon
  in
  {
    e_prob = p;
    e_states = built.n_states;
    e_transitions = Ctmc.n_transitions built.Sdft_product.chain;
    e_steps = Transient.last_steps ws;
  }

let of_solution ~epsilon ~static_multiplier ~from_cache ~seconds s =
  {
    probability = s.e_prob *. static_multiplier;
    product_states = s.e_states;
    product_transitions = s.e_transitions;
    solver_steps = s.e_steps;
    (* The transient solve carries a truncation error of at most [epsilon];
       the static multiplier scales it down with the probability. *)
    solver_error = epsilon *. static_multiplier;
    from_cache;
    seconds;
  }

let quantify ?(epsilon = 1e-12) ?max_states ?guard ?workspace ?obs t ~horizon
    =
  let t0 = Sdft_util.Timer.start () in
  if t.impossible then no_solve ~probability:0.0 t0
  else
    match t.model with
    | None -> no_solve ~probability:t.static_multiplier t0
    | Some sd_c ->
      let s = solve ~epsilon ?max_states ?guard ?workspace ?obs sd_c ~horizon in
      of_solution ~epsilon ~static_multiplier:t.static_multiplier
        ~from_cache:false ~seconds:(Sdft_util.Timer.elapsed_s t0) s

(* JSON codec for quantification records — the per-cutset payload of a
   saved result manifest. Floats go through Json.add_float (17 significant
   digits), which round-trips every finite double bit-exactly. *)

module Json = Sdft_util.Json

let add_quantification_json buf q =
  Buffer.add_string buf "{\"probability\": ";
  Json.add_float buf q.probability;
  Buffer.add_string buf ", \"states\": ";
  Buffer.add_string buf (string_of_int q.product_states);
  Buffer.add_string buf ", \"transitions\": ";
  Buffer.add_string buf (string_of_int q.product_transitions);
  Buffer.add_string buf ", \"steps\": ";
  Buffer.add_string buf (string_of_int q.solver_steps);
  Buffer.add_string buf ", \"solver_error\": ";
  Json.add_float buf q.solver_error;
  Buffer.add_char buf '}'

let quantification_to_json q =
  let buf = Buffer.create 128 in
  add_quantification_json buf q;
  Buffer.contents buf

let quantification_of_json v =
  let num name = Option.bind (Json.member name v) Json.to_float in
  let int name = Option.bind (Json.member name v) Json.to_int in
  match
    (num "probability", int "states", int "transitions", int "steps",
     num "solver_error")
  with
  | Some probability, Some product_states, Some product_transitions,
    Some solver_steps, Some solver_error ->
    Ok
      {
        probability;
        product_states;
        product_transitions;
        solver_steps;
        solver_error;
        (* Serialization provenance: the record came from an earlier run's
           manifest, not from a live solve of this one. *)
        from_cache = true;
        seconds = 0.0;
      }
  | _ -> Error "quantification record is missing a field"
