type calibration =
  | Mttf
  | Mission_probability

type config = {
  dynamic_fraction : float;
  trigger_fraction : float;
  phases : int;
  repair_rate : float option;
  mission_hours : float;
  candidates : int list option;
  chain_groups : int list list option;
  cutoff : float;
  calibration : calibration;
}

let default_config =
  {
    dynamic_fraction = 0.1;
    trigger_fraction = 0.01;
    phases = 1;
    repair_rate = None;
    mission_hours = 24.0;
    candidates = None;
    chain_groups = None;
    cutoff = 1e-15;
    calibration = Mttf;
  }

type result = {
  sd : Sdft.t;
  n_dynamic : int;
  n_triggered : int;
  dynamic_events : string list;
}

(* Rebuild the tree with one single-input OR gate ("<name>@w") above each
   listed basic event, available as a trigger source; the wrappers hang off
   the DAG (they feed no other gate), which is all a trigger needs. *)
let add_wrapper_gates tree basics =
  let b = Fault_tree.Builder.create () in
  let basic_nodes =
    Array.init (Fault_tree.n_basics tree) (fun i ->
        Fault_tree.Builder.basic b ~prob:(Fault_tree.prob tree i)
          (Fault_tree.basic_name tree i))
  in
  let gate_map = Array.make (Fault_tree.n_gates tree) None in
  let rec gate_of g =
    match gate_map.(g) with
    | Some node -> node
    | None ->
      let inputs =
        Array.to_list
          (Array.map
             (function
               | Fault_tree.B i -> basic_nodes.(i)
               | Fault_tree.G g' -> gate_of g')
             (Fault_tree.gate_inputs tree g))
      in
      let node =
        Fault_tree.Builder.gate b (Fault_tree.gate_name tree g)
          (Fault_tree.gate_kind tree g)
          inputs
      in
      gate_map.(g) <- Some node;
      node
  in
  let top = gate_of (Fault_tree.top tree) in
  let wrappers =
    List.map
      (fun i ->
        let name = Fault_tree.basic_name tree i ^ "@w" in
        let _ =
          Fault_tree.Builder.gate b name Fault_tree.Or [ basic_nodes.(i) ]
        in
        (i, name))
      basics
  in
  (Fault_tree.Builder.build b ~top, wrappers)

let run ?(config = default_config) tree =
  if config.dynamic_fraction < 0.0 || config.dynamic_fraction > 1.0 then
    invalid_arg "Dynamize.run: dynamic_fraction out of [0,1]";
  let nb = Fault_tree.n_basics tree in
  let cutsets =
    (Sdft_analysis.generate_cutsets ~cutoff:config.cutoff
       Sdft_analysis.Zdd_engine tree)
      .Mocus.cutsets
  in
  let importance = Importance.compute tree cutsets in
  let eligible =
    match config.candidates with
    | None -> fun _ -> true
    | Some l ->
      let set = Sdft_util.Int_set.of_list l in
      fun i -> Sdft_util.Int_set.mem i set
  in
  let usable i =
    eligible i
    &&
    let p = Fault_tree.prob tree i in
    p > 0.0 && p < 1.0
  in
  let n_dynamic =
    int_of_float (Float.round (config.dynamic_fraction *. float_of_int nb))
  in
  let ranked =
    List.filter usable (Importance.rank_by_fussell_vesely importance)
  in
  let chosen =
    List.filteri (fun idx _ -> idx < n_dynamic) ranked
  in
  let chosen_set = Sdft_util.Int_set.of_list chosen in
  (* Triggering chains among equal-importance groups of chosen events,
     highest importance first, until the trigger quota is reached. Every
     chain link "event e_i triggers e_{i+1}" needs a wrapper gate above
     e_i. *)
  let n_triggers =
    int_of_float (Float.round (config.trigger_fraction *. float_of_int nb))
  in
  let groups =
    match config.chain_groups with
    | Some explicit ->
      (* Keep the given order within each group; order groups by the
         importance of their most important member. *)
      let fv_of group =
        List.fold_left
          (fun acc i -> Float.max acc (Importance.fussell_vesely importance i))
          0.0 group
      in
      List.map snd
        (List.sort
           (fun (a, _) (b, _) -> compare b a)
           (List.map (fun g -> (fv_of g, g)) explicit))
    | None -> Importance.groups_by_fussell_vesely importance
  in
  let chains = ref [] (* (source event, triggered event) *) in
  let n_placed = ref 0 in
  List.iter
    (fun group ->
      let members =
        List.filter (fun i -> Sdft_util.Int_set.mem i chosen_set) group
      in
      let rec link = function
        | src :: dst :: rest when !n_placed < n_triggers ->
          chains := (src, dst) :: !chains;
          incr n_placed;
          link (dst :: rest)
        | _ -> ()
      in
      link members)
    groups;
  let chains = List.rev !chains in
  let sources = List.sort_uniq compare (List.map fst chains) in
  let wrapped_tree, wrappers = add_wrapper_gates tree sources in
  let wrapper_of = List.to_seq wrappers |> Hashtbl.of_seq in
  let triggered = List.map snd chains in
  let triggered_set = Sdft_util.Int_set.of_list triggered in
  (* CDF of an Erlang-k failure built from phase rate k*lambda. *)
  let erlang_cdf k lambda t =
    let r = float_of_int k *. lambda *. t in
    let term = ref 1.0 and acc = ref 1.0 in
    for i = 1 to k - 1 do
      term := !term *. r /. float_of_int i;
      acc := !acc +. !term
    done;
    1.0 -. (exp (-.r) *. !acc)
  in
  let rate_of i =
    let p = Fault_tree.prob tree i in
    match config.calibration with
    | Mttf -> -.log (1.0 -. p) /. config.mission_hours
    | Mission_probability ->
      (* Bisection on lambda: the CDF is increasing in the rate. *)
      let t = config.mission_hours in
      let k = config.phases in
      let lo = ref 0.0 and hi = ref (1.0 /. t) in
      while erlang_cdf k !hi t < p do
        hi := !hi *. 2.0
      done;
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if erlang_cdf k mid t < p then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
  in
  let dynamic =
    List.map
      (fun i ->
        let name = Fault_tree.basic_name tree i in
        let lambda = rate_of i in
        let d =
          if Sdft_util.Int_set.mem i triggered_set then
            Dbe.triggered_erlang ~phases:config.phases ~lambda
              ?mu:config.repair_rate ~passive_factor:0.01 ()
          else
            Dbe.erlang ~phases:config.phases ~lambda ?mu:config.repair_rate ()
        in
        (name, d))
      chosen
  in
  let triggers =
    List.map
      (fun (src, dst) ->
        (Hashtbl.find wrapper_of src, Fault_tree.basic_name tree dst))
      chains
  in
  let sd = Sdft.make wrapped_tree ~dynamic ~triggers in
  {
    sd;
    n_dynamic = List.length chosen;
    n_triggered = List.length triggers;
    dynamic_events = List.map (fun i -> Fault_tree.basic_name tree i) chosen;
  }
