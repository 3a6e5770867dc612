module Int_set = Sdft_util.Int_set

type gate_class =
  | Static_branching
  | Static_joins of { uniform : bool }
  | General

let node_is_dynamic sd = function
  | Fault_tree.B b -> Sdft.is_dynamic sd b
  | Fault_tree.G g -> Sdft.is_gate_dynamic sd g

(* Iterate over all gates in the subtree of [g], including [g] itself. *)
let iter_subtree_gates sd g f =
  let tree = Sdft.tree sd in
  let seen = Hashtbl.create 16 in
  let rec walk g =
    if not (Hashtbl.mem seen g) then begin
      Hashtbl.add seen g ();
      f g;
      Array.iter
        (function
          | Fault_tree.B _ -> ()
          | Fault_tree.G g' -> walk g')
        (Fault_tree.gate_inputs tree g)
    end
  in
  walk g

let has_static_branching sd g =
  let tree = Sdft.tree sd in
  let ok = ref true in
  iter_subtree_gates sd g (fun g' ->
      match Fault_tree.gate_kind tree g' with
      | Fault_tree.Or ->
        let dynamic_children = ref 0 in
        Array.iter
          (fun n -> if node_is_dynamic sd n then incr dynamic_children)
          (Fault_tree.gate_inputs tree g');
        if !dynamic_children > 1 then ok := false
      | Fault_tree.And -> ()
      | Fault_tree.Atleast _ ->
        (* A voting gate both joins and branches; it only preserves static
           branching when none of its children is dynamic. *)
        if
          Array.exists (node_is_dynamic sd) (Fault_tree.gate_inputs tree g')
        then ok := false);
  !ok

let has_static_joins sd g =
  let tree = Sdft.tree sd in
  let ok = ref true in
  iter_subtree_gates sd g (fun g' ->
      match Fault_tree.gate_kind tree g' with
      | Fault_tree.And | Fault_tree.Atleast _ ->
        if
          Array.exists (node_is_dynamic sd) (Fault_tree.gate_inputs tree g')
        then ok := false
      | Fault_tree.Or -> ());
  !ok

let has_uniform_triggering sd g =
  let dyn = Sdft.dynamic_descendants sd g in
  Int_set.cardinal dyn > 0
  &&
  let triggers =
    List.map (fun b -> Sdft.trigger_of sd b) (Int_set.to_list dyn)
  in
  match triggers with
  | [] -> false
  | first :: rest -> first <> None && List.for_all (fun t -> t = first) rest

(* Callers memoize the class per gate, so resolving the span per call
   costs one registry lookup per gate, not per cutset. *)
let classify ?(obs = Sdft_util.Obs.default) sd g =
  Sdft_util.Obs.span obs
    ~attrs:[ ("gate", Sdft_util.Trace.Int g) ]
    (Sdft_util.Obs.span_in obs.Sdft_util.Obs.metrics "classify.gate")
    (fun () ->
      if has_static_branching sd g then Static_branching
      else if has_static_joins sd g then
        Static_joins { uniform = has_uniform_triggering sd g }
      else General)

type report = {
  per_trigger_gate : (int * gate_class) list;
  n_static_branching : int;
  n_static_joins_uniform : int;
  n_static_joins_other : int;
  n_general : int;
}

let report ?obs sd =
  let gates =
    List.sort_uniq compare (List.map fst (Sdft.trigger_edges sd))
  in
  let per_trigger_gate = List.map (fun g -> (g, classify ?obs sd g)) gates in
  let count pred = List.length (List.filter (fun (_, c) -> pred c) per_trigger_gate) in
  {
    per_trigger_gate;
    n_static_branching = count (fun c -> c = Static_branching);
    n_static_joins_uniform = count (fun c -> c = Static_joins { uniform = true });
    n_static_joins_other = count (fun c -> c = Static_joins { uniform = false });
    n_general = count (fun c -> c = General);
  }

let pp_class ppf = function
  | Static_branching -> Format.pp_print_string ppf "static branching"
  | Static_joins { uniform = true } ->
    Format.pp_print_string ppf "static joins (uniform triggering)"
  | Static_joins { uniform = false } ->
    Format.pp_print_string ppf "static joins"
  | General -> Format.pp_print_string ppf "general"

let pp_report sd ppf r =
  Format.fprintf ppf
    "@[<v>trigger gates: %d static branching, %d static joins (uniform), %d \
     static joins (non-uniform), %d general@,"
    r.n_static_branching r.n_static_joins_uniform r.n_static_joins_other
    r.n_general;
  List.iter
    (fun (g, c) ->
      Format.fprintf ppf "  %s: %a@,"
        (Fault_tree.gate_name (Sdft.tree sd) g)
        pp_class c)
    r.per_trigger_gate;
  Format.fprintf ppf "@]"
