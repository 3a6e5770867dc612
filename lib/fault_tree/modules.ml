(* A gate g is a module iff every strict-subtree node has all its parents
   inside the subtree (the gate itself may be referenced from anywhere). *)

let subtree_nodes tree g =
  let gates = Hashtbl.create 16 and basics = Hashtbl.create 16 in
  let rec walk g =
    if not (Hashtbl.mem gates g) then begin
      Hashtbl.add gates g ();
      Array.iter
        (function
          | Fault_tree.B b -> Hashtbl.replace basics b ()
          | Fault_tree.G g' -> walk g')
        (Fault_tree.gate_inputs tree g)
    end
  in
  walk g;
  (gates, basics)

(* A parent edge only breaks modularity when the parent gate is part of the
   analysed tree. Models routinely carry dangling intermediate gates (e.g.
   generator scaffolding, commented-out subsystems) that reference the same
   basic events; those edges are invisible to the top event and must not
   disqualify a module — in particular the top gate itself must always
   qualify, which the decomposition engines rely on. *)
let is_module_among ~relevant tree g =
  let gates, basics = subtree_nodes tree g in
  let inside_gate g' = Hashtbl.mem gates g' in
  let breaks parent = relevant parent && not (inside_gate parent) in
  let ok = ref true in
  Hashtbl.iter
    (fun g' () ->
      if g' <> g then
        Array.iter
          (fun parent -> if breaks parent then ok := false)
          (Fault_tree.gate_parents tree g'))
    gates;
  Hashtbl.iter
    (fun b () ->
      Array.iter
        (fun parent -> if breaks parent then ok := false)
        (Fault_tree.basic_parents tree b))
    basics;
  !ok

let reachable_gates tree =
  let seen = Hashtbl.create 64 in
  let rec walk g =
    if not (Hashtbl.mem seen g) then begin
      Hashtbl.add seen g ();
      Array.iter
        (function
          | Fault_tree.B _ -> ()
          | Fault_tree.G g' -> walk g')
        (Fault_tree.gate_inputs tree g)
    end
  in
  walk (Fault_tree.top tree);
  seen

let find tree =
  let reachable = reachable_gates tree in
  let relevant = Hashtbl.mem reachable in
  List.filter
    (fun g -> relevant g && is_module_among ~relevant tree g)
    (List.init (Fault_tree.n_gates tree) Fun.id)
