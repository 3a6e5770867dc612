type pending = {
  dynamic : (string * Dbe.t) list;
  triggers : (string * string) list;
}

let merge ps =
  {
    dynamic = List.concat_map (fun p -> p.dynamic) ps;
    triggers = List.concat_map (fun p -> p.triggers) ps;
  }

let make_sdft builder ~top pending =
  let tree = Fault_tree.Builder.build builder ~top in
  Sdft.make tree ~dynamic:pending.dynamic ~triggers:pending.triggers

let component builder ~name ~p_start ~lambda ?mu ?(phases = 1)
    ?(triggered = false) () =
  let start =
    Fault_tree.Builder.basic builder ~prob:p_start (name ^ ".start")
  in
  let run = Fault_tree.Builder.basic builder (name ^ ".run") in
  let gate =
    Fault_tree.Builder.gate builder name Fault_tree.Or [ start; run ]
  in
  let dbe =
    if triggered then
      Dbe.triggered_erlang ~phases ~lambda ?mu ~passive_factor:0.01 ()
    else Dbe.erlang ~phases ~lambda ?mu ()
  in
  (gate, { dynamic = [ (name ^ ".run", dbe) ]; triggers = [] })

(* Add a trigger edge [gate -> event] to the pending set; [tree_gate_name]
   must be the gate's name. *)
let trigger ~gate ~tree_gate_name pending ~event =
  (match gate with
  | Fault_tree.G _ -> ()
  | Fault_tree.B _ -> invalid_arg "Templates.trigger: trigger source must be a gate");
  { pending with triggers = (tree_gate_name, event) :: pending.triggers }

let standby_pair builder ~name ~p_start ~lambda ?mu ?phases () =
  let a, pa =
    component builder ~name:(name ^ ".A") ~p_start ~lambda ?mu ?phases ()
  in
  let b, pb =
    component builder ~name:(name ^ ".B") ~p_start ~lambda ?mu ?phases
      ~triggered:true ()
  in
  let gate = Fault_tree.Builder.gate builder name Fault_tree.And [ a; b ] in
  let pending = merge [ pa; pb ] in
  let pending =
    trigger ~gate:a ~tree_gate_name:(name ^ ".A") pending
      ~event:(name ^ ".B.run")
  in
  (gate, pending)
