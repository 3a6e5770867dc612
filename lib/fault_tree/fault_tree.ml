type gate_kind =
  | And
  | Or
  | Atleast of int

type node =
  | B of int
  | G of int

type t = {
  basic_names : string array;
  probs : float array;
  gate_names : string array;
  kinds : gate_kind array;
  inputs : node array array;
  top : int;
  by_name : (string, node) Hashtbl.t;
  topo : int array; (* creation order is children-before-parents *)
  mutable basics_memo : Sdft_util.Int_set.t array option;
  mutable basic_parents_memo : int array array option;
  mutable gate_parents_memo : int array array option;
}

module Builder = struct
  type tree = t

  type t = {
    basic_names_v : string Sdft_util.Vec.t;
    probs_v : float Sdft_util.Vec.t;
    gate_names_v : string Sdft_util.Vec.t;
    kinds_v : gate_kind Sdft_util.Vec.t;
    inputs_v : node array Sdft_util.Vec.t;
    names : (string, node) Hashtbl.t;
  }

  let create () =
    {
      basic_names_v = Sdft_util.Vec.create ();
      probs_v = Sdft_util.Vec.create ();
      gate_names_v = Sdft_util.Vec.create ();
      kinds_v = Sdft_util.Vec.create ();
      inputs_v = Sdft_util.Vec.create ();
      names = Hashtbl.create 64;
    }

  let check_name b name =
    if Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Fault_tree.Builder: duplicate name %S" name)

  let basic b ?(prob = 0.0) name =
    check_name b name;
    if prob < 0.0 || prob > 1.0 || not (Float.is_finite prob) then
      invalid_arg
        (Printf.sprintf "Fault_tree.Builder: probability of %S out of [0,1]"
           name);
    let id = Sdft_util.Vec.length b.basic_names_v in
    Sdft_util.Vec.push b.basic_names_v name;
    Sdft_util.Vec.push b.probs_v prob;
    let n = B id in
    Hashtbl.add b.names name n;
    n

  let node_exists b = function
    | B i -> i >= 0 && i < Sdft_util.Vec.length b.basic_names_v
    | G i -> i >= 0 && i < Sdft_util.Vec.length b.gate_names_v

  let gate b name kind inputs =
    check_name b name;
    if inputs = [] then
      invalid_arg (Printf.sprintf "Fault_tree.Builder: gate %S has no inputs" name);
    List.iter
      (fun n ->
        if not (node_exists b n) then
          invalid_arg
            (Printf.sprintf "Fault_tree.Builder: gate %S has an unknown input"
               name))
      inputs;
    let distinct = List.sort_uniq compare inputs in
    if List.length distinct <> List.length inputs then
      invalid_arg
        (Printf.sprintf "Fault_tree.Builder: gate %S has duplicate inputs" name);
    (match kind with
    | Atleast k ->
      if k < 1 || k > List.length inputs then
        invalid_arg
          (Printf.sprintf "Fault_tree.Builder: gate %S: bad K-of-N threshold"
             name)
    | And | Or -> ());
    let id = Sdft_util.Vec.length b.gate_names_v in
    Sdft_util.Vec.push b.gate_names_v name;
    Sdft_util.Vec.push b.kinds_v kind;
    Sdft_util.Vec.push b.inputs_v (Array.of_list inputs);
    let n = G id in
    Hashtbl.add b.names name n;
    n

  let node_of_name b name = Hashtbl.find_opt b.names name

  let build b ~top =
    let top_id =
      match top with
      | G i -> i
      | B _ -> invalid_arg "Fault_tree.Builder.build: top must be a gate"
    in
    let n_gates = Sdft_util.Vec.length b.gate_names_v in
    if top_id < 0 || top_id >= n_gates then
      invalid_arg "Fault_tree.Builder.build: unknown top gate";
    {
      basic_names = Sdft_util.Vec.to_array b.basic_names_v;
      probs = Sdft_util.Vec.to_array b.probs_v;
      gate_names = Sdft_util.Vec.to_array b.gate_names_v;
      kinds = Sdft_util.Vec.to_array b.kinds_v;
      inputs = Sdft_util.Vec.to_array b.inputs_v;
      top = top_id;
      by_name = Hashtbl.copy b.names;
      topo = Array.init n_gates (fun i -> i);
      basics_memo = None;
      basic_parents_memo = None;
      gate_parents_memo = None;
    }
end

let n_basics t = Array.length t.basic_names

let n_gates t = Array.length t.gate_names

let top t = t.top

let basic_name t i = t.basic_names.(i)

let gate_name t i = t.gate_names.(i)

let prob t i = t.probs.(i)

let with_probs t probs =
  if Array.length probs <> n_basics t then
    invalid_arg "Fault_tree.with_probs: wrong length";
  Array.iter
    (fun p ->
      if p < 0.0 || p > 1.0 || not (Float.is_finite p) then
        invalid_arg "Fault_tree.with_probs: probability out of [0,1]")
    probs;
  { t with probs = Array.copy probs }

let gate_kind t i = t.kinds.(i)

let gate_inputs t i = t.inputs.(i)

let basic_index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (B i) -> Some i
  | Some (G _) | None -> None

let gate_index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (G i) -> Some i
  | Some (B _) | None -> None

let topological_gates t = t.topo

let compute_parents t =
  let bp = Array.make (n_basics t) [] in
  let gp = Array.make (n_gates t) [] in
  Array.iteri
    (fun g inputs ->
      Array.iter
        (function
          | B b -> bp.(b) <- g :: bp.(b)
          | G g' -> gp.(g') <- g :: gp.(g'))
        inputs)
    t.inputs;
  let finish l = Array.of_list (List.rev l) in
  let bp = Array.map finish bp and gp = Array.map finish gp in
  t.basic_parents_memo <- Some bp;
  t.gate_parents_memo <- Some gp;
  (bp, gp)

let basic_parents t b =
  match t.basic_parents_memo with
  | Some bp -> bp.(b)
  | None -> (fst (compute_parents t)).(b)

let gate_parents t g =
  match t.gate_parents_memo with
  | Some gp -> gp.(g)
  | None -> (snd (compute_parents t)).(g)

let eval_gates_into t ~failed values =
  if Array.length values < n_gates t then
    invalid_arg "Fault_tree.eval_gates_into: buffer too small";
  let node_value = function
    | B b -> failed b
    | G g -> values.(g)
  in
  Array.iter
    (fun g ->
      let inputs = t.inputs.(g) in
      let v =
        match t.kinds.(g) with
        | And -> Array.for_all node_value inputs
        | Or -> Array.exists node_value inputs
        | Atleast k ->
          let count = ref 0 in
          Array.iter (fun n -> if node_value n then incr count) inputs;
          !count >= k
      in
      values.(g) <- v)
    t.topo

let eval_gates t ~failed =
  let values = Array.make (n_gates t) false in
  eval_gates_into t ~failed values;
  values

let fails_top t ~failed = (eval_gates t ~failed).(t.top)

let scenario_probability t xi =
  let acc = ref 1.0 in
  for b = 0 to n_basics t - 1 do
    let p = t.probs.(b) in
    acc := !acc *. (if Sdft_util.Int_set.mem b xi then p else 1.0 -. p)
  done;
  !acc

let exact_top_probability_enumerate t =
  let n = n_basics t in
  if n > 20 then
    invalid_arg "Fault_tree.exact_top_probability_enumerate: too many events";
  let acc = Sdft_util.Kahan.create () in
  for mask = 0 to (1 lsl n) - 1 do
    let failed b = mask land (1 lsl b) <> 0 in
    if fails_top t ~failed then begin
      let p = ref 1.0 in
      for b = 0 to n - 1 do
        p := !p *. (if failed b then t.probs.(b) else 1.0 -. t.probs.(b))
      done;
      Sdft_util.Kahan.add acc !p
    end
  done;
  Sdft_util.Kahan.total acc

let descendant_basics t g =
  let memo =
    match t.basics_memo with
    | Some m -> m
    | None ->
      let m = Array.make (n_gates t) Sdft_util.Int_set.empty in
      Array.iter
        (fun gi ->
          let acc = ref Sdft_util.Int_set.empty in
          Array.iter
            (function
              | B b -> acc := Sdft_util.Int_set.add b !acc
              | G g' -> acc := Sdft_util.Int_set.union !acc m.(g'))
            t.inputs.(gi);
          m.(gi) <- !acc)
        t.topo;
      t.basics_memo <- Some m;
      m
  in
  memo.(g)

let depth t =
  let d = Array.make (n_gates t) 1 in
  Array.iter
    (fun g ->
      let deepest = ref 1 in
      Array.iter
        (function
          | B _ -> ()
          | G g' -> if d.(g') + 1 > !deepest then deepest := d.(g') + 1)
        t.inputs.(g);
      d.(g) <- !deepest)
    t.topo;
  d.(t.top)

type stats = {
  n_basic : int;
  n_gate : int;
  n_and : int;
  n_or : int;
  n_atleast : int;
  tree_depth : int;
}

let stats t =
  let n_and = ref 0 and n_or = ref 0 and n_atleast = ref 0 in
  Array.iter
    (function
      | And -> incr n_and
      | Or -> incr n_or
      | Atleast _ -> incr n_atleast)
    t.kinds;
  {
    n_basic = n_basics t;
    n_gate = n_gates t;
    n_and = !n_and;
    n_or = !n_or;
    n_atleast = !n_atleast;
    tree_depth = depth t;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d basic events, %d gates (%d AND, %d OR, %d K/N), depth %d" s.n_basic
    s.n_gate s.n_and s.n_or s.n_atleast s.tree_depth
