type component = {
  (* Flat transition layout shared straight from the underlying [Ctmc]
     arrays: state [s] owns [cols]/[rates] entries
     [row_ptr.(s) .. row_ptr.(s + 1) - 1]. *)
  row_ptr : int array;
  cols : int array;
  rates : float array;
  init_states : int array;
  init_weights : float array;
  failed : bool array;
  trigger_gate : int; (* -1 when untriggered *)
  mode_on : bool array;
  partner : int array;
  is_static : bool;
  static_prob : float; (* failure probability; 0 for dynamic events *)
}

let component_of_basic sd b =
  let tree = Sdft.tree sd in
  if Sdft.is_dynamic sd b then begin
    let d = Sdft.dbe sd b in
    let n = Dbe.n_states d in
    let chain = Dbe.chain d in
    let init = List.filter (fun (_, p) -> p > 0.0) (Dbe.init d) in
    let triggered = Dbe.is_triggered_model d in
    let mode_on = Array.init n (fun s -> Dbe.mode_of d s = Dbe.On) in
    {
      row_ptr = Ctmc.row_ptr chain;
      cols = Ctmc.cols chain;
      rates = Ctmc.rates chain;
      init_states = Array.of_list (List.map fst init);
      init_weights = Array.of_list (List.map snd init);
      failed = Array.init n (Dbe.is_failed d);
      trigger_gate =
        (match Sdft.trigger_of sd b with Some g -> g | None -> -1);
      mode_on;
      partner =
        Array.init n (fun s ->
            if not triggered then s
            else if mode_on.(s) then Dbe.switch_off d s
            else Dbe.switch_on d s);
      is_static = false;
      static_prob = 0.0;
    }
  end
  else begin
    let p = Fault_tree.prob tree b in
    {
      row_ptr = [| 0; 0; 0 |];
      cols = [||];
      rates = [||];
      init_states = [| 0; 1 |];
      init_weights = [| 1.0 -. p; p |];
      failed = [| false; true |];
      trigger_gate = -1;
      mode_on = [| true; true |];
      partner = [| 0; 1 |];
      is_static = true;
      static_prob = p;
    }
  end

let sample_categorical rng weights =
  let u = Sdft_util.Rng.float rng in
  let rec pick i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else pick (i + 1) acc
  in
  pick 0 0.0

type t = {
  sd : Sdft.t;
  components : component array;
  n_triggered : int;
  gates_buf : bool array; (* scratch for gate evaluations *)
}

let make sd =
  let nb = Sdft.n_basics sd in
  let components = Array.init nb (component_of_basic sd) in
  let n_triggered =
    Array.fold_left
      (fun acc c -> if c.trigger_gate >= 0 then acc + 1 else acc)
      0 components
  in
  {
    sd;
    components;
    n_triggered;
    gates_buf = Array.make (Fault_tree.n_gates (Sdft.tree sd)) false;
  }

let components t = t.components

let eval world state =
  Fault_tree.eval_gates_into (Sdft.tree world.sd)
    ~failed:(fun b -> world.components.(b).failed.(state.(b)))
    world.gates_buf;
  world.gates_buf

let close world state =
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let gates = eval world state in
    Array.iteri
      (fun b c ->
        if c.trigger_gate >= 0 then begin
          let on = c.mode_on.(state.(b)) in
          if on <> gates.(c.trigger_gate) then begin
            state.(b) <- c.partner.(state.(b));
            changed := true
          end
        end)
      world.components;
    incr passes;
    if !passes > world.n_triggered + 2 then
      failwith "Simulator: update closure did not converge"
  done

let top_failed world state =
  (eval world state).(Fault_tree.top (Sdft.tree world.sd))

let sample_initial world rng =
  Array.map
    (fun c -> c.init_states.(sample_categorical rng c.init_weights))
    world.components

let total_rate world state =
  let total = ref 0.0 in
  Array.iteri
    (fun b c ->
      let s = state.(b) in
      for k = c.row_ptr.(s) to c.row_ptr.(s + 1) - 1 do
        total := !total +. c.rates.(k)
      done)
    world.components;
  !total

let apply_jump world rng state ~total =
  (* Pick the jumping transition proportionally to its rate, apply it, then
     re-establish trigger consistency. *)
  let u = Sdft_util.Rng.float rng *. total in
  let acc = ref 0.0 in
  let done_ = ref false in
  Array.iteri
    (fun b c ->
      if not !done_ then begin
        let s = state.(b) in
        let k = ref c.row_ptr.(s) in
        let stop = c.row_ptr.(s + 1) in
        while (not !done_) && !k < stop do
          acc := !acc +. c.rates.(!k);
          if u < !acc then begin
            state.(b) <- c.cols.(!k);
            done_ := true
          end;
          incr k
        done
      end)
    world.components;
  if !done_ then close world state;
  !done_
