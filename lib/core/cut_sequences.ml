module Int_set = Sdft_util.Int_set

type sequence = {
  order : int list;
  probability : float;
}

type result = {
  sequences : sequence list;
  total : float;
}

(* Recency update: [before]/[after] are the failed flags of the tracked
   slots; the order lists tracked slots, first-failed first. *)
let update_recency order ~before ~after n_tracked =
  let order = List.filter (fun slot -> after.(slot)) order in
  let additions = ref [] in
  for slot = n_tracked - 1 downto 0 do
    if after.(slot) && not before.(slot) then additions := slot :: !additions
  done;
  order @ !additions

let of_cutset ?(epsilon = 1e-12) ?(max_states = 1_000_000) ?rel_rule sd cutset
    ~horizon =
  let model = Cutset_model.build ?rel_rule sd cutset in
  if model.Cutset_model.impossible then { sequences = []; total = 0.0 }
  else
    match model.Cutset_model.model with
    | None ->
      let p = model.Cutset_model.static_multiplier in
      { sequences = [ { order = []; probability = p } ]; total = p }
    | Some sd_c ->
      let sem = Sdft_product.semantics sd_c in
      let components = Sdft_product.sem_components sem in
      let tree_c = Sdft.tree sd_c in
      let tree = Sdft.tree sd in
      (* Tracked slots: components of FT_C corresponding to the dynamic
         events of the cutset, identified by name. *)
      let original_of_name = Hashtbl.create 8 in
      Int_set.iter
        (fun b ->
          if Sdft.is_dynamic sd b then
            Hashtbl.replace original_of_name (Fault_tree.basic_name tree b) b)
        cutset;
      let tracked = ref [] in
      Array.iteri
        (fun slot c ->
          let name = Fault_tree.basic_name tree_c c.Sdft_product.basic in
          if Hashtbl.mem original_of_name name then
            tracked := (slot, Hashtbl.find original_of_name name) :: !tracked)
        components;
      let tracked = Array.of_list (List.rev !tracked) in
      let n_tracked = Array.length tracked in
      let tracked_index = Hashtbl.create 8 in
      Array.iteri (fun i (slot, _) -> Hashtbl.replace tracked_index slot i) tracked;
      let failed_flags state =
        Array.map
          (fun (slot, _) ->
            components.(slot).Sdft_product.failed_local.(state.(slot)))
          tracked
      in
      (* Augmented state space: (product state, recency order). *)
      let ids : (int array * int list, int) Hashtbl.t = Hashtbl.create 256 in
      let states = Sdft_util.Vec.create () in
      let absorbing_order = Sdft_util.Vec.create () in
      let frontier = Queue.create () in
      let intern state order =
        let key = (state, order) in
        match Hashtbl.find_opt ids key with
        | Some id -> id
        | None ->
          let id = Sdft_util.Vec.length states in
          if id >= max_states then
            raise (Sdft_product.Too_many_states id);
          Hashtbl.add ids key id;
          Sdft_util.Vec.push states key;
          let absorbed =
            if Sdft_product.sem_fails_top sem state then Some order else None
          in
          Sdft_util.Vec.push absorbing_order absorbed;
          if absorbed = None then Queue.add id frontier;
          id
      in
      let init =
        List.map
          (fun (state, mass) ->
            let flags = failed_flags state in
            let order =
              update_recency []
                ~before:(Array.make n_tracked false)
                ~after:flags n_tracked
            in
            (intern state order, mass))
          (Sdft_product.sem_initial_states sem ~max_states)
      in
      let transitions = Sdft_util.Vec.create () in
      while not (Queue.is_empty frontier) do
        let src = Queue.pop frontier in
        let state, order = Sdft_util.Vec.get states src in
        let before = failed_flags state in
        Array.iteri
          (fun slot c ->
            Array.iter
              (fun (dst_local, rate) ->
                let next = Array.copy state in
                next.(slot) <- dst_local;
                Sdft_product.sem_close sem next;
                let after = failed_flags next in
                let order' = update_recency order ~before ~after n_tracked in
                let dst = intern next order' in
                if dst <> src then
                  Sdft_util.Vec.push transitions (src, dst, rate))
              c.Sdft_product.rows.(state.(slot)))
          components
      done;
      let n_states = Sdft_util.Vec.length states in
      let chain =
        Ctmc.make ~n_states ~transitions:(Sdft_util.Vec.to_list transitions)
      in
      let options = { Transient.epsilon } in
      let dist = Transient.distribution ~options chain ~init ~t:horizon in
      (* Group the absorbed mass by order, translating tracked slots back to
         original basic-event indices. *)
      let by_order : (int list, float) Hashtbl.t = Hashtbl.create 16 in
      Sdft_util.Vec.iteri
        (fun id absorbed ->
          match absorbed with
          | Some order when dist.(id) > 0.0 ->
            let original =
              List.map (fun slot -> snd tracked.(Hashtbl.find tracked_index slot)) order
            in
            let prev = try Hashtbl.find by_order original with Not_found -> 0.0 in
            Hashtbl.replace by_order original (prev +. dist.(id))
          | Some _ | None -> ())
        absorbing_order;
      let multiplier = model.Cutset_model.static_multiplier in
      let sequences =
        Hashtbl.fold
          (fun order mass acc ->
            { order; probability = mass *. multiplier } :: acc)
          by_order []
        |> List.sort (fun a b -> compare b.probability a.probability)
      in
      let total =
        Sdft_util.Kahan.sum_list (List.map (fun s -> s.probability) sequences)
      in
      { sequences; total }

let pp sd ppf s =
  let tree = Sdft.tree sd in
  Format.fprintf ppf "%.3e: "
    s.probability;
  Format.pp_print_string ppf
    (String.concat " -> " (List.map (Fault_tree.basic_name tree) s.order))
