(* Strongly-connected check by forward and backward reachability from a
   seed: the sub-chain is irreducible iff every reachable state can also
   reach the seed. *)
let reachable_set chain seeds =
  let n = Ctmc.n_states chain in
  let seen = Array.make n false in
  let rec walk s =
    if not seen.(s) then begin
      seen.(s) <- true;
      Array.iter (fun (dst, _) -> walk dst) (Ctmc.outgoing chain s)
    end
  in
  List.iter walk seeds;
  seen

let event_unavailability d =
  let chain = Dbe.chain d in
  let seeds = List.map fst (Dbe.initial_on d) in
  let reachable = reachable_set chain seeds in
  (* Restrict to the reachable sub-chain. *)
  let n = Ctmc.n_states chain in
  let index = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if reachable.(s) then begin
      index.(s) <- !count;
      incr count
    end
  done;
  let transitions = ref [] in
  Ctmc.iter_transitions chain (fun src dst rate ->
      if reachable.(src) && reachable.(dst) then
        transitions := (index.(src), index.(dst), rate) :: !transitions);
  let sub = Ctmc.make ~n_states:!count ~transitions:!transitions in
  (* Irreducibility: from state 0 of the sub-chain everything is reachable
     (true by construction from the seeds if the seeds communicate) and
     everything reaches back. Check with reversed edges. *)
  let reversed =
    Ctmc.make ~n_states:!count
      ~transitions:(List.map (fun (a, b, r) -> (b, a, r)) !transitions)
  in
  let seed_sub = List.filter_map (fun s -> if index.(s) >= 0 then Some index.(s) else None) seeds in
  let forward = reachable_set sub seed_sub in
  let backward = reachable_set reversed seed_sub in
  let irreducible =
    Array.for_all Fun.id forward && Array.for_all Fun.id backward
  in
  if not irreducible then None
  else
    match
      Steady_state.unavailability sub ~failed:(fun s_sub ->
          (* map back: find original state with this index *)
          let rec find s = if s >= n then false
            else if index.(s) = s_sub then Dbe.is_failed d s
            else find (s + 1)
          in
          find 0)
    with
    | Some q -> Some q
    | None -> None

type result = {
  unavailability : float;
  per_event : (int * float) list;
  n_cutsets : int;
  phase1 : Sdft_analysis.phase1;
}

let analyze ?(options = Sdft_analysis.default_options) ?obs sd =
  let tree = Sdft.tree sd in
  let nb = Fault_tree.n_basics tree in
  let rec per_event b acc =
    if b >= nb then Some (List.rev acc)
    else if Sdft.is_dynamic sd b then
      match event_unavailability (Sdft.dbe sd b) with
      | Some q -> per_event (b + 1) ((b, q) :: acc)
      | None -> None
    else per_event (b + 1) ((b, Fault_tree.prob tree b) :: acc)
  in
  match per_event 0 [] with
  | None -> None
  | Some per_event ->
    let q = Array.of_list (List.map snd per_event) in
    (* Generate cutsets on the translated tree (same cutsets as the SD
       model); quantify with steady-state unavailabilities. *)
    let phase1 = Sdft_analysis.phase1 ?obs options sd in
    let cutsets = phase1.Sdft_analysis.generation.Mocus.cutsets in
    let acc = Sdft_util.Kahan.create () in
    List.iter
      (fun c ->
        let p = Sdft_util.Int_set.fold (fun b m -> m *. q.(b)) c 1.0 in
        Sdft_util.Kahan.add acc p)
      cutsets;
    Some
      {
        unavailability = Sdft_util.Kahan.total acc;
        per_event =
          List.filter (fun (b, _) -> Sdft.is_dynamic sd b) per_event;
        n_cutsets = List.length cutsets;
        phase1;
      }
