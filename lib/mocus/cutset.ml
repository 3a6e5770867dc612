module Int_set = Sdft_util.Int_set

type t = Int_set.t

let probability tree c =
  Int_set.fold (fun b acc -> acc *. Fault_tree.prob tree b) c 1.0

let is_cutset tree c = Fault_tree.fails_top tree ~failed:(fun b -> Int_set.mem b c)

let is_minimal_cutset tree c =
  is_cutset tree c
  && Int_set.for_all
       (fun b ->
         let without = Int_set.diff c (Int_set.singleton b) in
         not (is_cutset tree without))
       c

let minimize sets =
  match List.sort_uniq Int_set.compare sets with
  | [] -> []
  | first :: _ when Int_set.cardinal first = 0 ->
    (* Subsumes everything, and has no event to be listed under. *)
    [ Int_set.empty ]
  | sets ->
    (* Scan in increasing cardinality; a set is kept unless some already
       kept (hence no larger) set is a subset. Each kept set is listed under
       its rarest event over the input, which a superset also contains, so a
       candidate only tests the lists of its own events. *)
    let max_elt = List.fold_left (fun m s -> Int_set.fold max s m) 0 sets in
    let frequency = Array.make (max_elt + 1) 0 in
    List.iter (Int_set.iter (fun b -> frequency.(b) <- frequency.(b) + 1)) sets;
    let index = Array.make (max_elt + 1) [] in
    let rarest s =
      Int_set.fold
        (fun b r -> if frequency.(b) < frequency.(r) then b else r)
        s (s :> int array).(0)
    in
    List.filter
      (fun s ->
        let subsumes k = Int_set.subset k s in
        let kept =
          not (Int_set.exists (fun b -> List.exists subsumes index.(b)) s)
        in
        (if kept then
           let r = rarest s in
           index.(r) <- s :: index.(r));
        kept)
      sets

let rare_event_approximation tree sets =
  Sdft_util.Kahan.sum_list (List.map (probability tree) sets)

let sort_by_probability tree sets =
  let keyed = List.map (fun c -> (probability tree c, c)) sets in
  let sorted =
    List.sort
      (fun (p1, c1) (p2, c2) ->
        let cmp = compare p2 p1 in
        if cmp <> 0 then cmp else Int_set.compare c1 c2)
      keyed
  in
  List.map snd sorted

let pp tree ppf c =
  Format.fprintf ppf "{";
  let first = ref true in
  Int_set.iter
    (fun b ->
      if !first then first := false else Format.fprintf ppf ", ";
      Format.pp_print_string ppf (Fault_tree.basic_name tree b))
    c;
  Format.fprintf ppf "}"
