type entry = {
  event : int;
  low : float;
  high : float;
  swing : float;
}

type t = {
  point : float;
  entries : entry list;
}

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let tornado ?(factor = 10.0) tree cutsets =
  if factor <= 1.0 then invalid_arg "Sensitivity.tornado: factor must exceed 1";
  let involved =
    List.fold_left
      (fun acc c -> Sdft_util.Int_set.union acc c)
      Sdft_util.Int_set.empty cutsets
  in
  (* REA as a function of one overridden event. *)
  let rea override_event override_p =
    let acc = Sdft_util.Kahan.create () in
    List.iter
      (fun c ->
        let p =
          Sdft_util.Int_set.fold
            (fun b m ->
              m *. (if b = override_event then override_p else Fault_tree.prob tree b))
            c 1.0
        in
        Sdft_util.Kahan.add acc p)
      cutsets;
    Sdft_util.Kahan.total acc
  in
  let point = rea (-1) 0.0 in
  let entries =
    Sdft_util.Int_set.fold
      (fun event acc ->
        let p = Fault_tree.prob tree event in
        let low = rea event (clamp01 (p /. factor)) in
        let high = rea event (clamp01 (p *. factor)) in
        { event; low; high; swing = high -. low } :: acc)
      involved []
  in
  let entries =
    List.sort (fun a b -> compare b.swing a.swing) entries
  in
  { point; entries }

let print_ascii tree ?(top = 15) t =
  Printf.printf "point estimate: %.3e\n" t.point;
  let peak =
    List.fold_left (fun acc e -> Float.max acc e.swing) 1e-300 t.entries
  in
  List.iteri
    (fun i e ->
      if i < top then begin
        let width = int_of_float (50.0 *. e.swing /. peak) in
        Printf.printf "  %-30s %-50s [%.2e, %.2e]\n"
          (Fault_tree.basic_name tree e.event)
          (String.make (max width 1) '#')
          e.low e.high
      end)
    t.entries
