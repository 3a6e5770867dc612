let solve ?(max_iter = 100_000) ?(tolerance = 1e-12) chain =
  let n = Ctmc.n_states chain in
  (* Incoming-transition view (CSC: counting pass + fill) for the
     Gauss-Seidel update pi(j) = (sum_{i<>j} pi(i) R(i,j)) / E(j). *)
  let in_ptr = Array.make (n + 1) 0 in
  Ctmc.iter_transitions chain (fun _ dst _ ->
      in_ptr.(dst + 1) <- in_ptr.(dst + 1) + 1);
  for j = 0 to n - 1 do
    in_ptr.(j + 1) <- in_ptr.(j + 1) + in_ptr.(j)
  done;
  let in_src = Array.make in_ptr.(n) 0 in
  let in_rate = Array.make in_ptr.(n) 0.0 in
  let fill = Array.sub in_ptr 0 n in
  Ctmc.iter_transitions chain (fun src dst rate ->
      let k = fill.(dst) in
      in_src.(k) <- src;
      in_rate.(k) <- rate;
      fill.(dst) <- k + 1);
  let pi = Array.make n (1.0 /. float_of_int n) in
  let exit = Ctmc.exit_rates chain in
  let normalize () =
    let total = Sdft_util.Kahan.sum pi in
    if total > 0.0 then
      for i = 0 to n - 1 do
        pi.(i) <- pi.(i) /. total
      done
  in
  let rec iterate round =
    if round > max_iter then None
    else begin
      let delta = ref 0.0 in
      for j = 0 to n - 1 do
        if exit.(j) > 0.0 then begin
          (* The historical list view accumulated most-recent-first; walk
             the segment backwards to keep the same summation order. *)
          let inflow = ref 0.0 in
          for k = in_ptr.(j + 1) - 1 downto in_ptr.(j) do
            inflow := !inflow +. (pi.(in_src.(k)) *. in_rate.(k))
          done;
          let v = !inflow /. exit.(j) in
          let d = Float.abs (v -. pi.(j)) in
          if d > !delta then delta := d;
          pi.(j) <- v
        end
      done;
      normalize ();
      if !delta < tolerance then Some ()
      else iterate (round + 1)
    end
  in
  match iterate 0 with
  | None -> None
  | Some () -> Some (Array.copy pi)

let unavailability ?max_iter ?tolerance chain ~failed =
  match solve ?max_iter ?tolerance chain with
  | None -> None
  | Some pi ->
    let acc = Sdft_util.Kahan.create () in
    Array.iteri (fun s m -> if failed s then Sdft_util.Kahan.add acc m) pi;
    Some (Sdft_util.Kahan.total acc)
