let sample_categorical rng weights =
  let u = Sdft_util.Rng.float rng in
  let rec pick i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else pick (i + 1) acc
  in
  pick 0 0.0

let sample_initial sem rng =
  Array.map
    (fun (c : Sdft_product.component) ->
      c.init_states.(sample_categorical rng c.init_weights))
    (Sdft_product.sem_components sem)

let total_rate sem state =
  let total = ref 0.0 in
  Array.iteri
    (fun b (c : Sdft_product.component) ->
      let s = state.(b) in
      for k = c.row_ptr.(s) to c.row_ptr.(s + 1) - 1 do
        total := !total +. c.rates.(k)
      done)
    (Sdft_product.sem_components sem);
  !total

let apply_jump sem rng state ~total =
  (* Pick the jumping transition proportionally to its rate, apply it, then
     re-establish trigger consistency. *)
  let u = Sdft_util.Rng.float rng *. total in
  let acc = ref 0.0 in
  let done_ = ref false in
  Array.iteri
    (fun b (c : Sdft_product.component) ->
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
    (Sdft_product.sem_components sem);
  if !done_ then Sdft_product.sem_close sem state;
  !done_
