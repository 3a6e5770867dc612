type stats = {
  trials : int;
  failures : int;
  estimate : float;
  std_error : float;
}

(* One trial: does the top gate fail within the horizon? *)
let run_trial sem rng ~horizon =
  let state = Sim_world.sample_initial sem rng in
  Sdft_product.sem_close sem state;
  let rec step now =
    if Sdft_product.sem_fails_top sem state then true
    else begin
      let total = Sim_world.total_rate sem state in
      if total <= 0.0 then false (* no dynamics left: state is final *)
      else begin
        let now = now +. Sdft_util.Rng.exponential rng total in
        (* A jump that applies nothing is a numerical corner: no failure. *)
        now <= horizon && Sim_world.apply_jump sem rng state ~total && step now
      end
    end
  in
  step 0.0

let unreliability ?(seed = 42) sd ~horizon ~trials =
  if trials <= 0 then invalid_arg "Simulator: need at least one trial";
  let sem = Sdft_product.semantics sd in
  let rng = Sdft_util.Rng.create seed in
  let failures = ref 0 in
  for _ = 1 to trials do
    if run_trial sem rng ~horizon then incr failures
  done;
  let failures = !failures in
  let p = float_of_int failures /. float_of_int trials in
  {
    trials;
    failures;
    estimate = p;
    std_error = sqrt (p *. (1.0 -. p) /. float_of_int trials);
  }

let wilson_interval ?(z = 1.959963984540054) s =
  (* Wilson score bounds: unlike the Wald interval, these stay informative
     when 0 or all trials failed (the binomial standard error is then 0 and
     a +-z*se interval would collapse to a point). *)
  let n = float_of_int s.trials in
  let p = s.estimate in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (* At 0 (resp. all) failures the exact lower (upper) endpoint is 0
     (1); pin it rather than leaving the cancellation's rounding residue. *)
  let lo = if p <= 0.0 then 0.0 else Float.max 0.0 (center -. half) in
  let hi = if p >= 1.0 then 1.0 else Float.min 1.0 (center +. half) in
  (lo, hi)

let confidence_95 s = wilson_interval s
