type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = Int64.of_int seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = s }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: count must be non-negative";
  (* Explicit loop so the derivation order (hence every stream) is fixed by
     the parent state alone, independent of evaluation-order details. *)
  let streams = Array.make n t in
  for i = 0 to n - 1 do
    streams.(i) <- split t
  done;
  streams

(* 53 high bits scaled into [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for n < 2^24. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod n

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = float t in
  -.log1p (-.u) /. rate

let truncated_exponential t rate ~bound =
  if rate <= 0.0 then
    invalid_arg "Rng.truncated_exponential: rate must be positive";
  if bound <= 0.0 then
    invalid_arg "Rng.truncated_exponential: bound must be positive";
  (* Inverse transform of F(x) = (1 - e^{-rate x}) / (1 - e^{-rate bound})
     on [0, bound); expm1/log1p keep it accurate when rate*bound is tiny. *)
  let c = -.expm1 (-.rate *. bound) in
  let u = float t in
  -.log1p (-.u *. c) /. rate

let normal t =
  (* Box-Muller; u must be positive for the log. *)
  let rec positive () =
    let u = float t in
    if u > 0.0 then u else positive ()
  in
  let u1 = positive () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~median ~error_factor =
  if median <= 0.0 then invalid_arg "Rng.lognormal: median must be positive";
  if error_factor < 1.0 then
    invalid_arg "Rng.lognormal: error factor must be at least 1";
  let sigma = log error_factor /. 1.645 in
  median *. exp (sigma *. normal t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
