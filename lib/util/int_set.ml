type t = int array

let empty = [||]

let of_array a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    (* Deduplicate in place. *)
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let of_list l = of_array (Array.of_list l)

let to_list = Array.to_list

let singleton x = [| x |]

let cardinal = Array.length

let mem x a =
  let rec loop lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then loop (mid + 1) hi
      else loop lo mid
  in
  loop 0 (Array.length a)

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!k) <- x; incr i end
      else if y < x then begin out.(!k) <- y; incr j end
      else begin out.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

let add x a = if mem x a then a else union (singleton x) a

let remove x a =
  if not (mem x a) then a
  else begin
    let n = Array.length a in
    let out = Array.make (n - 1) 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) <> x then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    out
  end

let subset a b =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else begin
    let i = ref 0 and j = ref 0 in
    while !i < na && !j < nb do
      if a.(!i) = b.(!j) then begin incr i; incr j end
      else if a.(!i) > b.(!j) then incr j
      else j := nb (* a.(i) missing from b: fail *)
    done;
    !i = na
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    if a.(!i) = b.(!j) then begin
      out.(!k) <- a.(!i);
      incr i; incr j; incr k
    end
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  Array.sub out 0 !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na do
    if !j >= nb || a.(!i) < b.(!j) then begin
      out.(!k) <- a.(!i);
      incr i; incr k
    end
    else if a.(!i) = b.(!j) then begin incr i; incr j end
    else incr j
  done;
  Array.sub out 0 !k

let equal a b = a = b

let compare a b =
  let c = Stdlib.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else Stdlib.compare a b

let iter = Array.iter

let fold f a acc = Array.fold_left (fun acc x -> f x acc) acc a

let exists = Array.exists

let for_all = Array.for_all

let pp ppf a =
  Format.fprintf ppf "{";
  Array.iteri
    (fun i x -> if i = 0 then Format.fprintf ppf "%d" x else Format.fprintf ppf ", %d" x)
    a;
  Format.fprintf ppf "}"
