type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

(* Storage cannot be allocated without an element to fill it with; the first
   [push] allocates. *)
let create () = { data = [||]; len = 0 }

let length v = v.len

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_array v = Array.sub v.data 0 v.len

let to_list v = Array.to_list (to_array v)
