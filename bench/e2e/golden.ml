(* Sweep totals, as the harness printed them when the benchmark was
   defined. The seed only renames events, so they hold at every seed. A run
   fails when a golden total leaves its certified interval or moves by more
   than [tolerance] relative to it; the tolerance lets a later change
   tighten the interval without editing the benchmark. *)

let tolerance = 1e-9

(* model, horizon, total *)
let totals =
  [
    ("model-1", 12.0, 0x1.b428b76750b4cp-36);
    ("model-1", 24.0, 0x1.043846507d58fp-24);
    ("bwr", 12.0, 0x1.475fa8edb3e8bp-25);
    ("bwr", 24.0, 0x1.30d6c60266148p-24);
    ("bwr", 48.0, 0x1.2f33361d27f7cp-23);
    ("bwr", 72.0, 0x1.c90f35ad3b0dep-23);
  ]

let check ~model points =
  List.filter_map
    (fun (m, h, golden) ->
      if m <> model then None
      else
        match List.assoc_opt h points with
        | None -> Some (Printf.sprintf "%s: no point at golden horizon %g" model h)
        | Some (total, lower, upper) ->
          if golden < lower || golden > upper then
            Some
              (Printf.sprintf "%s h=%g: golden total %h outside [%h, %h]" model
                 h golden lower upper)
          else if Float.abs (total -. golden) > tolerance *. Float.abs golden
          then
            Some
              (Printf.sprintf "%s h=%g: total %h moved from golden %h" model h
                 total golden)
          else None)
    totals
