(* Completed-sweep-point records. A resumable sweep appends one per
   finished point to its quantification cache's store (Quant_cache tags
   them "p|"), so a resumed sweep can skip the point outright and reprint
   the stored result bit-identically. *)

type point = {
  pt_key : string;
  pt_horizon : float;
  pt_total : float;
  pt_lower : float;
  pt_upper : float;
  pt_vacuous : bool;
  pt_n_cutsets : int;
  pt_n_dynamic : int;
  pt_degraded : string option;
}

(* Point codec: '|'-separated, floats as hex literals (bit-exact
   round-trip), the free-text degradation description last so any '|' it
   contains survives via rejoin. The key is an MD5 hex digest and never
   contains '|'. *)
let encode_point p =
  Printf.sprintf "%s|%h|%h|%h|%h|%d|%d|%d|%s" p.pt_key p.pt_horizon
    p.pt_total p.pt_lower p.pt_upper
    (if p.pt_vacuous then 1 else 0)
    p.pt_n_cutsets p.pt_n_dynamic
    (match p.pt_degraded with None -> "" | Some d -> d)

let decode_point s =
  match String.split_on_char '|' s with
  | key :: horizon :: total :: lower :: upper :: vac :: ncs :: ndyn :: rest
    -> (
    match
      ( float_of_string_opt horizon,
        float_of_string_opt total,
        float_of_string_opt lower,
        float_of_string_opt upper,
        int_of_string_opt vac,
        int_of_string_opt ncs,
        int_of_string_opt ndyn )
    with
    | Some h, Some t, Some l, Some u, Some v, Some n, Some nd ->
      let desc = String.concat "|" rest in
      Some
        {
          pt_key = key;
          pt_horizon = h;
          pt_total = t;
          pt_lower = l;
          pt_upper = u;
          pt_vacuous = v <> 0;
          pt_n_cutsets = n;
          pt_n_dynamic = nd;
          pt_degraded = (if desc = "" then None else Some desc);
        }
    | _ -> None)
  | _ -> None
