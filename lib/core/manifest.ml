module Json = Sdft_util.Json

type cutset_record = {
  events : string list;
  q : Cutset_model.quantification;
}

type t = {
  stamp : string;
  engine : string;
  horizon : float;
  cutoff : float;
  epsilon : float;
  max_states : int;
  total : float;
  lower : float;
  upper : float;
  cutsets : cutset_record list;
  cache_entries : (string * Quant_cache.entry) list;
}

let stamp_matches m = m.stamp = Quant_cache.version_stamp

let events_of_cutset sd cutset =
  let tree = Sdft.tree sd in
  List.sort String.compare
    (List.map (Fault_tree.basic_name tree)
       (Sdft_util.Int_set.to_list cutset))

let of_result ?cache sd (options : Sdft_analysis.options)
    (r : Sdft_analysis.result) =
  {
    stamp = Quant_cache.version_stamp;
    engine = Sdft_analysis.engine_name r.Sdft_analysis.engine_used;
    horizon = options.Sdft_analysis.horizon;
    cutoff = options.Sdft_analysis.cutoff;
    epsilon = options.Sdft_analysis.transient_epsilon;
    max_states = options.Sdft_analysis.max_product_states;
    total = r.Sdft_analysis.total;
    lower = r.Sdft_analysis.budget.Sdft_analysis.lower;
    upper = r.Sdft_analysis.budget.Sdft_analysis.upper;
    cutsets =
      List.map
        (fun (info : Sdft_analysis.cutset_info) ->
          {
            events = events_of_cutset sd info.Sdft_analysis.cutset;
            q =
              {
                Cutset_model.probability = info.Sdft_analysis.probability;
                product_states = info.Sdft_analysis.product_states;
                product_transitions = info.Sdft_analysis.product_transitions;
                solver_steps = info.Sdft_analysis.solver_steps;
                solver_error = info.Sdft_analysis.solver_error;
                from_cache = info.Sdft_analysis.from_cache;
                seconds = info.Sdft_analysis.solve_seconds;
              };
          })
        r.Sdft_analysis.cutsets;
    cache_entries =
      (match cache with
      | None -> []
      | Some c ->
        (* Only this run's entries: a shared disk store holds every other
           model's too. *)
        let keys = Hashtbl.create 64 in
        List.iter
          (fun k -> Hashtbl.replace keys k ())
          (Sdft_analysis.cache_keys options sd r);
        List.sort compare
          (List.filter
             (fun (k, _) -> Hashtbl.mem keys k)
             (Quant_cache.export c)));
  }

(* ------------------------------------------------------------------ *)
(* Serialization. Floats go through Json.add_float (17 significant
   digits), so a manifest round-trips every probability and bound
   bit-exactly — the diff below compares floats with [<>]. *)

let to_json m =
  let buf = Buffer.create 4096 in
  let field name =
    Buffer.add_string buf ", ";
    Json.add_string buf name;
    Buffer.add_string buf ": "
  in
  Buffer.add_string buf "{\"format\": 2";
  field "stamp";
  Json.add_string buf m.stamp;
  field "engine";
  Json.add_string buf m.engine;
  field "horizon";
  Json.add_float buf m.horizon;
  field "cutoff";
  Json.add_float buf m.cutoff;
  field "epsilon";
  Json.add_float buf m.epsilon;
  field "max_states";
  Buffer.add_string buf (string_of_int m.max_states);
  field "total";
  Json.add_float buf m.total;
  field "lower";
  Json.add_float buf m.lower;
  field "upper";
  Json.add_float buf m.upper;
  field "cutsets";
  Buffer.add_string buf "[";
  List.iteri
    (fun i cr ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf "\n  {\"events\": [";
      List.iteri
        (fun j e ->
          if j > 0 then Buffer.add_string buf ", ";
          Json.add_string buf e)
        cr.events;
      Buffer.add_string buf "], \"quantification\": ";
      Buffer.add_string buf (Cutset_model.quantification_to_json cr.q);
      Buffer.add_char buf '}')
    m.cutsets;
  Buffer.add_string buf "]";
  field "cache";
  Buffer.add_string buf "[";
  List.iteri
    (fun i (key, e) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  ";
      Json.add_string buf (Quant_cache.encode_record key e))
    m.cache_entries;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* Atomic write: a crash mid-save must never leave a torn manifest where a
   good one stood — --diff trusts this file. *)
let save path m = Sdft_util.Atomic_io.write_file path (to_json m)

let of_json v =
  let ( let* ) r f = Result.bind r f in
  let str name =
    match Option.bind (Json.member name v) Json.to_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "manifest: missing string field %S" name)
  in
  let num name =
    match Option.bind (Json.member name v) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "manifest: missing number field %S" name)
  in
  let int name =
    match Option.bind (Json.member name v) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "manifest: missing integer field %S" name)
  in
  let* format = int "format" in
  if format <> 1 && format <> 2 then
    Error (Printf.sprintf "manifest: unsupported format %d" format)
  else
    let* stamp = str "stamp" in
    let* engine = str "engine" in
    let* horizon = num "horizon" in
    let* cutoff = num "cutoff" in
    let* epsilon = num "epsilon" in
    let* max_states = int "max_states" in
    let* total = num "total" in
    let* lower = num "lower" in
    let* upper = num "upper" in
    let* cutset_items =
      match Option.bind (Json.member "cutsets" v) Json.to_list with
      | Some l -> Ok l
      | None -> Error "manifest: missing array field \"cutsets\""
    in
    let* cutsets =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* events =
            match Option.bind (Json.member "events" item) Json.to_list with
            | Some l -> (
              let names = List.map Json.to_string l in
              if List.for_all Option.is_some names then
                Ok (List.map Option.get names)
              else Error "manifest: non-string cutset event")
            | None -> Error "manifest: cutset record without events"
          in
          let* q =
            match Json.member "quantification" item with
            | Some qv -> Cutset_model.quantification_of_json qv
            | None -> Error "manifest: cutset record without quantification"
          in
          Ok ({ events; q } :: acc))
        (Ok []) cutset_items
    in
    (* Format 1 spelled its cache entries as JSON objects; they predate
       the current solver stamp and could never seed, so they are
       skipped. *)
    let* cache_entries =
      if format = 1 then Ok []
      else
        match Option.bind (Json.member "cache" v) Json.to_list with
        | None -> Error "manifest: missing array field \"cache\""
        | Some items ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match
                Option.bind (Json.to_string item) Quant_cache.decode_record
              with
              | Some kv -> Ok (kv :: acc)
              | None -> Error "manifest: malformed cache entry")
            (Ok []) items
    in
    Ok
      {
        stamp;
        engine;
        horizon;
        cutoff;
        epsilon;
        max_states;
        total;
        lower;
        upper;
        cutsets = List.rev cutsets;
        cache_entries = List.rev cache_entries;
      }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
    match Json.parse text with
    | Error e -> Error ("manifest: " ^ e)
    | Ok v -> of_json v)

(* ------------------------------------------------------------------ *)
(* Differential comparison: match cutsets of a fresh result against a
   saved manifest by their sorted basic-event-name sets and report which
   ones moved the certified interval. *)

type change =
  | Moved of float * float  (** old and new [p~(C)]; bitwise different *)
  | Appeared of float
  | Disappeared of float

type diff_entry = {
  d_events : string list;
  d_change : change;
  d_requantified : bool;
      (** the new run re-solved this cutset's product chain (a dynamic
          cutset missing the warm cache) — [false] for cutsets that only
          exist on the old side *)
}

type diff = {
  entries : diff_entry list;
  n_unchanged : int;
  n_requantified : int;
  old_total : float;
  new_total : float;
  old_interval : float * float;
  new_interval : float * float;
}

let delta_of = function
  | Moved (o, n) -> Float.abs (n -. o)
  | Appeared p | Disappeared p -> Float.abs p

let diff old_m sd (r : Sdft_analysis.result) =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun cr -> Hashtbl.replace tbl cr.events cr.q.Cutset_model.probability)
    old_m.cutsets;
  let entries = ref [] in
  let n_unchanged = ref 0 in
  let n_requantified = ref 0 in
  List.iter
    (fun (info : Sdft_analysis.cutset_info) ->
      let events = events_of_cutset sd info.Sdft_analysis.cutset in
      let requantified =
        info.Sdft_analysis.n_dynamic > 0
        && not info.Sdft_analysis.from_cache
      in
      if requantified then incr n_requantified;
      (match Hashtbl.find_opt tbl events with
      | Some old_p ->
        Hashtbl.remove tbl events;
        if old_p <> info.Sdft_analysis.probability then
          entries :=
            {
              d_events = events;
              d_change = Moved (old_p, info.Sdft_analysis.probability);
              d_requantified = requantified;
            }
            :: !entries
        else incr n_unchanged
      | None ->
        entries :=
          {
            d_events = events;
            d_change = Appeared info.Sdft_analysis.probability;
            d_requantified = requantified;
          }
          :: !entries))
    r.Sdft_analysis.cutsets;
  Hashtbl.iter
    (fun events old_p ->
      entries :=
        {
          d_events = events;
          d_change = Disappeared old_p;
          d_requantified = false;
        }
        :: !entries)
    tbl;
  let entries =
    List.sort
      (fun a b ->
        let c = compare (delta_of b.d_change) (delta_of a.d_change) in
        if c <> 0 then c else compare a.d_events b.d_events)
      !entries
  in
  {
    entries;
    n_unchanged = !n_unchanged;
    n_requantified = !n_requantified;
    old_total = old_m.total;
    new_total = r.Sdft_analysis.total;
    old_interval = (old_m.lower, old_m.upper);
    new_interval =
      ( r.Sdft_analysis.budget.Sdft_analysis.lower,
        r.Sdft_analysis.budget.Sdft_analysis.upper );
  }

let pp_events ppf events =
  Format.fprintf ppf "{%s}" (String.concat ", " events)

let pp_diff ppf d =
  let ol, ou = d.old_interval and nl, nu = d.new_interval in
  Format.fprintf ppf
    "@[<v>differential re-analysis:@,\
     \  old total %.6e, certified [%.3e, %.3e]@,\
     \  new total %.6e, certified [%.3e, %.3e]@,\
     \  %d cutset%s unchanged, %d requantified, %d moved the interval@]"
    d.old_total ol ou d.new_total nl nu d.n_unchanged
    (if d.n_unchanged = 1 then "" else "s")
    d.n_requantified
    (List.length d.entries);
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  ";
      (match e.d_change with
      | Moved (o, n) ->
        Format.fprintf ppf "%a: %.6e -> %.6e (delta %+.3e)" pp_events
          e.d_events o n (n -. o)
      | Appeared p ->
        Format.fprintf ppf "%a: appeared at %.6e" pp_events e.d_events p
      | Disappeared p ->
        Format.fprintf ppf "%a: disappeared (was %.6e)" pp_events e.d_events p);
      if e.d_requantified then Format.fprintf ppf "  [re-solved]")
    d.entries
