(* The traced replay: [Sdft_analysis.analyze] re-run call by call through
   the library's public layers, each call wrapped in a bench-side span.
   It follows the path the workloads take (one domain, no deadline or
   memory limit, no fallbacks) and keeps the program's summation order, so
   its totals must equal the program's bit for bit; a replay that drifts
   from the program fails the correctness gate instead of misattributing
   time. *)

module Trace = Sdft_util.Trace

type t = {
  sink : Trace.t;
  table : (string, float) Hashtbl.t;
      (** stands in for the quantification cache: key -> probability
          before the static multiplier *)
  mutable cutsets : int;
  mutable ftc_builds : int;
  mutable lookups : int;
  mutable misses : int;
  mutable product_builds : int;
  mutable states : int;
  mutable transitions : int;
  mutable steps : int;
}

(* [warm] preloads the table, as a warm store preloads the cache. *)
let create ?(warm = []) () =
  let table = Hashtbl.create 4096 in
  List.iter (fun (k, e) -> Hashtbl.replace table k e.Quant_cache.e_prob) warm;
  {
    sink = Trace.create ();
    table;
    cutsets = 0;
    ftc_builds = 0;
    lookups = 0;
    misses = 0;
    product_builds = 0;
    states = 0;
    transitions = 0;
    steps = 0;
  }

let span t name f = Trace.with_span ~sink:t.sink name f

let analyze t (o : Sdft_analysis.options) sd =
  let epsilon = o.transient_epsilon and horizon = o.horizon in
  let max_states = o.max_product_states in
  span t "analyze" @@ fun () ->
  let translation =
    span t "translate" (fun () ->
        Sdft_translate.translate ~epsilon sd ~horizon)
  in
  let static_tree = translation.Sdft_translate.static_tree in
  let engine = Sdft_analysis.resolve_engine o.engine static_tree in
  let engine_tag = Sdft_analysis.engine_name engine in
  let generated =
    span t "generate" (fun () ->
        Sdft_analysis.generate_cutsets ~cutoff:o.cutoff
          ~max_order:o.max_cutset_order engine static_tree)
  in
  let context = Cutset_model.context sd in
  let workspace = Transient.workspace () in
  let probability cutset =
    let cm =
      span t "ftc.build" (fun () ->
          Cutset_model.build ~context ~rel_rule:o.rel_rule sd cutset)
    in
    t.ftc_builds <- t.ftc_builds + 1;
    match cm.Cutset_model.model with
    | None -> if cm.Cutset_model.impossible then 0.0 else cm.static_multiplier
    | Some sd_c ->
      let key, cached =
        span t "cache.key" (fun () ->
            let key =
              Option.get
                (Quant_cache.key_of ~engine_tag ~epsilon ~max_states ~horizon cm)
            in
            (key, Hashtbl.find_opt t.table key))
      in
      t.lookups <- t.lookups + 1;
      let p_dyn =
        match cached with
        | Some p -> p
        | None ->
          t.misses <- t.misses + 1;
          let built =
            span t "product.build" (fun () ->
                Sdft_product.build ~max_states sd_c)
          in
          let p =
            span t "transient.solve" (fun () ->
                Sdft_product.unreliability ~epsilon ~workspace built ~horizon)
          in
          t.product_builds <- t.product_builds + 1;
          t.states <- t.states + built.Sdft_product.n_states;
          t.transitions <-
            t.transitions + Ctmc.n_transitions built.Sdft_product.chain;
          t.steps <- t.steps + Transient.last_steps workspace;
          Hashtbl.add t.table key p;
          p
      in
      p_dyn *. cm.Cutset_model.static_multiplier
  in
  let cutsets = generated.Mocus.cutsets in
  t.cutsets <- t.cutsets + List.length cutsets;
  let probabilities = List.map probability cutsets in
  Sdft_util.Kahan.sum_list (List.filter (fun p -> p > o.cutoff) probabilities)

(* [seconds t] is a lookup of the seconds spent in spans of each name. *)
let seconds t =
  let totals = Trace.aggregate_in t.sink in
  fun name ->
    match List.assoc_opt name totals with Some (_, s) -> s | None -> 0.0

let write_chrome t path = Trace.write_file_in t.sink path
