(* BENCHMARK.json: the declared workloads and metrics, with the bound by
   which each end-to-end metric may worsen. *)

module Json = Sdft_util.Json

type t = {
  workloads : string list;
  end_to_end : (string * string * float) list;  (** name, unit, bound *)
  per_layer : (string * string) list;  (** name, unit *)
}

let load path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let* doc = Json.parse text in
  let field name v =
    Option.to_result ~none:(Printf.sprintf "%s: missing or mistyped %S" path name)
      v
  in
  let list name = field name (Option.bind (Json.member name doc) Json.to_list) in
  let str name v = field name (Option.bind (Json.member name v) Json.to_string) in
  let all f items =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* x = f item in
        Ok (x :: acc))
      items (Ok [])
  in
  let* workloads = list "workloads" in
  let* workloads = all (str "name") workloads in
  let* e2e = list "end_to_end" in
  let* end_to_end =
    all
      (fun m ->
        let* name = str "name" m in
        let* unit = str "unit" m in
        let* bound = field "bound" (Option.bind (Json.member "bound" m) Json.to_float) in
        Ok (name, unit, bound))
      e2e
  in
  let* layers = list "per_layer" in
  let* per_layer =
    all
      (fun m ->
        let* name = str "name" m in
        let* unit = str "unit" m in
        Ok (name, unit))
      layers
  in
  Ok { workloads; end_to_end; per_layer }

let bounds spec = List.map (fun (n, _, b) -> (n, b)) spec.end_to_end

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && String.for_all ok_char s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)

(* Every name the harness emits must be declared with the same unit, every
   declared name must be emitted, and all must be well formed. *)
let check spec ~workloads =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let compare_lists what ~emitted ~declared =
    List.iter
      (fun (n, u) ->
        if not (valid_name n) then problem "%s name %S is malformed" what n;
        match List.assoc_opt n declared with
        | None -> problem "%s %S is emitted but not declared" what n
        | Some u' when u' <> u ->
          problem "%s %S has unit %S, declared %S" what n u u'
        | Some _ -> ())
      emitted;
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n emitted) then
          problem "%s %S is declared but never emitted" what n)
      declared
  in
  let no_unit l = List.map (fun n -> (n, "")) l in
  compare_lists "workload" ~emitted:(no_unit workloads)
    ~declared:(no_unit spec.workloads);
  compare_lists "end_to_end metric" ~emitted:Report.end_to_end
    ~declared:(List.map (fun (n, u, _) -> (n, u)) spec.end_to_end);
  compare_lists "per_layer metric" ~emitted:Report.per_layer
    ~declared:spec.per_layer;
  List.rev !problems
