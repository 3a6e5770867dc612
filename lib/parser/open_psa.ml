exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Intermediate formula representation, resolved after the whole document
   has been read (definitions may appear in any order). *)
type formula =
  | Ref_gate of string
  | Ref_basic of string
  | Ref_event of string (* gate or basic, disambiguated at resolution *)
  | F_and of formula list
  | F_or of formula list
  | F_atleast of int * formula list

let rec parse_formula el =
  match el.Xml.tag with
  | "gate" -> Ref_gate (Xml.attribute_exn el "name")
  | "basic-event" -> Ref_basic (Xml.attribute_exn el "name")
  | "event" | "house-event" -> Ref_event (Xml.attribute_exn el "name")
  | "and" -> F_and (List.map parse_formula (Xml.elements el))
  | "or" -> F_or (List.map parse_formula (Xml.elements el))
  | "atleast" | "vote" ->
    let min =
      match Xml.attribute el "min" with
      | Some v -> (
        match int_of_string_opt v with
        | Some k -> k
        | None -> error "bad atleast min %S" v)
      | None -> error "<%s> needs a min attribute" el.Xml.tag
    in
    F_atleast (min, List.map parse_formula (Xml.elements el))
  | other -> error "unsupported formula element <%s>" other

let parse_float_value el what =
  match Xml.find_opt el "float" with
  | Some f -> (
    match float_of_string_opt (Xml.attribute_exn f "value") with
    | Some v ->
      if (not (Float.is_finite v)) || v < 0.0 || v > 1.0 then
        error "basic event %S: probability %s is not in [0, 1]" what
          (string_of_float v);
      v
    | None -> error "bad float value in %s" what)
  | None -> 0.0

let of_xml root =
  if root.Xml.tag <> "opsa-mef" then
    error "expected <opsa-mef> as the root element, got <%s>" root.Xml.tag;
  let fault_tree =
    match Xml.find_opt root "define-fault-tree" with
    | Some ft -> ft
    | None -> error "no <define-fault-tree> in the document"
  in
  (* Collect definitions. *)
  let gate_defs : (string, formula) Hashtbl.t = Hashtbl.create 64 in
  let basic_defs : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let define_basic el =
    let name = Xml.attribute_exn el "name" in
    if Hashtbl.mem basic_defs name then
      error "duplicate definition of basic event %S" name;
    Hashtbl.replace basic_defs name (parse_float_value el name)
  in
  List.iter
    (fun el ->
      match el.Xml.tag with
      | "define-gate" ->
        let name = Xml.attribute_exn el "name" in
        if Hashtbl.mem gate_defs name then
          error "duplicate definition of gate %S" name;
        (match Xml.elements el with
        | [ body ] -> Hashtbl.replace gate_defs name (parse_formula body)
        | [] -> error "gate %S has no formula" name
        | _ -> error "gate %S has more than one formula" name)
      | "define-basic-event" -> define_basic el
      | "define-house-event" -> define_basic el
      | _ -> ())
    (Xml.elements fault_tree);
  (match Xml.find_opt root "model-data" with
  | Some md ->
    List.iter
      (fun el ->
        if el.Xml.tag = "define-basic-event" || el.Xml.tag = "define-house-event"
        then define_basic el)
      (Xml.elements md)
  | None -> ());
  (* Build the tree: basics first (referenced ones without definitions get
     probability 0), then gates by recursive resolution with a visiting set
     for cycle detection. *)
  let builder = Fault_tree.Builder.create () in
  let basic_nodes : (string, Fault_tree.node) Hashtbl.t = Hashtbl.create 64 in
  let basic_node name =
    match Hashtbl.find_opt basic_nodes name with
    | Some n -> n
    | None ->
      let prob = try Hashtbl.find basic_defs name with Not_found -> 0.0 in
      let n = Fault_tree.Builder.basic builder ~prob name in
      Hashtbl.replace basic_nodes name n;
      n
  in
  let gate_nodes : (string, Fault_tree.node) Hashtbl.t = Hashtbl.create 64 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let fresh = ref 0 in
  let rec gate_node name =
    match Hashtbl.find_opt gate_nodes name with
    | Some n -> n
    | None ->
      if Hashtbl.mem visiting name then error "cyclic gate definition %S" name;
      Hashtbl.add visiting name ();
      let formula =
        match Hashtbl.find_opt gate_defs name with
        | Some f -> f
        | None -> error "undefined gate %S" name
      in
      let n = build_named name formula in
      Hashtbl.remove visiting name;
      Hashtbl.replace gate_nodes name n;
      n
  and build_named name formula =
    match formula with
    | F_and fs -> Fault_tree.Builder.gate builder name Fault_tree.And (operands fs)
    | F_or fs -> Fault_tree.Builder.gate builder name Fault_tree.Or (operands fs)
    | F_atleast (k, fs) ->
      Fault_tree.Builder.gate builder name (Fault_tree.Atleast k) (operands fs)
    | Ref_gate _ | Ref_basic _ | Ref_event _ ->
      (* A gate defined as a plain reference: wrap in a single-input OR so
         that the name exists as a gate. *)
      Fault_tree.Builder.gate builder name Fault_tree.Or [ operand formula ]
  and operands fs = List.map operand fs
  and operand = function
    | Ref_gate g -> gate_node g
    | Ref_basic b -> basic_node b
    | Ref_event name ->
      if Hashtbl.mem gate_defs name then gate_node name else basic_node name
    | (F_and _ | F_or _ | F_atleast _) as nested ->
      incr fresh;
      build_named (Printf.sprintf "_anon%d" !fresh) nested
  in
  let gate_names = Hashtbl.fold (fun name _ acc -> name :: acc) gate_defs [] in
  if gate_names = [] then error "the fault tree defines no gates";
  List.iter (fun name -> ignore (gate_node name)) (List.sort compare gate_names);
  (* Determine the top gate. *)
  let top_name =
    match Xml.attribute fault_tree "top" with
    | Some name ->
      if Hashtbl.mem gate_defs name then name else error "unknown top gate %S" name
    | None ->
      let referenced = Hashtbl.create 16 in
      let rec refs = function
        | Ref_gate g -> Hashtbl.replace referenced g ()
        | Ref_event g when Hashtbl.mem gate_defs g -> Hashtbl.replace referenced g ()
        | Ref_basic _ | Ref_event _ -> ()
        | F_and fs | F_or fs | F_atleast (_, fs) -> List.iter refs fs
      in
      Hashtbl.iter (fun _ f -> refs f) gate_defs;
      let roots =
        List.filter (fun name -> not (Hashtbl.mem referenced name)) gate_names
      in
      (match roots with
      | [ one ] -> one
      | [] -> error "no root gate (all gates are referenced)"
      | several ->
        error "ambiguous top gate (%s); add a top= attribute"
          (String.concat ", " (List.sort compare several)))
  in
  Fault_tree.Builder.build builder ~top:(gate_node top_name)

(* The tree builder's own validation (duplicate names shared between gates
   and basics, duplicate gate inputs, bad thresholds) raises
   [Invalid_argument] with messages that already name the element; surface
   them as parser errors. *)
let of_xml_wrapped root =
  try of_xml root with Invalid_argument m -> error "%s" m

let of_string s =
  match Xml.parse_string s with
  | root -> of_xml_wrapped root
  | exception Xml.Parse_error { line; message } -> error "line %d: %s" line message

let of_file path =
  match Xml.parse_file path with
  | root -> of_xml_wrapped root
  | exception Xml.Parse_error { line; message } ->
    error "%s, line %d: %s" path line message

let to_xml ?(name = "fault-tree") tree =
  let gate g =
    let kind, extra_attrs =
      match Fault_tree.gate_kind tree g with
      | Fault_tree.And -> ("and", [])
      | Fault_tree.Or -> ("or", [])
      | Fault_tree.Atleast k -> ("atleast", [ ("min", string_of_int k) ])
    in
    let operands =
      Array.to_list
        (Array.map
           (function
             | Fault_tree.B b ->
               Xml.Element
                 {
                   Xml.tag = "basic-event";
                   attributes = [ ("name", Fault_tree.basic_name tree b) ];
                   children = [];
                 }
             | Fault_tree.G g' ->
               Xml.Element
                 {
                   Xml.tag = "gate";
                   attributes = [ ("name", Fault_tree.gate_name tree g') ];
                   children = [];
                 })
           (Fault_tree.gate_inputs tree g))
    in
    Xml.Element
      {
        Xml.tag = "define-gate";
        attributes = [ ("name", Fault_tree.gate_name tree g) ];
        children =
          [
            Xml.Element
              { Xml.tag = kind; attributes = extra_attrs; children = operands };
          ];
      }
  in
  let gates = List.init (Fault_tree.n_gates tree) gate in
  let basics =
    List.init (Fault_tree.n_basics tree) (fun b ->
        Xml.Element
          {
            Xml.tag = "define-basic-event";
            attributes = [ ("name", Fault_tree.basic_name tree b) ];
            children =
              [
                Xml.Element
                  {
                    Xml.tag = "float";
                    attributes =
                      [ ("value", Printf.sprintf "%.17g" (Fault_tree.prob tree b)) ];
                    children = [];
                  };
              ];
          })
  in
  {
    Xml.tag = "opsa-mef";
    attributes = [];
    children =
      [
        Xml.Element
          {
            Xml.tag = "define-fault-tree";
            attributes =
              [
                ("name", name);
                ("top", Fault_tree.gate_name tree (Fault_tree.top tree));
              ];
            children = gates;
          };
        Xml.Element
          { Xml.tag = "model-data"; attributes = []; children = basics };
      ];
  }

let to_string ?name tree =
  "<?xml version=\"1.0\"?>\n" ^ Xml.to_string (to_xml ?name tree)
