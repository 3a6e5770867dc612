type t = {
  tag : string;
  attributes : (string * string) list;
  children : node list;
}

and node =
  | Element of t
  | Text of string

exception Parse_error of { line : int; message : string }

let error line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

type lexer = {
  input : string;
  mutable pos : int;
  mutable line : int;
}

let peek lx = if lx.pos < String.length lx.input then Some lx.input.[lx.pos] else None

let peek2 lx =
  if lx.pos + 1 < String.length lx.input then Some lx.input.[lx.pos + 1] else None

let advance lx =
  (match peek lx with
  | Some '\n' -> lx.line <- lx.line + 1
  | Some _ | None -> ());
  lx.pos <- lx.pos + 1

let looking_at lx prefix =
  let n = String.length prefix in
  lx.pos + n <= String.length lx.input && String.sub lx.input lx.pos n = prefix

let skip_past lx terminator =
  let rec loop () =
    if looking_at lx terminator then
      for _ = 1 to String.length terminator do
        advance lx
      done
    else if peek lx = None then error lx.line "unterminated %s" terminator
    else begin
      advance lx;
      loop ()
    end
  in
  loop ()

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let rec skip_spaces lx =
  match peek lx with
  | Some c when is_space c ->
    advance lx;
    skip_spaces lx
  | Some _ | None -> ()

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | ':' | '.' -> true
  | _ -> false

let read_name lx =
  let start = lx.pos in
  while (match peek lx with Some c -> is_name_char c | None -> false) do
    advance lx
  done;
  if lx.pos = start then error lx.line "expected a name";
  String.sub lx.input start (lx.pos - start)

let unescape line s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      match String.index_from_opt s !i ';' with
      | None -> error line "unterminated entity"
      | Some j ->
        let entity = String.sub s (!i + 1) (j - !i - 1) in
        let c =
          match entity with
          | "lt" -> "<"
          | "gt" -> ">"
          | "amp" -> "&"
          | "quot" -> "\""
          | "apos" -> "'"
          | _ ->
            if String.length entity > 1 && entity.[0] = '#' then
              let code =
                if entity.[1] = 'x' then
                  int_of_string ("0x" ^ String.sub entity 2 (String.length entity - 2))
                else int_of_string (String.sub entity 1 (String.length entity - 1))
              in
              String.make 1 (Char.chr code)
            else error line "unknown entity &%s;" entity
        in
        Buffer.add_string buf c;
        i := j + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let read_attribute lx =
  let name = read_name lx in
  skip_spaces lx;
  (match peek lx with
  | Some '=' -> advance lx
  | _ -> error lx.line "expected '=' after attribute %s" name);
  skip_spaces lx;
  let quote =
    match peek lx with
    | Some (('"' | '\'') as q) ->
      advance lx;
      q
    | _ -> error lx.line "expected a quoted attribute value"
  in
  let start = lx.pos in
  while (match peek lx with Some c -> c <> quote | None -> false) do
    advance lx
  done;
  if peek lx = None then error lx.line "unterminated attribute value";
  let value = String.sub lx.input start (lx.pos - start) in
  advance lx;
  (name, unescape lx.line value)

(* Skip comments, processing instructions and the XML declaration. *)
let rec skip_misc lx =
  skip_spaces lx;
  if looking_at lx "<!--" then begin
    skip_past lx "-->";
    skip_misc lx
  end
  else if looking_at lx "<?" then begin
    skip_past lx "?>";
    skip_misc lx
  end
  else if looking_at lx "<!DOCTYPE" then begin
    skip_past lx ">";
    skip_misc lx
  end

let rec read_element lx =
  (match peek lx with
  | Some '<' -> advance lx
  | _ -> error lx.line "expected '<'");
  let tag = read_name lx in
  let attributes = ref [] in
  let rec read_attrs () =
    skip_spaces lx;
    match peek lx with
    | Some '>' ->
      advance lx;
      `Open
    | Some '/' when peek2 lx = Some '>' ->
      advance lx;
      advance lx;
      `SelfClosing
    | Some _ ->
      attributes := read_attribute lx :: !attributes;
      read_attrs ()
    | None -> error lx.line "unterminated tag <%s" tag
  in
  let kind = read_attrs () in
  let attributes = List.rev !attributes in
  match kind with
  | `SelfClosing -> { tag; attributes; children = [] }
  | `Open ->
    let children = ref [] in
    let rec read_children () =
      if looking_at lx "<!--" then begin
        skip_past lx "-->";
        read_children ()
      end
      else if looking_at lx "<![CDATA[" then begin
        let start = lx.pos + 9 in
        skip_past lx "]]>";
        let stop = lx.pos - 3 in
        children := Text (String.sub lx.input start (stop - start)) :: !children;
        read_children ()
      end
      else if looking_at lx "</" then begin
        advance lx;
        advance lx;
        let closing = read_name lx in
        if closing <> tag then
          error lx.line "mismatched closing tag </%s> for <%s>" closing tag;
        skip_spaces lx;
        match peek lx with
        | Some '>' -> advance lx
        | _ -> error lx.line "expected '>' in closing tag"
      end
      else if looking_at lx "<" then begin
        children := Element (read_element lx) :: !children;
        read_children ()
      end
      else begin
        let start = lx.pos in
        while (match peek lx with Some c -> c <> '<' | None -> false) do
          advance lx
        done;
        if peek lx = None then error lx.line "unterminated element <%s>" tag;
        let raw = String.sub lx.input start (lx.pos - start) in
        let trimmed = String.trim raw in
        if trimmed <> "" then children := Text (unescape lx.line trimmed) :: !children;
        read_children ()
      end
    in
    read_children ();
    { tag; attributes; children = List.rev !children }

let parse_string input =
  let lx = { input; pos = 0; line = 1 } in
  skip_misc lx;
  (match peek lx with
  | Some '<' -> ()
  | _ -> error lx.line "expected a root element");
  let root = read_element lx in
  skip_misc lx;
  (match peek lx with
  | None -> ()
  | Some _ -> error lx.line "trailing content after the root element");
  root

let parse_file path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string contents

let attribute t name = List.assoc_opt name t.attributes

let attribute_exn t name =
  match attribute t name with
  | Some v -> v
  | None -> error 0 "element <%s> is missing attribute %S" t.tag name

let elements t =
  List.filter_map (function Element e -> Some e | Text _ -> None) t.children

let find_opt t tag = List.find_opt (fun e -> e.tag = tag) (elements t)

let text t =
  String.concat ""
    (List.filter_map (function Text s -> Some s | Element _ -> None) t.children)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string root =
  let buf = Buffer.create 1024 in
  let rec emit indent t =
    Buffer.add_string buf indent;
    Buffer.add_char buf '<';
    Buffer.add_string buf t.tag;
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k (escape v)))
      t.attributes;
    match t.children with
    | [] -> Buffer.add_string buf "/>\n"
    | [ Text s ] ->
      Buffer.add_string buf (Printf.sprintf ">%s</%s>\n" (escape s) t.tag)
    | children ->
      Buffer.add_string buf ">\n";
      List.iter
        (function
          | Element e -> emit (indent ^ "  ") e
          | Text s ->
            Buffer.add_string buf (indent ^ "  ");
            Buffer.add_string buf (escape s);
            Buffer.add_char buf '\n')
        children;
      Buffer.add_string buf indent;
      Buffer.add_string buf (Printf.sprintf "</%s>\n" t.tag)
  in
  emit "" root;
  Buffer.contents buf
