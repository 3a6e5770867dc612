(* Minimal hand-rolled JSON emission and parsing, shared by the
   observability sinks (Metrics, Trace) and the result-manifest /
   disk-cache plumbing. Emission side: escaped strings and floats that
   degrade to null instead of producing invalid JSON. Parsing side: a
   small recursive-descent parser over the JSON our own writers emit
   (objects, arrays, strings, numbers, booleans, null) — enough to load a
   manifest back without a library dependency. *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf v =
  if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.17g" v)
  else Buffer.add_string buf "null"

(* ------------------------------------------------------------------ *)
(* Parsing. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit v =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if st.pos + 4 > String.length st.src then
            error st "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          st.pos <- st.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> error st "bad \\u escape"
          in
          (* Our own writer only emits \u00xx for control characters;
             encode the general case as UTF-8 so round-trips stay exact. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> error st (Printf.sprintf "bad escape '\\%c'" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some v -> v
  | None -> error st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Object []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> error st "expected ',' or '}'"
      in
      Object (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Array []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error st "expected ',' or ']'"
      in
      Array (elements [])
    end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number st)
  | Some c -> error st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error m -> Error m

(* Emission of parsed values, used to echo client-supplied fragments
   (e.g. request ids) back verbatim. Together with [add_float]'s
   17-significant-digit rendering, [parse] ∘ [value_to_string] is the
   identity on everything our own writers emit. *)

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number v -> add_float buf v
  | String s -> add_string buf s
  | Array vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_value buf v)
      vs;
    Buffer.add_char buf ']'
  | Object fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add_value buf v)
      fields;
    Buffer.add_char buf '}'

let value_to_string v =
  let buf = Buffer.create 64 in
  add_value buf v;
  Buffer.contents buf

(* Accessors: total, returning [None] on a shape mismatch, so manifest
   loaders can produce one diagnostic instead of raising mid-walk. *)

let member name = function
  | Object fields -> List.assoc_opt name fields
  | _ -> None

let to_string = function String s -> Some s | _ -> None

let to_float = function Number v -> Some v | _ -> None

let to_int = function
  | Number v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Array l -> Some l | _ -> None
