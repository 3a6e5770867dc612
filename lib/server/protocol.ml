(* Newline-delimited JSON codec for the analysis server. Parsing is
   deliberately total — this is the daemon's network-facing front door, so
   garbage of any shape must come back as a structured error, never an
   exception. Response rendering keeps a fixed field order and uses
   [Json.add_float] (17 significant digits) so equal requests yield
   bit-identical response lines. *)

module Json = Sdft_util.Json

type error_code =
  | Bad_request
  | Saturated
  | Quota_exceeded
  | Crash
  | Shutting_down
  | Worker_lost

let error_code_name = function
  | Bad_request -> "bad_request"
  | Saturated -> "saturated"
  | Quota_exceeded -> "quota_exceeded"
  | Crash -> "crash"
  | Shutting_down -> "shutting_down"
  | Worker_lost -> "worker_lost"

type error = {
  code : error_code;
  message : string;
  retry_after : float option;
}

type analyze_params = {
  model_text : string;
  horizon : float;
  cutoff : float;
  engine : Sdft_analysis.engine;
  domains : int;
  deadline : float option;
  mem_limit_mb : int option;
  max_order : int option;
  verbose : bool;
}

type op =
  | Analyze of analyze_params
  | Ping
  | Metrics
  | Stats
  | Health
  | Shutdown

type request = {
  id : Json.value;
  client : string option;
  failpoints : string option;
  idem : string option;
  op : op;
}

(* ------------------------------------------------------------------ *)
(* Parsing. *)

exception Reject of string
(* Internal to [parse_request]; converted to a [Bad_request] error. *)

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* Field extractors over an already-parsed object: absent fields take the
   default, present fields of the wrong type or out of range reject. *)

let opt_string obj name =
  match Json.member name obj with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_string v with
    | Some s -> Some s
    | None -> reject "field %S must be a string" name)

let opt_float obj name ~check =
  match Json.member name obj with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_float v with
    | Some f when check f -> Some f
    | Some _ -> reject "field %S is out of range" name
    | None -> reject "field %S must be a number" name)

let opt_int obj name ~check =
  match Json.member name obj with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_int v with
    | Some i when check i -> Some i
    | Some _ -> reject "field %S is out of range" name
    | None -> reject "field %S must be an integer" name)

let opt_bool obj name =
  match Json.member name obj with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Some b
    | None -> reject "field %S must be a boolean" name)

let pos_finite f = Float.is_finite f && f > 0.
let nonneg_finite f = Float.is_finite f && f >= 0.

let parse_analyze obj =
  let model_text =
    match opt_string obj "model" with
    | Some s -> s
    | None -> reject "analyze request needs a \"model\" field"
  in
  let params =
    match Json.member "params" obj with
    | None | Some Json.Null -> Json.Object []
    | Some (Json.Object _ as o) -> o
    | Some _ -> reject "field \"params\" must be an object"
  in
  let engine =
    match opt_string params "engine" with
    | None -> Sdft_analysis.default_options.Sdft_analysis.engine
    | Some s -> (
      match List.assoc_opt s Sdft_analysis.engines with
      | Some e -> e
      | None ->
        reject "unknown engine %S (expected one of %s)" s
          (String.concat ", " (List.map fst Sdft_analysis.engines)))
  in
  let dflt = Sdft_analysis.default_options in
  {
    model_text;
    horizon =
      Option.value
        (opt_float params "horizon" ~check:pos_finite)
        ~default:dflt.Sdft_analysis.horizon;
    cutoff =
      Option.value
        (opt_float params "cutoff" ~check:nonneg_finite)
        ~default:dflt.Sdft_analysis.cutoff;
    engine;
    domains =
      Option.value
        (opt_int params "domains" ~check:(fun i -> i >= 1 && i <= 1024))
        ~default:1;
    deadline = opt_float params "deadline" ~check:pos_finite;
    mem_limit_mb = opt_int params "mem_limit_mb" ~check:(fun i -> i >= 1);
    max_order = opt_int params "max_order" ~check:(fun i -> i >= 1);
    verbose = Option.value (opt_bool obj "verbose") ~default:false;
  }

let parse_request ~max_bytes line =
  let fail id message =
    Error (id, { code = Bad_request; message; retry_after = None })
  in
  if String.length line > max_bytes then
    fail Json.Null
      (Printf.sprintf "request frame exceeds %d bytes" max_bytes)
  else
    match Json.parse line with
    | Error m -> fail Json.Null ("invalid JSON: " ^ m)
    | Ok (Json.Object _ as obj) -> (
      let id = Option.value (Json.member "id" obj) ~default:Json.Null in
      try
        let client = opt_string obj "client" in
        let failpoints = opt_string obj "failpoints" in
        let idem = opt_string obj "idem" in
        let op =
          match opt_string obj "op" with
          | None -> reject "request needs an \"op\" field"
          | Some "analyze" -> Analyze (parse_analyze obj)
          | Some "ping" -> Ping
          | Some "metrics" -> Metrics
          | Some "stats" -> Stats
          | Some "health" -> Health
          | Some "shutdown" -> Shutdown
          | Some other -> reject "unknown op %S" other
        in
        Ok { id; client; failpoints; idem; op }
      with Reject m -> fail id m)
    | Ok _ -> fail Json.Null "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Response rendering. *)

let ok_response ~id body =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"id\":";
  Json.add_value buf id;
  Buffer.add_string buf ",\"ok\":true,\"result\":{";
  body buf;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let error_response ~id err =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"id\":";
  Json.add_value buf id;
  Buffer.add_string buf ",\"ok\":false,\"error\":{\"code\":";
  Json.add_string buf (error_code_name err.code);
  Buffer.add_string buf ",\"message\":";
  Json.add_string buf err.message;
  (match err.retry_after with
  | None -> ()
  | Some s ->
    Buffer.add_string buf ",\"retry_after\":";
    Json.add_float buf s);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Request builders. *)

let add_field buf ~first name emit =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Json.add_string buf name;
  Buffer.add_char buf ':';
  emit buf

let analyze_line ?id ?client ?idem ?horizon ?cutoff ?engine ?domains
    ?deadline ?mem_limit_mb ?max_order ?failpoints ?(verbose = false) ~model
    () =
  let buf = Buffer.create (String.length model + 128) in
  let first = ref true in
  Buffer.add_char buf '{';
  Option.iter
    (fun v -> add_field buf ~first "id" (fun b -> Json.add_string b v))
    id;
  Option.iter
    (fun v -> add_field buf ~first "client" (fun b -> Json.add_string b v))
    client;
  Option.iter
    (fun v -> add_field buf ~first "idem" (fun b -> Json.add_string b v))
    idem;
  add_field buf ~first "op" (fun b -> Json.add_string b "analyze");
  add_field buf ~first "model" (fun b -> Json.add_string b model);
  let params = Buffer.create 64 in
  let pfirst = ref true in
  Option.iter
    (fun v -> add_field params ~first:pfirst "horizon" (fun b -> Json.add_float b v))
    horizon;
  Option.iter
    (fun v -> add_field params ~first:pfirst "cutoff" (fun b -> Json.add_float b v))
    cutoff;
  Option.iter
    (fun v -> add_field params ~first:pfirst "engine" (fun b -> Json.add_string b v))
    engine;
  Option.iter
    (fun v ->
      add_field params ~first:pfirst "domains" (fun b ->
          Buffer.add_string b (string_of_int v)))
    domains;
  Option.iter
    (fun v -> add_field params ~first:pfirst "deadline" (fun b -> Json.add_float b v))
    deadline;
  Option.iter
    (fun v ->
      add_field params ~first:pfirst "mem_limit_mb" (fun b ->
          Buffer.add_string b (string_of_int v)))
    mem_limit_mb;
  Option.iter
    (fun v ->
      add_field params ~first:pfirst "max_order" (fun b ->
          Buffer.add_string b (string_of_int v)))
    max_order;
  if Buffer.length params > 0 then
    add_field buf ~first "params" (fun b ->
        Buffer.add_char b '{';
        Buffer.add_buffer b params;
        Buffer.add_char b '}');
  Option.iter
    (fun v -> add_field buf ~first "failpoints" (fun b -> Json.add_string b v))
    failpoints;
  if verbose then
    add_field buf ~first "verbose" (fun b -> Buffer.add_string b "true");
  Buffer.add_char buf '}';
  Buffer.contents buf

let simple_line ?id ?client op =
  let buf = Buffer.create 64 in
  let first = ref true in
  Buffer.add_char buf '{';
  Option.iter
    (fun v -> add_field buf ~first "id" (fun b -> Json.add_string b v))
    id;
  Option.iter
    (fun v -> add_field buf ~first "client" (fun b -> Json.add_string b v))
    client;
  add_field buf ~first "op" (fun b -> Json.add_string b op);
  Buffer.add_char buf '}';
  Buffer.contents buf
