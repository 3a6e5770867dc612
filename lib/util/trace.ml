type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type kind =
  | Span
  | Instant

type event = {
  ev_name : string;
  ev_kind : kind;
  ev_start : float;  (* Unix epoch seconds *)
  ev_dur : float;  (* 0 for instants *)
  ev_depth : int;
  ev_domain : int;
  ev_attrs : (string * value) list;
}

(* An open span carries everything needed to close it. Attributes are added
   front-first while the span is open ([add_attr]) and reversed on close so
   the export order matches the call order. *)
type open_span = {
  os_name : string;
  os_start : float;
  os_depth : int;
  mutable os_attrs : (string * value) list;
}

(* One buffer per (sink, domain): the writing side of a buffer is only
   ever touched by its own domain, so the hot path never locks. Buffers
   stay registered in their sink after their domain dies, which is how
   spans recorded by short-lived [Parallel.map_init] workers survive the
   join and appear in the export. *)
type buffer = {
  buf_id : int;
  events : event Vec.t;
  mutable stack : open_span list;
}

(* A sink is one isolated trace destination. Buffers are looked up by the
   calling domain's id in a CAS-updated association list; domain ids are
   never reused within a process, so an entry can only be claimed once.
   The list stays short (one entry per domain that ever traced into the
   sink), so the scan costs less than the [Unix.gettimeofday] every
   recording makes anyway. *)
type sink = {
  enabled_flag : bool Atomic.t;
  buffers : (int * buffer) list Atomic.t;
  next_buffer_id : int Atomic.t;
}

type t = sink

(* Fresh sinks are for explicitly-created observability contexts, where
   creation is the intent to record; the default sink stays disabled until
   the executable's --trace flag (or explain) flips it on. *)
let create ?(enabled = true) () =
  {
    enabled_flag = Atomic.make enabled;
    buffers = Atomic.make [];
    next_buffer_id = Atomic.make 0;
  }

let default = create ~enabled:false ()

let enabled_in s = Atomic.get s.enabled_flag

let set_enabled_in s b = Atomic.set s.enabled_flag b

let rec buffer_for s =
  let did = (Domain.self () :> int) in
  let l = Atomic.get s.buffers in
  match List.assoc_opt did l with
  | Some b -> b
  | None ->
    let b =
      {
        buf_id = Atomic.fetch_and_add s.next_buffer_id 1;
        events = Vec.create ();
        stack = [];
      }
    in
    if Atomic.compare_and_set s.buffers l ((did, b) :: l) then b
    else buffer_for s (* another domain's insert won; retry on the new list *)

let begin_span buf name =
  let os =
    {
      os_name = name;
      os_start = Unix.gettimeofday ();
      os_depth = List.length buf.stack;
      os_attrs = [];
    }
  in
  buf.stack <- os :: buf.stack;
  os

let end_span buf os attrs =
  let now = Unix.gettimeofday () in
  (match buf.stack with
  | top :: rest when top == os -> buf.stack <- rest
  | _ ->
    (* A span closed out of order (an exception unwound past an enclosing
       with_span whose finally already ran, or enable flipped mid-span):
       drop every span opened after it so depths stay consistent. *)
    let rec drop = function
      | top :: rest when top == os -> rest
      | _ :: rest -> drop rest
      | [] -> []
    in
    buf.stack <- drop buf.stack);
  let dur = now -. os.os_start in
  Vec.push buf.events
    {
      ev_name = os.os_name;
      ev_kind = Span;
      ev_start = os.os_start;
      ev_dur = dur;
      ev_depth = os.os_depth;
      ev_domain = buf.buf_id;
      ev_attrs = List.rev_append os.os_attrs (List.rev attrs);
    };
  dur

(* [on_close] gets the duration the event records, so a caller that also
   aggregates it (Obs.span's histogram) sees the same number bit for bit.
   A disabled sink reads the clock only when there is a callback. *)
let with_span ~sink ?(attrs = []) ?on_close name f =
  if Atomic.get sink.enabled_flag then begin
    let buf = buffer_for sink in
    let os = begin_span buf name in
    Fun.protect
      ~finally:(fun () ->
        let dur = end_span buf os attrs in
        Option.iter (fun k -> k dur) on_close)
      f
  end
  else
    match on_close with
    | None -> f ()
    | Some k ->
      let t0 = Unix.gettimeofday () in
      Fun.protect ~finally:(fun () -> k (Unix.gettimeofday () -. t0)) f

let add_attr ~sink name v =
  if Atomic.get sink.enabled_flag then begin
    let buf = buffer_for sink in
    match buf.stack with
    | [] -> ()
    | os :: _ -> os.os_attrs <- (name, v) :: os.os_attrs
  end

let instant ~sink ?(attrs = []) name =
  if Atomic.get sink.enabled_flag then begin
    let buf = buffer_for sink in
    Vec.push buf.events
      {
        ev_name = name;
        ev_kind = Instant;
        ev_start = Unix.gettimeofday ();
        ev_dur = 0.0;
        ev_depth = List.length buf.stack;
        ev_domain = buf.buf_id;
        ev_attrs = attrs;
      }
  end

(* Snapshot/reset walk every registered buffer. They are meant to run while
   the traced workload is quiescent (after Parallel.map_init has joined). *)
let snapshot_in s =
  let buffers = List.map snd (Atomic.get s.buffers) in
  let all = List.concat_map (fun b -> Vec.to_list b.events) buffers in
  List.sort
    (fun a b ->
      let c = compare a.ev_start b.ev_start in
      if c <> 0 then c
      else
        let c = compare a.ev_domain b.ev_domain in
        if c <> 0 then c else compare b.ev_depth a.ev_depth)
    all

let reset_in s =
  List.iter
    (fun (_, b) ->
      Vec.clear b.events;
      b.stack <- [])
    (Atomic.get s.buffers)

(* Aggregation for terminal reporting ("top spans"). The per-name totals
   are summed in a canonical event order (start time, then duration, then
   domain) with Kahan compensation, so the reported total for a given set
   of events does not depend on which domain's buffer they landed in or on
   the buffer registration order. Rows sort by total descending with a
   stable tie-break on name. *)
let aggregate_in s =
  let tbl : (string, event list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      if ev.ev_kind = Span then
        match Hashtbl.find_opt tbl ev.ev_name with
        | Some cell -> cell := ev :: !cell
        | None -> Hashtbl.add tbl ev.ev_name (ref [ ev ]))
    (snapshot_in s);
  let rows =
    Hashtbl.fold
      (fun name cell acc ->
        let events =
          List.sort
            (fun a b ->
              let c = compare a.ev_start b.ev_start in
              if c <> 0 then c
              else
                let c = compare a.ev_dur b.ev_dur in
                if c <> 0 then c else compare a.ev_domain b.ev_domain)
            !cell
        in
        let total = Kahan.create () in
        List.iter (fun ev -> Kahan.add total ev.ev_dur) events;
        (name, (List.length events, Kahan.total total)) :: acc)
      tbl []
  in
  List.sort
    (fun (na, (_, ta)) (nb, (_, tb)) ->
      let c = compare tb ta in
      if c <> 0 then c else String.compare na nb)
    rows

(* Serialization. *)

let add_value buf = function
  | Str s -> Json.add_string buf s
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Json.add_float buf f
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let add_attrs buf attrs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Json.add_string buf name;
      Buffer.add_string buf ": ";
      add_value buf v)
    attrs;
  Buffer.add_char buf '}'

let to_jsonl_in s =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf "{\"name\": ";
      Json.add_string buf ev.ev_name;
      Buffer.add_string buf ", \"kind\": ";
      Json.add_string buf
        (match ev.ev_kind with Span -> "span" | Instant -> "instant");
      Buffer.add_string buf ", \"ts\": ";
      Json.add_float buf ev.ev_start;
      Buffer.add_string buf ", \"dur\": ";
      Json.add_float buf ev.ev_dur;
      Printf.ksprintf (Buffer.add_string buf)
        ", \"depth\": %d, \"domain\": %d, \"args\": " ev.ev_depth ev.ev_domain;
      add_attrs buf ev.ev_attrs;
      Buffer.add_string buf "}\n")
    (snapshot_in s);
  Buffer.contents buf

(* Chrome trace-event JSON (chrome://tracing, Perfetto): complete events
   ("X") with microsecond timestamps rebased to the earliest event, one
   thread lane per domain. Instants become thread-scoped "i" events. *)
let to_chrome_in s =
  let events = snapshot_in s in
  let t0 =
    List.fold_left (fun acc ev -> Float.min acc ev.ev_start) infinity events
  in
  let us t = (t -. t0) *. 1e6 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n{\"name\": ";
      Json.add_string buf ev.ev_name;
      Buffer.add_string buf ", \"cat\": \"sdft\", \"ph\": ";
      (match ev.ev_kind with
      | Span ->
        Buffer.add_string buf "\"X\", \"dur\": ";
        Json.add_float buf (ev.ev_dur *. 1e6)
      | Instant -> Buffer.add_string buf "\"i\", \"s\": \"t\"");
      Buffer.add_string buf ", \"ts\": ";
      Json.add_float buf (us ev.ev_start);
      Printf.ksprintf (Buffer.add_string buf)
        ", \"pid\": 0, \"tid\": %d, \"args\": " ev.ev_domain;
      add_attrs buf ev.ev_attrs;
      Buffer.add_string buf "}")
    events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let write_file_in s path =
  let contents =
    if Filename.check_suffix path ".json" then to_chrome_in s
    else to_jsonl_in s
  in
  Atomic_io.write_file path contents
