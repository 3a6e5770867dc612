exception Injected of string

type action =
  | Raise
  | Oom
  | Limit of Guard.reason
  | Delay of float

type trigger =
  | Always
  | Nth of int
  | First of int
  | Prob of float * int

type site = {
  action : action;
  trigger : trigger;
  hits : int Atomic.t;
}

(* [armed] gates the fast path. Each registry is an isolated set of sites;
   the default registry additionally picks up SDFT_FAILPOINTS on the first
   hit of the process, so env-driven injection works in any binary (tests
   included) without explicit initialisation. Fresh registries never read
   the environment: an injection configured by the operator targets the
   process-level run, not every concurrent analysis context. *)
type t = {
  armed : bool Atomic.t;
  lock : Mutex.t;
  table : (string, site) Hashtbl.t;
}

let create () =
  { armed = Atomic.make false; lock = Mutex.create (); table = Hashtbl.create 8 }

let default = create ()

let env_read = Atomic.make false

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_in t name ?(trigger = Always) action =
  (match trigger with
  | Nth n when n <= 0 -> invalid_arg "Failpoint.set: nth trigger must be >= 1"
  | First n when n <= 0 ->
    invalid_arg "Failpoint.set: first trigger must be >= 1"
  | Prob (p, _) when Float.is_nan p || p < 0.0 || p > 1.0 ->
    invalid_arg "Failpoint.set: probability must be in [0,1]"
  | _ -> ());
  locked t (fun () ->
      Hashtbl.replace t.table name { action; trigger; hits = Atomic.make 0 };
      Atomic.set t.armed true)

let clear_in t name =
  locked t (fun () ->
      Hashtbl.remove t.table name;
      if Hashtbl.length t.table = 0 then Atomic.set t.armed false)

let clear_all_in t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Atomic.set t.armed false)

let hit_count_in t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some s -> Atomic.get s.hits
      | None -> 0)

(* Stateless per-hit decision: mixing the seed with the hit index through
   splitmix64 gives every hit its own draw no matter how hits interleave
   across domains, so a (seed, index) pair always decides the same way. *)
let prob_fires p seed index =
  let rng = Rng.create (seed lxor (index * 0x2545F491)) in
  Rng.float rng < p

let fire name s =
  let index = Atomic.fetch_and_add s.hits 1 + 1 in
  let fires =
    match s.trigger with
    | Always -> true
    | Nth n -> index = n
    | First n -> index <= n
    | Prob (p, seed) -> prob_fires p seed index
  in
  if fires then
    match s.action with
    | Raise -> raise (Injected name)
    | Oom -> raise Out_of_memory
    | Limit r -> raise (Guard.Limit_hit r)
    | Delay seconds -> if seconds > 0.0 then Unix.sleepf seconds

(* Specification parsing: SITE=ACTION[@TRIGGER], comma-separated. *)

let bad entry fmt =
  Printf.ksprintf
    (fun m -> failwith (Printf.sprintf "failpoint %S: %s" entry m))
    fmt

let parse_float entry what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> bad entry "bad %s %S" what s

let parse_int entry what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> bad entry "bad %s %S" what s

let parse_action entry s =
  match String.split_on_char ':' s with
  | [ "raise" ] -> Raise
  | [ "oom" ] -> Oom
  | [ "deadline" ] -> Limit Guard.Deadline
  | [ "mem" ] -> Limit Guard.Mem_limit
  | [ "state" ] -> Limit Guard.State_limit
  | [ "crash" ] -> Limit Guard.Worker_crash
  | [ "delay"; seconds ] -> Delay (parse_float entry "delay" seconds)
  | _ ->
    bad entry
      "unknown action %S (expected raise, oom, deadline, mem, state, crash \
       or delay:SECONDS)"
      s

let parse_trigger entry s =
  match String.split_on_char ':' s with
  | [ "always" ] -> Always
  | [ "nth"; n ] ->
    let n = parse_int entry "nth count" n in
    if n <= 0 then bad entry "nth count must be >= 1";
    Nth n
  | [ "first"; n ] ->
    let n = parse_int entry "first count" n in
    if n <= 0 then bad entry "first count must be >= 1";
    First n
  | [ "prob"; p; seed ] ->
    let p = parse_float entry "probability" p in
    if Float.is_nan p || p < 0.0 || p > 1.0 then
      bad entry "probability must be in [0,1]";
    Prob (p, parse_int entry "seed" seed)
  | _ ->
    bad entry
      "unknown trigger %S (expected always, nth:N, first:N or prob:P:SEED)" s

let parse_entry t entry =
  match String.index_opt entry '=' with
  | None -> bad entry "missing '=' (expected SITE=ACTION[@TRIGGER])"
  | Some i ->
    let name = String.sub entry 0 i in
    let spec = String.sub entry (i + 1) (String.length entry - i - 1) in
    if name = "" then bad entry "empty site name";
    let action, trigger =
      match String.index_opt spec '@' with
      | None -> (parse_action entry spec, Always)
      | Some j ->
        ( parse_action entry (String.sub spec 0 j),
          parse_trigger entry
            (String.sub spec (j + 1) (String.length spec - j - 1)) )
    in
    set_in t name ~trigger action

let configure_string_in t s =
  List.iter
    (fun entry ->
      let entry = String.trim entry in
      if entry <> "" then parse_entry t entry)
    (String.split_on_char ',' s)

let load_env_in t =
  if t == default then Atomic.set env_read true;
  match Sys.getenv_opt "SDFT_FAILPOINTS" with
  | Some spec when String.trim spec <> "" -> configure_string_in t spec
  | Some _ | None -> ()

let hit_in t name =
  if t == default && not (Atomic.get env_read) then load_env_in t;
  if Atomic.get t.armed then begin
    let site = locked t (fun () -> Hashtbl.find_opt t.table name) in
    match site with None -> () | Some s -> fire name s
  end
