type mode =
  | On
  | Off

type switch = {
  modes : mode array;
  partner : int array; (* off-state <-> on-state *)
}

type t = {
  n : int;
  chain : Ctmc.t;
  init : (int * float) list;
  failed : bool array;
  switch : switch option;
}

let make ~n_states ~init ~transitions ~failed ?switch () =
  if n_states <= 0 then invalid_arg "Dbe.make: need at least one state";
  let chain = Ctmc.make ~n_states ~transitions in
  let mass =
    List.fold_left
      (fun acc (s, p) ->
        if s < 0 || s >= n_states then invalid_arg "Dbe.make: init state out of range";
        if p < 0.0 then invalid_arg "Dbe.make: negative initial mass";
        acc +. p)
      0.0 init
  in
  if Float.abs (mass -. 1.0) > 1e-9 then
    invalid_arg "Dbe.make: initial distribution must sum to 1";
  let failed_arr = Array.make n_states false in
  List.iter
    (fun s ->
      if s < 0 || s >= n_states then invalid_arg "Dbe.make: failed state out of range";
      failed_arr.(s) <- true)
    failed;
  if not (Array.exists Fun.id failed_arr) then
    invalid_arg "Dbe.make: a dynamic event needs at least one failed state";
  let switch =
    match switch with
    | None -> None
    | Some (modes, partner) ->
      if Array.length modes <> n_states || Array.length partner <> n_states then
        invalid_arg "Dbe.make: switch arrays have wrong length";
      Array.iteri
        (fun s p ->
          if p < 0 || p >= n_states then
            invalid_arg "Dbe.make: switch partner out of range";
          match modes.(s), modes.(p) with
          | On, Off | Off, On -> ()
          | On, On | Off, Off ->
            invalid_arg "Dbe.make: switch partner must be in the opposite mode")
        partner;
      (* F ⊆ S_on *)
      Array.iteri
        (fun s f ->
          if f && modes.(s) = Off then
            invalid_arg "Dbe.make: failed states must be switched on")
        failed_arr;
      (* Initial distribution supported on off-states. *)
      List.iter
        (fun (s, p) ->
          if p > 0.0 && modes.(s) = On then
            invalid_arg "Dbe.make: triggered events must start switched off")
        init;
      Some { modes; partner }
  in
  { n = n_states; chain; init; failed = failed_arr; switch }

let exponential ~lambda ?mu () =
  let transitions = [ (0, 1, lambda) ] in
  let transitions =
    match mu with
    | Some m -> (1, 0, m) :: transitions
    | None -> transitions
  in
  make ~n_states:2 ~init:[ (0, 1.0) ] ~transitions ~failed:[ 1 ] ()

let erlang ~phases ~lambda ?mu () =
  if phases < 1 then invalid_arg "Dbe.erlang: need at least one phase";
  let rate = float_of_int phases *. lambda in
  let transitions = List.init phases (fun i -> (i, i + 1, rate)) in
  let transitions =
    match mu with
    | Some m -> (phases, 0, m) :: transitions
    | None -> transitions
  in
  make ~n_states:(phases + 1) ~init:[ (0, 1.0) ] ~transitions ~failed:[ phases ] ()

let triggered_erlang ~phases ~lambda ?mu ?(passive_factor = 0.01)
    ?(repair_when_off = false) () =
  if phases < 1 then invalid_arg "Dbe.triggered_erlang: need at least one phase";
  if passive_factor < 0.0 then
    invalid_arg "Dbe.triggered_erlang: negative passive factor";
  (* States: off-phase i is state i, on-phase i is state (phases + 1 + i). *)
  let off i = i and on i = phases + 1 + i in
  let n_states = 2 * (phases + 1) in
  let active_rate = float_of_int phases *. lambda in
  let passive_rate = active_rate *. passive_factor in
  let transitions = ref [] in
  for i = 0 to phases - 1 do
    transitions := (on i, on (i + 1), active_rate) :: !transitions;
    if passive_rate > 0.0 then
      transitions := (off i, off (i + 1), passive_rate) :: !transitions
  done;
  (match mu with
  | Some m ->
    transitions := (on phases, on 0, m) :: !transitions;
    if repair_when_off then transitions := (off phases, off 0, m) :: !transitions
  | None -> ());
  let modes = Array.init n_states (fun s -> if s <= phases then Off else On) in
  let partner =
    Array.init n_states (fun s -> if s <= phases then on s else s - (phases + 1))
  in
  make ~n_states ~init:[ (off 0, 1.0) ] ~transitions:!transitions
    ~failed:[ on phases ] ~switch:(modes, partner) ()

let triggered_exponential ~lambda ?mu ?passive_factor ?repair_when_off () =
  triggered_erlang ~phases:1 ~lambda ?mu ?passive_factor ?repair_when_off ()

let n_states t = t.n

let chain t = t.chain

let init t = t.init

let is_failed t s = t.failed.(s)

let is_triggered_model t = t.switch <> None

let mode_of t s =
  match t.switch with
  | None -> On
  | Some sw -> sw.modes.(s)

let switch_on t s =
  match t.switch with
  | None -> invalid_arg "Dbe.switch_on: untriggered event"
  | Some sw ->
    if sw.modes.(s) <> Off then invalid_arg "Dbe.switch_on: not an off-state";
    sw.partner.(s)

let switch_off t s =
  match t.switch with
  | None -> invalid_arg "Dbe.switch_off: untriggered event"
  | Some sw ->
    if sw.modes.(s) <> On then invalid_arg "Dbe.switch_off: not an on-state";
    sw.partner.(s)

let initial_on t =
  match t.switch with
  | None -> t.init
  | Some sw -> List.map (fun (s, p) -> (sw.partner.(s), p)) t.init

let worst_case_failure_probability ?(epsilon = 1e-12) ?obs t ~horizon =
  let options = { Transient.epsilon } in
  Transient.reach_within ~options ?obs t.chain ~init:(initial_on t)
    ~target:(fun s -> t.failed.(s))
    ~t:horizon

let pp ppf t =
  let kind = if is_triggered_model t then "triggered" else "plain" in
  Format.fprintf ppf "dbe(%s, %d states, %d transitions)" kind t.n
    (Ctmc.n_transitions t.chain)
