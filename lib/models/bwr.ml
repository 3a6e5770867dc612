type trigger_site =
  | Feed_and_bleed
  | Rhr_second_train
  | Efw_second_train
  | Ecc_second_train
  | Sws_second_train
  | Ccw_second_train

let all_trigger_sites =
  [
    Feed_and_bleed;
    Rhr_second_train;
    Efw_second_train;
    Ecc_second_train;
    Sws_second_train;
    Ccw_second_train;
  ]

type config = {
  mission_hours : float;
  dynamic_pumps : bool;
  phases : int;
  repair_rate : float option;
  triggers : trigger_site list;
  include_ccf : bool;
}

let default_config =
  {
    mission_hours = 24.0;
    dynamic_pumps = true;
    phases = 1;
    repair_rate = None;
    triggers = [];
    include_ccf = false;
  }

(* Failure data (per-demand probabilities and hourly rates). *)
let run_failure_rate = 2e-4

let p_pump_start = 1e-3

let p_mov = 3e-4

let p_breaker = 1e-4

let p_suction = 1e-5

let p_hx = 1e-4

let p_strainer = 2e-4

let p_loop = 1e-2 (* loss of offsite power during the mission *)

let p_dg_start = 1e-2

let dg_run_rate = 5e-4

let p_fb_operator = 1e-2

let p_fb_valve = 2e-3

let p_initiating_event = 1e-3

let p_ccf = 2e-4

let fb_gate = "RHR.fail"

let mission_probability rate hours = 1.0 -. exp (-.rate *. hours)

(* Names of the failure-in-operation events per system and train. *)
let run_event system train = Printf.sprintf "%s.P%d.run" system train

let fb_run_event = "FB.run"

let static_tree_builder ~include_ccf ~mission_hours =
  let b = Fault_tree.Builder.create () in
  let basic = Fault_tree.Builder.basic b in
  let gate = Fault_tree.Builder.gate b in
  let p_run = mission_probability run_failure_rate mission_hours in
  let p_dg_run = mission_probability dg_run_rate mission_hours in
  (* Electric power: one bus per train; a bus fails when offsite power is
     lost and the train's diesel generator fails. *)
  let loop = basic ~prob:p_loop "LOOP" in
  let bus =
    Array.init 2 (fun i ->
        let t = i + 1 in
        let dg_start = basic ~prob:p_dg_start (Printf.sprintf "DG%d.start" t) in
        let dg_run = basic ~prob:p_dg_run (Printf.sprintf "DG%d.run" t) in
        let dg =
          gate (Printf.sprintf "DG%d.fail" t) Fault_tree.Or [ dg_start; dg_run ]
        in
        gate (Printf.sprintf "BUS%d" t) Fault_tree.And [ loop; dg ])
  in
  (* A pump train of [system]: the pump fails to start or in operation, plus
     train-local equipment and the support inputs. *)
  let pump_train system t extra_inputs =
    let s = basic ~prob:p_pump_start (Printf.sprintf "%s.P%d.start" system t) in
    let r = basic ~prob:p_run (run_event system t) in
    gate
      (Printf.sprintf "%s.T%d" system t)
      Fault_tree.Or
      ([ s; r ] @ extra_inputs)
  in
  (* A common-cause event per pump pair, shared by both trains of the
     system: it defeats the train redundancy directly, which is why the
     paper notes CCFs "usually dominate the result". *)
  let ccf_of system =
    if include_ccf then [ basic ~prob:p_ccf (Printf.sprintf "%s.ccf" system) ]
    else []
  in
  (* Service Water System: bottom of the support chain. *)
  let sws_ccf = ccf_of "SWS" in
  let sws_train =
    Array.init 2 (fun i ->
        let t = i + 1 in
        let strainer =
          basic ~prob:p_strainer (Printf.sprintf "SWS.T%d.strainer" t)
        in
        pump_train "SWS" t (strainer :: sws_ccf))
  in
  (* Component Cooling Water: needs service water. *)
  let ccw_ccf = ccf_of "CCW" in
  let ccw_train =
    Array.init 2 (fun i ->
        let t = i + 1 in
        let hx = basic ~prob:p_hx (Printf.sprintf "CCW.T%d.hx" t) in
        pump_train "CCW" t ([ hx; sws_train.(i) ] @ ccw_ccf))
  in
  (* A frontline train: valve, breaker, bus, and optionally component
     cooling; suction source is shared between the two trains of a
     system. *)
  let frontline system ~needs_ccw =
    let suction = basic ~prob:p_suction (Printf.sprintf "%s.suction" system) in
    let ccf = ccf_of system in
    let trains =
      Array.init 2 (fun i ->
          let t = i + 1 in
          let mov = basic ~prob:p_mov (Printf.sprintf "%s.T%d.mov" system t) in
          let breaker =
            basic ~prob:p_breaker (Printf.sprintf "%s.T%d.breaker" system t)
          in
          let support = if needs_ccw then [ ccw_train.(i) ] else [] in
          pump_train system t ([ mov; breaker; suction; bus.(i) ] @ support @ ccf))
    in
    gate
      (Printf.sprintf "%s.trains" system)
      Fault_tree.And
      (Array.to_list trains)
  in
  let system_fail system trains_gate =
    gate (Printf.sprintf "%s.fail" system) Fault_tree.Or [ trains_gate ]
  in
  let ecc = system_fail "ECC" (frontline "ECC" ~needs_ccw:true) in
  let efw = system_fail "EFW" (frontline "EFW" ~needs_ccw:true) in
  let rhr = system_fail "RHR" (frontline "RHR" ~needs_ccw:false) in
  (* FEED&BLEED recovery: operator action, two relief valves, and the
     injection failing in operation. *)
  let fb =
    let operator = basic ~prob:p_fb_operator "FB.operator" in
    let v1 = basic ~prob:p_fb_valve "FB.valve1" in
    let v2 = basic ~prob:p_fb_valve "FB.valve2" in
    let run = basic ~prob:p_run fb_run_event in
    gate "FB.fail" Fault_tree.Or [ operator; v1; v2; run ]
  in
  let injection = gate "no_injection" Fault_tree.And [ ecc; efw ] in
  let heat_removal = gate "no_heat_removal" Fault_tree.And [ rhr; fb ] in
  let ie = basic ~prob:p_initiating_event "IE.loss_of_feedwater" in
  let sequences = gate "sequences" Fault_tree.Or [ injection; heat_removal ] in
  let top = gate "core_damage" Fault_tree.And [ ie; sequences ] in
  Fault_tree.Builder.build b ~top

let static_tree ?(include_ccf = false) ?(mission_hours = 24.0) () =
  static_tree_builder ~include_ccf ~mission_hours

let build config =
  let tree =
    static_tree_builder ~include_ccf:config.include_ccf
      ~mission_hours:config.mission_hours
  in
  if not config.dynamic_pumps then Sdft.static_only tree
  else begin
    let triggers =
      List.filter_map
        (function
          | Feed_and_bleed -> Some (fb_gate, fb_run_event)
          | Rhr_second_train -> Some ("RHR.T1", run_event "RHR" 2)
          | Efw_second_train -> Some ("EFW.T1", run_event "EFW" 2)
          | Ecc_second_train -> Some ("ECC.T1", run_event "ECC" 2)
          | Sws_second_train -> Some ("SWS.T1", run_event "SWS" 2)
          | Ccw_second_train -> Some ("CCW.T1", run_event "CCW" 2))
        config.triggers
    in
    let triggered_events = List.map snd triggers in
    let run_events =
      fb_run_event
      :: List.concat_map
           (fun system -> [ run_event system 1; run_event system 2 ])
           [ "ECC"; "EFW"; "RHR"; "CCW"; "SWS" ]
    in
    let dbe_for name =
      if List.mem name triggered_events then
        Dbe.triggered_erlang ~phases:config.phases ~lambda:run_failure_rate
          ?mu:config.repair_rate ~passive_factor:0.01 ()
      else
        Dbe.erlang ~phases:config.phases ~lambda:run_failure_rate
          ?mu:config.repair_rate ()
    in
    let dynamic = List.map (fun name -> (name, dbe_for name)) run_events in
    Sdft.make tree ~dynamic ~triggers
  end
