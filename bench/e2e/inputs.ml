(* The benchmark's inputs: the three models it analyses and everything
   [--seed] draws. Runs at different seeds are compared with one another,
   so the seed may not change how much work a run does. It therefore never
   touches a model's structure or a sweep's horizons: an Industrial tree
   built from another seed differs up to fivefold in cold cost (seed 8
   sweeps in a quarter of seed 7's time), and moving model-1's 24 h point
   by 1% moves its cost by 10%. The seed renames every event and gate of
   every model, which no result may notice, and it draws and orders the
   server's request stream. *)

(* Model-1 as in the cache benchmark: the [Industrial.small] preset with 60%
   of its events made Erlang-[phases] dynamic and repairable, 6% triggered
   along the redundant run-event chains, calibrated so every event keeps its
   mission failure probability. *)
let model_1 ~phases =
  let tree = Industrial.generate Industrial.small in
  let config =
    {
      Dynamize.default_config with
      dynamic_fraction = 0.6;
      trigger_fraction = 0.06;
      phases;
      repair_rate = Some 0.05;
      chain_groups = Some (Industrial.run_event_groups tree);
      calibration = Dynamize.Mission_probability;
    }
  in
  (Dynamize.run ~config tree).Dynamize.sd

(* The paper's Sec. VI-A study with repairs and every trigger site. *)
let bwr () =
  Bwr.build
    {
      Bwr.default_config with
      repair_rate = Some 0.1;
      triggers = Bwr.all_trigger_sites;
    }

let pumps () = Pumps.sd_tree ()

let rng seed = Random.State.make [| seed |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The same model with its basic events and gates named by a seeded
   permutation. Declaration order, hence every index, is kept. *)
let relabel rng sd =
  let tree = Sdft.tree sd in
  let n_basics = Fault_tree.n_basics tree in
  let ids = Array.init (n_basics + Fault_tree.n_gates tree) Fun.id in
  shuffle rng ids;
  let name i = Printf.sprintf "n%d" ids.(i) in
  let b = Fault_tree.Builder.create () in
  let basics =
    Array.init n_basics (fun e ->
        Fault_tree.Builder.basic b ~prob:(Fault_tree.prob tree e) (name e))
  in
  let gates = Array.make (Fault_tree.n_gates tree) (Fault_tree.B 0) in
  Array.iteri
    (fun g _ ->
      let input = function
        | Fault_tree.B e -> basics.(e)
        | Fault_tree.G g' -> gates.(g')
      in
      gates.(g) <-
        Fault_tree.Builder.gate b (name (n_basics + g))
          (Fault_tree.gate_kind tree g)
          (Array.to_list (Array.map input (Fault_tree.gate_inputs tree g))))
    gates;
  Sdft.of_indexed
    (Fault_tree.Builder.build b ~top:gates.(Fault_tree.top tree))
    ~dynamic:(List.map (fun e -> (e, Sdft.dbe sd e)) (Sdft.dynamic_basics sd))
    ~triggers:(Sdft.trigger_edges sd)

(* A user hands the program a model file, not an in-memory value: every
   model goes through the text format before the program sees it. *)
let as_text rng sd = Sdft_format.to_string (relabel rng sd)

let sweep_options ~engine horizons =
  List.map
    (fun horizon ->
      { Sdft_analysis.default_options with horizon; engine })
    horizons

(* ------------------------------------------------------------------ *)
(* The server-mix request stream. *)

type model_class = Pumps | Bwr_zdd | M1_zdd

let class_name = function
  | Pumps -> "pumps"
  | Bwr_zdd -> "bwr"
  | M1_zdd -> "model-1"

type request = {
  cls : model_class;
  horizon : float;
  line : string;  (** the verbose [analyze] frame sent on the wire *)
}

(* 200 requests: 74 pumps (h in 1..96, server-default engine), 96 BWR with
   the ZDD engine (h = 6, 12, .., 96, six times each) and 30 model-1
   Erlang-2 with the ZDD engine (h = 1..24 once each, and 4, 8, .., 24 once
   more). The pattern of classes along the stream is fixed, and so is every
   multiset of horizons but the pumps', which cost next to nothing: the
   seed draws the pumps horizons and which horizon of its class each slot
   gets. A seeded order would let the seed decide which requests queue
   behind the slow model-1 ones, and so move the latency percentiles. *)
let stream rng ~model_text =
  let classes =
    Array.concat
      [ Array.make 74 Pumps; Array.make 96 Bwr_zdd; Array.make 30 M1_zdd ]
  in
  shuffle (Random.State.make [| 0 |]) classes;
  let deck l =
    let a = Array.of_list l in
    shuffle rng a;
    Queue.of_seq (Array.to_seq a)
  in
  let bwr = deck (List.init 96 (fun i -> float_of_int (6 * (1 + (i mod 16))))) in
  let m1 =
    deck
      (List.init 24 (fun i -> float_of_int (i + 1))
      @ List.init 6 (fun i -> float_of_int (4 * (i + 1))))
  in
  Array.mapi
    (fun i cls ->
      let horizon, engine =
        match cls with
        | Pumps -> (float_of_int (1 + Random.State.int rng 96), None)
        | Bwr_zdd -> (Queue.pop bwr, Some "zdd")
        | M1_zdd -> (Queue.pop m1, Some "zdd")
      in
      {
        cls;
        horizon;
        line =
          Sdft_server.Protocol.analyze_line ~id:(string_of_int i) ~horizon
            ?engine ~verbose:true ~model:(model_text cls) ();
      })
    classes
