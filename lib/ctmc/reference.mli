(** The pre-CSR chain representation ([(dst, rate)] pair rows) and its
    uniformization loop, retained as a differential-testing oracle for the
    flat {!Ctmc}/{!Transient} kernels and as the baseline of the kernel
    benchmarks. No analysis path uses this module. *)

type t

val make : n_states:int -> transitions:(int * int * float) list -> t
(** Historical builder: per-state hashtable merge of duplicate edges. Same
    validation rules as {!Ctmc.make}. *)

val of_ctmc : Ctmc.t -> t

val max_exit_rate : t -> float

val dtmc_step : t -> float -> float array -> float array -> unit
(** One step of the uniformized DTMC [P = I + Q/q]: [out := pi * P]. Exposed
    so the kernel benchmark can measure it against {!Transient.dtmc_step}. *)

val distribution :
  ?options:Transient.options -> t -> init:(int * float) list -> t:float -> float array

val reach_within :
  ?options:Transient.options ->
  t ->
  init:(int * float) list ->
  target:(int -> bool) ->
  t:float ->
  float
