(** A practical subset of the Open-PSA Model Exchange Format.

    Open-PSA MEF is the XML interchange format understood by the major PSA
    tools (XFTA, SCRAM, RiskSpectrum converters). This module reads and
    writes the static fault-tree subset:

    - [<define-fault-tree>] with [<define-gate>] definitions,
    - formulas [<and>], [<or>], [<atleast min="k">] (also accepted as
      [<vote>]), with references [<gate name=.../>],
      [<basic-event name=.../>] and [<event name=.../>],
    - [<define-basic-event>] carrying [<float value=.../>] probabilities,
      either inside the fault tree or in [<model-data>],
    - nested anonymous formulas inside gate definitions.

    Definitions may appear in any order; references are resolved after
    parsing (cyclic definitions are rejected). Dynamic features are not part
    of the exchange format — imported models are static fault trees that can
    then be dynamized with {!Dynamize}-style tooling or by hand. *)

exception Error of string

val of_string : string -> Fault_tree.t
(** Reads the first fault tree of the document; the top gate is the gate
    named by the fault-tree's ["top"] attribute if present, otherwise the
    unique gate no other gate references.

    @raise Error on malformed documents, unknown references, cyclic
    definitions, or when no top gate can be determined. *)

val of_file : string -> Fault_tree.t

val to_string : ?name:string -> Fault_tree.t -> string
(** Serialise as [<opsa-mef>] with one fault tree and its model data.
    Round-trips through {!of_string}. *)
