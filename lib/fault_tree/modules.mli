(** Module (independent-subtree) detection.

    A gate is a {e module} when no node strictly inside its subtree is
    referenced from outside it — the subtree interacts with the rest of the
    tree only through the gate itself. Classical fault tree tools exploit
    modules to solve parts of the tree independently; here the detection is
    exposed for tooling (the paper's related work contrasts SD fault trees
    with approaches that isolate dynamic modules, which only help when the
    dynamic parts happen to be modular). *)

val find : Fault_tree.t -> int list
(** Gates (by index, increasing) whose subtrees are modules. The top gate is
    always one. Unreachable gates are not reported, and references from
    unreachable gates (dangling scaffolding that the top event never sees) do
    not disqualify a module. *)
