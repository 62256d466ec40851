(** The ternary register fixpoint behind the lint dataflow rules.

    Every primary input is free and flip-flops start at their reset
    values; the per-cell ternary transfer functions ({!Ternary}) are
    iterated over register state until no flop changes.  A net that
    still carries a definite value is constant in every reachable
    state — a sound over-approximation that sees no input
    correlations.  Each per-bit state lattice has height 2, so the
    fixpoint is reached within [flops + 1] iterations. *)

type t

val run : Netlist.Design.t -> t
(** Run the fixpoint.
    @raise Netlist.Topo.Combinational_cycle on cyclic designs. *)

val constants : t -> Candidate.t list
(** Nets forced constant in every reachable state, as candidates
    (rails and primary inputs excluded, matching {!Ternary.constants}). *)

val stuck_registers : t -> (int * bool) list
(** Flop cell ids whose state never leaves the given value — an
    unreachable-FSM-state hint for the lint pass. *)

val dead_writes : t -> (int * bool) list
(** Flop cell ids fed by a [Mux2] whose select is forced to the given
    constant: the other write arm is dead. *)
