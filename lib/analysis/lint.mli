(** Netlist lint — single-pass-per-rule structural checks.

    The commercial flow the paper assumes (Design Compiler in, Questa
    alongside) rejects malformed structure before any proof runs; this
    module is our equivalent.  Each rule makes one pass over the design
    and emits located diagnostics ({!Diag.t}).  Rules never raise on
    degenerate inputs (empty design, self-loop registers, cyclic
    combinational logic): {!run} checks basic well-formedness first and
    stops there if net references are out of range, so every later rule
    can index arrays safely.

    Severity convention: structural soundness violations (multi-driven
    nets, combinational cycles, floating inputs, undriven outputs,
    malformed cells) are [Error]; suspicious-but-executable shapes
    (unreachable cells, constant-feedback registers, bus index gaps)
    are [Warning]; the dataflow rules are backed by the
    {!Engine.Absint} fixpoint run with every input free:
    [ternary-const] ([Info]) flags nets the abstract
    fixpoint forces to a constant, i.e. dead candidates the miner
    should skip; [absint-stuck-reg] ([Warning]) flags registers that
    never leave their reset value — unreachable-FSM-state evidence;
    [absint-dead-write] ([Info]) flags register write muxes whose
    select is constant in the fixpoint, leaving one write arm dead. *)

type gate = Off | Warn | Strict
(** How a pipeline stage consumes lint results: [Off] skips the
    analysis, [Warn] records diagnostics in the report, [Strict]
    additionally fails on any [Error]-severity finding. *)

val gate_name : gate -> string

type rule = {
  id : string;
  severity : Diag.severity;  (** Highest severity the rule can emit. *)
  doc : string;
  check : Netlist.Design.t -> Diag.t list;
      (** Precondition: {!well_formed} returned []. *)
}

val well_formed : Netlist.Design.t -> Diag.t list
(** Net-range and arity checks ([net-out-of-range], [bad-arity]) that
    every other rule's array indexing depends on.  Always safe to call. *)

val structural_rules : rule list
(** Every rule except the absint-backed dataflow rules ([ternary-const],
    [absint-stuck-reg], [absint-dead-write]) — the set the certificate
    audit diffs pre/post rewiring. *)

val all_rules : rule list

val run : ?rules:rule list -> Netlist.Design.t -> Diag.t list
(** [run d] = {!well_formed} findings if any, else the concatenation of
    each rule's findings (default {!all_rules}), in rule order. *)
