open Riq_isa

(** Reaching definitions over a {!Cfg.t}, the first {!Dataflow} client.

    A definition is an instruction whose {!Insn.dest} is some register;
    the pseudo-definition at pc [-1] models the machine's initial state
    (both simulators start with zeroed register files). The solve is a
    forward union-of-sets fixpoint, so facts flow around loop back edges:
    asking for the definitions of [r] reaching a loop-body pc returns
    defs from {e any} iteration, which is exactly what the bufferability
    window-invariance and induction checks need. *)

type t

val analyze : Cfg.t -> t

module IS : Set.S with type elt = int

module L : Dataflow.LATTICE with type fact = IS.t
(** The solver's lattice: sets of definition ids under union. [L.join a
    b] is [b] itself when [a] is a subset of it. *)

val entry_pc : int
(** The pseudo-pc ([-1]) of the initial-state definition of each register. *)

val defs_of : t -> pc:int -> Reg.t -> int list
(** Pcs (sorted ascending, possibly including {!entry_pc}) of the
    definitions of a register that reach the program point {e just
    before} executing [pc]. Empty when [pc] is outside the text
    segment. *)

val invariant_in : t -> head:int -> tail:int -> Reg.t -> bool
(** No definition of the register inside the byte-address window
    [[head, tail]] reaches the window head — i.e. the register is
    loop-invariant for a natural loop spanning that window. *)
