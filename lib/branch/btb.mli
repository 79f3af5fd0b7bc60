(** Branch target buffer: a set-associative store of taken-branch targets
    (Table 1: 512 sets, 4-way). LRU replacement. *)

type t

val create : sets:int -> ways:int -> t

val lookup : t -> pc:int -> int option
(** Predicted target for the control instruction at [pc], updating LRU. *)

val lookup_target : t -> pc:int -> int
(** Allocation-free {!lookup}: the predicted target, or -1 on a miss. *)

val update : t -> pc:int -> target:int -> unit
(** Record (or refresh) the taken target. *)

val lookups : t -> int
val hits : t -> int
val updates : t -> int

(** {2 Fast-forward snapshot support} (see [Riq_core.Processor]) *)

val version : t -> int
(** Content version: monotonic, bumped exactly when some entry's
    tag/target/valid changes (refreshing a hit with an identical target
    is a no-op). Equal readings prove the stored targets did not change
    in between. *)

val ffwd_affine_len : t -> int
(** Length of the {!ffwd_affine} block. *)

val ffwd_affine : t -> int array -> pos:int -> unit
(** Write the clock, access counters and per-entry LRU stamps — values
    that advance by a constant stride per steady-state iteration — into
    [a.(pos)] onwards ({!ffwd_affine_len} words). *)

val ffwd_set_affine : t -> int array -> pos:int -> unit
(** Restore what {!ffwd_affine} wrote at [pos]. *)
