(** The manual directory-entry update checker — Section 9: entries are
    loaded before use and written back after modification, with the
    speculative-NAK paths pruned and hand-computed entry addresses
    flagged as abstraction errors. *)

val name : string
val metal_loc : int

val machine : spec:Flash_api.spec -> Engine.pmachine
(** the spec's machine (NAK pruning on), compiled and packed once per
    call: the product scan composes it and a dirty re-run checks it *)

val run :
  ?nak_pruning:bool ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  Diag.t list
(** [~nak_pruning:false] disables the speculative-NAK pruning (ablation) *)

val applied : Ast.tunit list -> int
(** directory operations — Table 6's Applied column *)
