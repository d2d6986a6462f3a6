(** The buffer-allocation failure checker — Section 9: every
    [ALLOCATE_DB()] must be checked with [ALLOC_FAILED] before the buffer
    is used. *)

val name : string
val metal_loc : int

val machine : spec:Flash_api.spec -> Engine.pmachine
(** the checker's one packed machine: the product scan composes it and
    a dirty re-run checks it *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** allocation sites — Table 6's Applied column *)
