(** The send/wait pairing checker — Section 9: every send with [W_WAIT]
    is followed by the matching interface wait, with no second
    synchronous send in between. *)

val name : string
val metal_loc : int

val machine : spec:Flash_api.spec -> Engine.pmachine
(** the checker's one packed machine, a transition table with its exit
    hook: the product scan composes it and a dirty re-run checks it *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** synchronous sends plus interface waits — Table 6's Applied column *)
