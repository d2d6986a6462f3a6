(** The no-floating-point checker — the paper's separate 7-line extension
    (Table 7): the protocol processor has no FPU. *)

val name : string
val metal_loc : int
val check_func : Ast.func -> Diag.t list
(** check one function by walking its AST — results are unnormalized;
    the registry's finalizer sorts and deduplicates the whole-program
    list *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
val applied : Ast.tunit list -> int
