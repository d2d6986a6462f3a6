(** The buffer-management checker — Section 6: the four allocate/free
    rules, the spec's free/use/conditional-free routine tables, and the
    [has_buffer()]/[no_free_needed()] annotations (tracked so unused ones
    can be flagged). *)

val name : string
val metal_loc : int

type outcome = {
  diags : Diag.t list;
  useful_annotations : int;  (** Table 4's "useful" column *)
  unused_annotations : int;
}

val run_with_annotations : spec:Flash_api.spec -> Ast.tunit list -> outcome

val machine : spec:Flash_api.spec -> Engine.pmachine
(** the spec's machine, compiled and packed once per call: the product
    scan composes it and a dirty re-run checks it *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
val applied : Ast.tunit list -> int
