(** The message-length/data-flag consistency checker — Figure 3,
    Section 5: data sends need a non-zero length field, no-data sends a
    zero one; the last assignment on the path decides. *)

val name : string
val metal_loc : int

type state = Unknown | Zero_len | Nonzero_len

val sm : state Sm.t

val machine : spec:Flash_api.spec -> Engine.pmachine
(** [sm] packed once as a transition table: the product scan composes it
    and a dirty re-run checks it *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** number of sends — Table 3's Applied column *)
