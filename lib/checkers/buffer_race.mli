(** The buffer fill-race checker — the paper's Figure 2, Section 4:
    [WAIT_FOR_DB_FULL] must precede [MISCBUS_READ_DB] on every path. *)

val name : string
val metal_loc : int
(** size of the paper's metal version (Table 7) *)

type state = Start

val sm : state Sm.t
(** the transliterated Figure 2 machine, reusable directly *)

val machine : spec:Flash_api.spec -> Engine.pmachine
(** [sm] packed once as a transition table: the product scan composes it
    and a dirty re-run checks it *)

val run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

val applied : Ast.tunit list -> int
(** number of data-buffer reads — Table 2's Applied column *)
