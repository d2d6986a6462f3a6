(** The nine FLASH checkers, with the metadata Table 7 reports.

    Checkers expose a two-phase interface so a scheduler (the [Mcd]
    daemon core) can dispatch *(checker x function)* work units:

    - intra-procedural checkers provide a per-function phase
      [check_fn : spec -> ctx -> Prep.t -> Diag.t list] whose results,
      concatenated in source order and passed through the checker's
      [finalize], are exactly what the whole-program [run] produces;
    - inter-procedural checkers ([lanes]) provide a whole-program phase
      [check_global : spec -> tunits -> Diag.t list].

    The derived [run] field keeps the original one-shot signature working
    for every caller. *)

type ctx = {
  all_units : Ast.tunit list;  (** the whole program being checked *)
  callgraph : Callgraph.t Lazy.t;
      (** forced on demand; schedulers that share a [ctx] across domains
          must force it before spawning *)
}

val make_ctx : Ast.tunit list -> ctx

type check_fn = spec:Flash_api.spec -> ctx:ctx -> Prep.t -> Diag.t list
(** Partial application [check_fn ~spec ~ctx] stages any spec-dependent
    setup (pattern compilation, state-machine construction) so the
    returned closure can be applied to many prepared functions cheaply.
    The per-function analysis (CFG, event arrays) comes in via {!Prep.t}
    so a driver running several checkers over one function builds it
    once.  The closure must not be shared across domains. *)

type check_global = spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

type phase =
  | Per_function of {
      check_fn : check_fn;
      finalize : Diag.t list -> Diag.t list;
          (** applied to the in-order concatenation of per-function
              results; [Fun.id] for most checkers, [Diag.normalize] for
              the ones that historically sorted globally *)
      product : spec:Flash_api.spec -> Engine.pmachine option;
          (** the checker's one packed machine; [None] for pure AST
              walkers.  A machine checker's [check_fn] is
              {!Engine.check_prep} over it, and the kernel stages the
              machine once for both the product scan and the re-runs *)
    }
  | Whole_program of check_global

type checker = {
  name : string;
  description : string;
  metal_loc : int;  (** size of the paper's metal extension (Table 7) *)
  phase : phase;
  run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list;
      (** derived from [phase]; the backward-compatible one-shot entry *)
  applied : Ast.tunit list -> int;
      (** the "number of times the check was applied" metric *)
}

val run_of_phase :
  phase -> spec:Flash_api.spec -> Ast.tunit list -> Diag.t list
(** the derivation used for the [run] field: stage, map over every
    function in source order, finalize (or delegate to the global
    phase) *)

val all : checker list
val find : string -> checker option
val names : string list
val run_all : spec:Flash_api.spec -> Ast.tunit list -> (string * Diag.t list) list

(** {2 Machine-backed checkers} *)

val of_machine : Engine.pmachine -> checker
(** lift one spec-independent packed machine (a compiled metal
    extension, or a generic {!Engine.pack}ed one) into a per-function
    checker named after it *)

(** {2 The checking kernel}

    Every driver — the sequential ones below, the [Mcd] pool's units and
    loaded metal extensions — checks a function through
    {!check_function} and a whole-program checker through
    {!check_program}, then puts the pieces together with {!assemble}.

    A contained failure (an exception, an injected fault, an exhausted
    budget) becomes a Warning-severity ["internal"] diagnostic returned
    beside the slices, plus a degraded flow-insensitive retry of the
    failed checker; a function whose {!Prep.t} cannot be built gets one
    fault and empty slices.  On the clean path the barrier changes
    nothing.  [guard] (default [true]) turns the barrier off, which only
    the overhead benchmark does. *)

type staged
(** a checker list staged for one (spec, ctx): the per-function
    closures and the packed product machines, built once.  Like the
    closures inside it, a [staged] must not be shared across domains. *)

val stage : checker list -> spec:Flash_api.spec -> ctx -> staged

val check_function :
  ?guard:bool ->
  ?budget:Engine.budget ->
  scan:bool ->
  staged ->
  Ast.func ->
  Diag.t list array * Diag.t list
(** check one function: its slice for each per-function checker (list
    order) and the faults.  With [scan], one {!Engine.product_scan} walk
    decides which machines re-run; clean machines' slices are [] by
    construction.  The scan is skipped under a [budget] or when
    {!Engine.containment_active}, and a scan that overflows or crashes
    re-runs every checker, so the slices never depend on [scan]. *)

val check_program :
  ?guard:bool ->
  ?budget:Engine.budget ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  checker ->
  Diag.t list * Diag.t list
(** run one whole-program checker behind the barrier: its slice and
    the faults.  @raise Invalid_argument on a per-function checker *)

val assemble :
  checker list ->
  per_function:Diag.t list list array ->
  whole_program:Diag.t list array ->
  faults:Diag.t list ->
  (string * Diag.t list) list
(** the [(name, diags)] list in checker order: [per_function.(k)] holds
    the k-th per-function checker's slices newest first (it is reversed,
    concatenated and finalized), [whole_program.(w)] the w-th
    whole-program checker's slice.  Non-empty [faults] append one
    [("internal", _)] entry. *)

val run_checkers :
  ?guard:bool ->
  scan:bool ->
  checker list ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** the sequential driver: stage, check every function in source order,
    run the whole-program checkers, assemble *)

val run_all_fused :
  ?guard:bool ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** [run_checkers ~scan:false all]: every checker re-runs on every
    function over one shared {!Prep.t} — the per-checker yardstick the
    engine bench and the oracles hold the product driver to.  Output is
    exactly [run_all]'s. *)

val run_all_product :
  ?guard:bool ->
  spec:Flash_api.spec ->
  Ast.tunit list ->
  (string * Diag.t list) list
(** [run_checkers ~scan:true all]: the production sequential driver.
    Output — witnesses included — is byte-identical to
    [run_all_fused]. *)
