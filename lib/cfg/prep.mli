(** Prep — the shared per-function analysis cache.

    [build f] computes, exactly once per function, everything a
    per-function CFG client needs: the graph, each node's flattened
    sub-expression event array (in both the branch-observing and
    non-observing views), and the loop/path metadata.  The nine
    checkers, the [Mcd] function-batched work units, and the fused
    sequential driver all share one [t] per function instead of each
    rebuilding the CFG and re-deriving the event lists.

    Every [build] bumps the [mcheck_prep_builds_total] registry counter,
    which is how the test suite pins "built exactly once per function
    per run" down. *)

(** Structure-of-arrays view of the observing event stream: all events
    of all nodes concatenated in node order into parallel int arrays,
    allocated once per function.  A dispatch loop reads the dense
    screening keys sequentially and touches [ev_expr] only for the rules
    that survive screening. *)
type soa = {
  ev_expr : Ast.expr array;  (** the event expression *)
  ev_class : int array;  (** root tag, [Ast.expr_tag] *)
  ev_callee : int array;
      (** callee symbol id ([Symtab]) for a direct call, [-1] otherwise *)
  ev_arg : int array;
      (** symbol id of a first plain-identifier argument, [-1] otherwise *)
  ev_node : int array;  (** owning CFG node id *)
  ev_flags : int array;
      (** bit 0 ({!soa_hidden_bit}): hidden from non-observing machines *)
  node_off : int array;  (** per node: first event index *)
  node_len : int array;  (** per node: event count *)
}

type t = {
  func : Ast.func;
  cfg : Cfg.t;
  events_obs : Ast.expr array array;
      (** per node: sub-expressions in evaluation (post-) order,
          branch/switch conditions included *)
  events_noobs : Ast.expr array array;
      (** the same view with branch/switch conditions hidden — nodes
          identical in both views share the same physical array *)
  soa : soa;  (** flat SoA view of [events_obs] *)
  n_edges : int;
  back_edges : (int * int) list;  (** DFS back edges, one per loop *)
  paths : Paths.stats Lazy.t;  (** forced on first {!paths} call *)
}

val soa_hidden_bit : int
(** [ev_flags] bit marking branch/switch events, which non-observing
    machines must skip *)

val build : Ast.func -> t
(** @raise Cfg.Build_error on misplaced [break]/[continue]/[case] *)

val subexprs_post : Ast.expr -> Ast.expr list
(** sub-expressions in evaluation (post-) order, including the root —
    the event order state machines see *)

val events : t -> observe_branches:bool -> Ast.expr array array
(** the per-node event arrays in the requested view *)

val paths : t -> Paths.stats
(** exit-path statistics, computed once and cached *)

val n_nodes : t -> int
val n_edges : t -> int
