(** Prep — the shared per-function analysis cache.

    Every per-function client of a CFG (the nine checkers, the [Mcd]
    work units, [Paths], the fixer/optimizer) needs the same three
    derived artifacts: the graph itself, the flattened sub-expression
    event list of every node, and the loop structure.  Before this
    module each (checker x function) pairing rebuilt all three, so a
    nine-checker run paid for nine CFG constructions and nine event
    flattenings per function.  [Prep.build] computes them exactly once;
    a batched scheduler (or the fused sequential driver) builds one
    [Prep.t] per function and hands it to every checker.

    Two event views are precomputed because state machines differ in
    [observe_branches]: the observing view exposes branch/switch
    conditions as events, the non-observing view hides them.  Nodes
    whose events are identical in both views share the same physical
    array. *)

(** Structure-of-arrays view of the observing event stream: every event
    of every node, concatenated in node order into parallel int arrays
    allocated once per function.  The screening keys a dispatch loop
    needs (root tag, callee symbol, first-argument symbol, owning node,
    branch visibility) are dense ints read sequentially; [ev_expr] holds
    the expression itself for the rules that survive screening. *)
type soa = {
  ev_expr : Ast.expr array;  (** the event expression *)
  ev_class : int array;  (** root tag, [Ast.expr_tag] *)
  ev_callee : int array;
      (** callee symbol id for a direct call, [-1] otherwise *)
  ev_arg : int array;
      (** symbol id of a first plain-identifier argument, [-1] otherwise *)
  ev_node : int array;  (** owning CFG node id *)
  ev_flags : int array;
      (** bit 0: hidden from non-observing machines (branch/switch) *)
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
      (** the same with branch/switch conditions hidden *)
  soa : soa;
  n_edges : int;
  back_edges : (int * int) list;
  paths : Paths.stats Lazy.t;
}

let soa_hidden_bit = 1

(* Sub-expressions of [e] in evaluation (post-) order, including [e].
   This is the one flattening the engine replays; it lived in [Engine]
   before the prep cache existed (Engine re-exports it). *)
let subexprs_post (e : Ast.expr) : Ast.expr list =
  let acc = ref [] in
  let rec post e =
    (match e.Ast.edesc with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Ident _ | Ast.Sizeof_type _ ->
      ()
    | Ast.Call (f, args) ->
      post f;
      List.iter post args
    | Ast.Unop (_, a)
    | Ast.Cast (_, a)
    | Ast.Field (a, _)
    | Ast.Arrow (a, _)
    | Ast.Sizeof_expr a ->
      post a
    | Ast.Binop (_, a, b)
    | Ast.Assign (a, b)
    | Ast.Op_assign (_, a, b)
    | Ast.Index (a, b)
    | Ast.Comma (a, b) ->
      post a;
      post b
    | Ast.Cond (a, b, c) ->
      post a;
      post b;
      post c);
    acc := e :: !acc
  in
  post e;
  List.rev !acc

(* The expressions a CFG node exposes to a state machine. *)
let node_exprs ~observe_branches (node : Cfg.node) : Ast.expr list =
  match node.Cfg.kind with
  | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ } -> [ e ]
  | Cfg.Stmt { Ast.sdesc = Ast.Sdecl d; _ } -> (
    match d.Ast.v_init with Some e -> [ e ] | None -> [])
  | Cfg.Branch e | Cfg.Switch e -> if observe_branches then [ e ] else []
  | Cfg.Return (Some e) -> [ e ]
  | Cfg.Stmt _ | Cfg.Return None | Cfg.Entry | Cfg.Exit | Cfg.Join -> []

let flatten exprs =
  match exprs with
  | [] -> [||]
  | exprs -> Array.of_list (List.concat_map subexprs_post exprs)

let empty_events : Ast.expr array = [||]

(* Arena fill value.  It must be a module-level (hence quickly promoted,
   thereafter old-generation) block: [Array.make n v] with [n] beyond
   the young-block limit and a *young* [v] forces a full minor
   collection per call — with one arena per function that is a
   stop-the-world rendezvous per function, which serialises the Mcd
   domains.  A shared old block makes the allocation GC-silent. *)
let arena_init : Ast.expr = Ast.int_lit 0

let m_builds =
  Mcmetrics.counter ~help:"Prep.t builds (one per checked function)"
    "mcheck_prep_builds_total"

let build (func : Ast.func) : t =
  let cfg = Cfg.build func in
  let n = Array.length cfg.Cfg.nodes in
  let events_obs = Array.make n empty_events in
  let events_noobs = Array.make n empty_events in
  let n_edges = ref 0 in
  Array.iteri
    (fun i (node : Cfg.node) ->
      n_edges := !n_edges + List.length node.Cfg.succs;
      let obs = flatten (node_exprs ~observe_branches:true node) in
      events_obs.(i) <- obs;
      events_noobs.(i) <-
        (match node.Cfg.kind with
        | Cfg.Branch _ | Cfg.Switch _ -> empty_events
        | _ -> obs))
    cfg.Cfg.nodes;
  (* arena pass: one allocation per column for the whole function *)
  let total = Array.fold_left (fun a evs -> a + Array.length evs) 0 events_obs in
  let ev_expr = Array.make (max total 1) arena_init in
  let ev_class = Array.make total 0 in
  let ev_callee = Array.make total (-1) in
  let ev_arg = Array.make total (-1) in
  let ev_node = Array.make total 0 in
  let ev_flags = Array.make total 0 in
  let node_off = Array.make n 0 in
  let node_len = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun i (node : Cfg.node) ->
      let evs = events_obs.(i) in
      node_off.(i) <- !k;
      node_len.(i) <- Array.length evs;
      let hidden =
        match node.Cfg.kind with
        | Cfg.Branch _ | Cfg.Switch _ -> soa_hidden_bit
        | _ -> 0
      in
      Array.iter
        (fun (e : Ast.expr) ->
          let j = !k in
          ev_expr.(j) <- e;
          ev_class.(j) <- Ast.expr_tag e;
          (match e.Ast.edesc with
          | Ast.Call ({ Ast.edesc = Ast.Ident f; _ }, args) ->
            ev_callee.(j) <- Symtab.intern f;
            (match args with
            | { Ast.edesc = Ast.Ident a; _ } :: _ ->
              ev_arg.(j) <- Symtab.intern a
            | _ -> ())
          | _ -> ());
          ev_node.(j) <- i;
          ev_flags.(j) <- hidden;
          incr k)
        evs)
    cfg.Cfg.nodes;
  Mcmetrics.inc m_builds;
  {
    func;
    cfg;
    events_obs;
    events_noobs;
    soa =
      {
        ev_expr =
          (if total = 0 then [||] else ev_expr);
        ev_class;
        ev_callee;
        ev_arg;
        ev_node;
        ev_flags;
        node_off;
        node_len;
      };
    n_edges = !n_edges;
    back_edges = Cfg.back_edges cfg;
    paths = lazy (Paths.analyze cfg);
  }

let events (p : t) ~observe_branches : Ast.expr array array =
  if observe_branches then p.events_obs else p.events_noobs

let paths (p : t) : Paths.stats = Lazy.force p.paths
let n_nodes (p : t) : int = Array.length p.cfg.Cfg.nodes
let n_edges (p : t) : int = p.n_edges
