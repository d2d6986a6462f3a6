(** Prep — the shared per-function analysis cache.

    Every per-function client of a CFG (the nine checkers, the [Mcd]
    work units, [Paths], the fixer/optimizer) needs the same three
    derived artifacts: the graph itself, the flattened sub-expression
    event stream of every node, and the loop structure.  Before this
    module each (checker x function) pairing rebuilt all three, so a
    nine-checker run paid for nine CFG constructions and nine event
    flattenings per function.  [Prep.build] computes them exactly once;
    a batched scheduler (or the fused sequential driver) builds one
    [Prep.t] per function and hands it to every checker.

    The event stream has one form, the structure-of-arrays arena below.
    State machines differ in [observe_branches]: a non-observing machine
    skips the events flagged {!soa_hidden_bit} (branch/switch
    conditions). *)

(** The event stream as a structure of arrays: every event of every
    node, branch/switch conditions included, concatenated in node order
    into parallel arrays allocated once per function.  The screening keys a dispatch loop
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
  soa : soa;
  n_edges : int;
  back_edges : (int * int) list;
  paths : Paths.stats Lazy.t;
}

let soa_hidden_bit = 1

(* Sub-expressions of [e] in evaluation (post-) order, including [e]:
   the one flattening the engine replays. *)
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

(* The expressions a CFG node exposes to a state machine; branch/switch
   conditions are flagged hidden in the arena. *)
let node_exprs (node : Cfg.node) : Ast.expr list =
  match node.Cfg.kind with
  | Cfg.Stmt { Ast.sdesc = Ast.Sexpr e; _ } -> [ e ]
  | Cfg.Stmt { Ast.sdesc = Ast.Sdecl d; _ } -> (
    match d.Ast.v_init with Some e -> [ e ] | None -> [])
  | Cfg.Branch e | Cfg.Switch e -> [ e ]
  | Cfg.Return (Some e) -> [ e ]
  | Cfg.Stmt _ | Cfg.Return None | Cfg.Entry | Cfg.Exit | Cfg.Join -> []

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
  let per_node =
    Array.map
      (fun (node : Cfg.node) ->
        List.concat_map subexprs_post (node_exprs node))
      cfg.Cfg.nodes
  in
  let n_edges =
    Array.fold_left (fun a (node : Cfg.node) -> a + List.length node.Cfg.succs)
      0 cfg.Cfg.nodes
  in
  (* one allocation per column for the whole function *)
  let total = Array.fold_left (fun a evs -> a + List.length evs) 0 per_node in
  let ev_expr = Array.make total arena_init in
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
      node_off.(i) <- !k;
      let hidden =
        match node.Cfg.kind with
        | Cfg.Branch _ | Cfg.Switch _ -> soa_hidden_bit
        | _ -> 0
      in
      List.iter
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
        per_node.(i);
      node_len.(i) <- !k - node_off.(i))
    cfg.Cfg.nodes;
  Mcmetrics.inc m_builds;
  {
    func;
    cfg;
    soa =
      {
        ev_expr;
        ev_class;
        ev_callee;
        ev_arg;
        ev_node;
        ev_flags;
        node_off;
        node_len;
      };
    n_edges;
    back_edges = Cfg.back_edges cfg;
    paths = lazy (Paths.analyze cfg);
  }

let paths (p : t) : Paths.stats = Lazy.force p.paths
let n_nodes (p : t) : int = Array.length p.cfg.Cfg.nodes
let n_edges (p : t) : int = p.n_edges
