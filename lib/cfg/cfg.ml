(** Control-flow graphs for Clite functions.

    Each node holds at most one simple statement or branch condition, so the
    metal engine can replay the exact source events along any path.  The
    builder handles the full Clite statement language: structured control
    flow, [switch] with fall-through, [break]/[continue], labels and
    [goto]. *)



type kind =
  | Entry
  | Exit
  | Stmt of Ast.stmt  (** expression/decl/null/label statements *)
  | Branch of Ast.expr  (** out-edges labelled [True]/[False] *)
  | Switch of Ast.expr  (** out-edges labelled [Case]/[Default_case] *)
  | Return of Ast.expr option
  | Join  (** synthetic no-op anchor (loop heads, case labels) *)

type edge_label = Seq | True | False | Case of Ast.expr | Default_case

type node = {
  id : int;
  kind : kind;
  loc : Loc.t;
  mutable succs : (edge_label * int) list;
  mutable preds : int list;
}

type t = {
  func : Ast.func;
  nodes : node array;
  entry : int;
  exit : int;
}

exception Build_error of string

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable by_id : node array;  (** the first [count] are built *)
  mutable count : int;
  labels : (string, int) Hashtbl.t;
  mutable pending_gotos : (string * int) list;  (** label, goto node id *)
}

(* filler for the unbuilt tail of [builder.by_id]; never linked *)
let no_node = { id = -1; kind = Join; loc = Loc.none; succs = []; preds = [] }

let fresh b kind loc =
  let n = { id = b.count; kind; loc; succs = []; preds = [] } in
  if b.count = Array.length b.by_id then begin
    let bigger = Array.make (2 * b.count) no_node in
    Array.blit b.by_id 0 bigger 0 b.count;
    b.by_id <- bigger
  end;
  b.by_id.(b.count) <- n;
  b.count <- b.count + 1;
  n

let find_node b id = b.by_id.(id)

(* Edges are prepended while building and every list is reversed once in
   [build], so a node with many predecessors (the exit of a deep [if]
   nest) costs linear time, not quadratic. *)
let link b ~from ~label ~target =
  let src = find_node b from in
  src.succs <- (label, target) :: src.succs;
  let dst = find_node b target in
  dst.preds <- from :: dst.preds

(* A frontier is the sequence of dangling out-edges waiting for the next
   node, kept catenable so that joining the arms of an [if] is O(1)
   however deep the nesting.  Its order is the order edges get linked
   in, which fixes every [succs]/[preds] order and hence DFS order. *)
type frontier =
  | Nil
  | Edge of int * edge_label
  | Cat of frontier * frontier

let ( ++ ) a b =
  match (a, b) with Nil, f | f, Nil -> f | _ -> Cat (a, b)

let rec connect b (frontier : frontier) (target : int) =
  match frontier with
  | Nil -> ()
  | Edge (from, label) -> link b ~from ~label ~target
  | Cat (x, y) ->
    connect b x target;
    connect b y target

type loop_ctx = {
  break_acc : frontier ref option;  (** where [break] edges accumulate *)
  continue_target : int option;
}

let no_ctx = { break_acc = None; continue_target = None }

(* Switch construction state: the switch node itself (case edges are added
   as case labels are found) and whether a default label was seen. *)
type switch_ctx = { switch_node : int; mutable saw_default : bool }

let rec build_stmt b (ctx : loop_ctx) (sw : switch_ctx option)
    (frontier : frontier) (s : Ast.stmt) : frontier =
  match s.Ast.sdesc with
  | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Snull | Ast.Slabel _ ->
    let n = fresh b (Stmt s) s.Ast.sloc in
    connect b frontier n.id;
    (match s.Ast.sdesc with
    | Ast.Slabel name ->
      Hashtbl.replace b.labels name n.id;
      (* resolve any forward gotos now *)
      let resolved, pending =
        List.partition (fun (l, _) -> String.equal l name) b.pending_gotos
      in
      b.pending_gotos <- pending;
      List.iter
        (fun (_, goto_id) -> link b ~from:goto_id ~label:Seq ~target:n.id)
        resolved
    | _ -> ());
    Edge (n.id, Seq)
  | Ast.Sblock body -> build_stmts b ctx sw frontier body
  | Ast.Sif (cond, then_s, else_s) -> (
    let n = fresh b (Branch cond) s.Ast.sloc in
    connect b frontier n.id;
    let after_then = build_stmt b ctx sw (Edge (n.id, True)) then_s in
    match else_s with
    | Some e -> after_then ++ build_stmt b ctx sw (Edge (n.id, False)) e
    | None -> after_then ++ Edge (n.id, False))
  | Ast.Swhile (cond, body) ->
    let head = fresh b (Branch cond) s.Ast.sloc in
    connect b frontier head.id;
    let break_acc = ref Nil in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some head.id }
    in
    let after_body = build_stmt b ctx' sw (Edge (head.id, True)) body in
    connect b after_body head.id;
    Edge (head.id, False) ++ !break_acc
  | Ast.Sdo (body, cond) ->
    let anchor = fresh b Join s.Ast.sloc in
    connect b frontier anchor.id;
    let tail = fresh b (Branch cond) s.Ast.sloc in
    let break_acc = ref Nil in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some tail.id }
    in
    let after_body = build_stmt b ctx' sw (Edge (anchor.id, Seq)) body in
    connect b after_body tail.id;
    link b ~from:tail.id ~label:True ~target:anchor.id;
    Edge (tail.id, False) ++ !break_acc
  | Ast.Sfor (init, cond, step, body) ->
    let frontier =
      match init with
      | Some (Ast.Fi_expr e) ->
        let n =
          fresh b (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sexpr e))) s.Ast.sloc
        in
        connect b frontier n.id;
        Edge (n.id, Seq)
      | Some (Ast.Fi_decl d) ->
        let n =
          fresh b (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sdecl d))) s.Ast.sloc
        in
        connect b frontier n.id;
        Edge (n.id, Seq)
      | None -> frontier
    in
    let head, loop_exit_frontier =
      match cond with
      | Some c ->
        let h = fresh b (Branch c) s.Ast.sloc in
        (h, Edge (h.id, False))
      | None ->
        let h = fresh b Join s.Ast.sloc in
        (h, Nil)
    in
    connect b frontier head.id;
    let body_entry_label =
      match head.kind with Branch _ -> True | _ -> Seq
    in
    (* continue in a for loop goes to the step expression, or the head *)
    let step_node =
      match step with
      | Some e ->
        Some
          (fresh b
             (Stmt (Ast.mk_stmt ~loc:s.Ast.sloc (Ast.Sexpr e)))
             s.Ast.sloc)
      | None -> None
    in
    let continue_target =
      match step_node with Some n -> n.id | None -> head.id
    in
    let break_acc = ref Nil in
    let ctx' =
      { break_acc = Some break_acc; continue_target = Some continue_target }
    in
    let after_body =
      build_stmt b ctx' sw (Edge (head.id, body_entry_label)) body
    in
    (match step_node with
    | Some n ->
      connect b after_body n.id;
      link b ~from:n.id ~label:Seq ~target:head.id
    | None -> connect b after_body head.id);
    loop_exit_frontier ++ !break_acc
  | Ast.Sswitch (scrutinee, body) ->
    let n = fresh b (Switch scrutinee) s.Ast.sloc in
    connect b frontier n.id;
    let break_acc = ref Nil in
    let ctx' =
      { break_acc = Some break_acc; continue_target = ctx.continue_target }
    in
    let sw_ctx = { switch_node = n.id; saw_default = false } in
    (* the switch body starts unreachable except through case labels *)
    let after_body = build_stmt b ctx' (Some sw_ctx) Nil body in
    let fallthrough =
      if sw_ctx.saw_default then Nil else Edge (n.id, Default_case)
    in
    after_body ++ !break_acc ++ fallthrough
  | Ast.Scase e ->
    let n = fresh b Join s.Ast.sloc in
    connect b frontier n.id;
    (match sw with
    | Some sw_ctx ->
      link b ~from:sw_ctx.switch_node ~label:(Case e) ~target:n.id
    | None -> raise (Build_error "case label outside switch"));
    Edge (n.id, Seq)
  | Ast.Sdefault ->
    let n = fresh b Join s.Ast.sloc in
    connect b frontier n.id;
    (match sw with
    | Some sw_ctx ->
      sw_ctx.saw_default <- true;
      link b ~from:sw_ctx.switch_node ~label:Default_case ~target:n.id
    | None -> raise (Build_error "default label outside switch"));
    Edge (n.id, Seq)
  | Ast.Sreturn e ->
    let n = fresh b (Return e) s.Ast.sloc in
    connect b frontier n.id;
    Nil (* edges to exit are added in [build] *)
  | Ast.Sbreak -> (
    match ctx.break_acc with
    | Some acc ->
      acc := !acc ++ frontier;
      Nil
    | None -> raise (Build_error "break outside loop or switch"))
  | Ast.Scontinue -> (
    match ctx.continue_target with
    | Some target ->
      connect b frontier target;
      Nil
    | None -> raise (Build_error "continue outside loop"))
  | Ast.Sgoto label -> (
    let n = fresh b (Stmt s) s.Ast.sloc in
    connect b frontier n.id;
    match Hashtbl.find_opt b.labels label with
    | Some target ->
      link b ~from:n.id ~label:Seq ~target;
      Nil
    | None ->
      b.pending_gotos <- (label, n.id) :: b.pending_gotos;
      Nil)

and build_stmts b ctx sw frontier = function
  | [] -> frontier
  | s :: rest -> build_stmts b ctx sw (build_stmt b ctx sw frontier s) rest

(** Build the CFG for a function. *)
let build (f : Ast.func) : t =
  let b =
    {
      by_id = Array.make 64 no_node;
      count = 0;
      labels = Hashtbl.create 8;
      pending_gotos = [];
    }
  in
  let entry = fresh b Entry f.Ast.f_loc in
  let frontier = build_stmts b no_ctx None (Edge (entry.id, Seq)) f.Ast.f_body in
  let exit = fresh b Exit f.Ast.f_end_loc in
  connect b frontier exit.id;
  (* every return node flows to exit, the latest first *)
  for id = b.count - 1 downto 0 do
    match b.by_id.(id).kind with
    | Return _ -> link b ~from:id ~label:Seq ~target:exit.id
    | _ -> ()
  done;
  (* unresolved gotos (target label missing) dead-end at exit *)
  List.iter
    (fun (_, goto_id) -> link b ~from:goto_id ~label:Seq ~target:exit.id)
    b.pending_gotos;
  let nodes = Array.sub b.by_id 0 b.count in
  Array.iter
    (fun n ->
      n.succs <- List.rev n.succs;
      n.preds <- List.rev n.preds)
    nodes;
  { func = f; nodes; entry = entry.id; exit = exit.id }

(* ------------------------------------------------------------------ *)
(* Accessors and utilities                                             *)
(* ------------------------------------------------------------------ *)

let node t id = t.nodes.(id)
let n_nodes t = Array.length t.nodes
let succs t id = (node t id).succs
let preds t id = (node t id).preds

(** Nodes reachable from entry, in preorder. *)
let reachable t : int list =
  let seen = Array.make (n_nodes t) false in
  let order = ref [] in
  let rec go id =
    if not seen.(id) then begin
      seen.(id) <- true;
      order := id :: !order;
      List.iter (fun (_, s) -> go s) (succs t id)
    end
  in
  go t.entry;
  List.rev !order

(** Back edges (from, to) discovered by DFS from entry — each closes a
    source-level loop. *)
let back_edges t : (int * int) list =
  let state = Array.make (n_nodes t) `White in
  let backs = ref [] in
  let rec go id =
    state.(id) <- `Grey;
    List.iter
      (fun (_, s) ->
        match state.(s) with
        | `White -> go s
        | `Grey -> backs := (id, s) :: !backs
        | `Black -> ())
      (succs t id);
    state.(id) <- `Black
  in
  go t.entry;
  !backs

(** The statements replayed when visiting a node, for diagnostics. *)
let describe_kind = function
  | Entry -> "<entry>"
  | Exit -> "<exit>"
  | Join -> "<join>"
  | Stmt s -> Pp.stmt_to_string s
  | Branch e -> Printf.sprintf "branch (%s)" (Pp.expr_to_string e)
  | Switch e -> Printf.sprintf "switch (%s)" (Pp.expr_to_string e)
  | Return (Some e) -> Printf.sprintf "return %s" (Pp.expr_to_string e)
  | Return None -> "return"
