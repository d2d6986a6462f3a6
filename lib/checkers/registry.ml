(** The nine FLASH checkers, with the metadata Table 7 reports, behind
    the two-phase checker interface the [Mcd] scheduler drives. *)

type ctx = {
  all_units : Ast.tunit list;
  callgraph : Callgraph.t Lazy.t;
}

let make_ctx tus = { all_units = tus; callgraph = lazy (Callgraph.build tus) }

type check_fn = spec:Flash_api.spec -> ctx:ctx -> Prep.t -> Diag.t list
type check_global = spec:Flash_api.spec -> Ast.tunit list -> Diag.t list

type phase =
  | Per_function of {
      check_fn : check_fn;
      finalize : Diag.t list -> Diag.t list;
      product : spec:Flash_api.spec -> Engine.pmachine option;
    }
  | Whole_program of check_global

type checker = {
  name : string;
  description : string;
  metal_loc : int;
  phase : phase;
  run : spec:Flash_api.spec -> Ast.tunit list -> Diag.t list;
  applied : Ast.tunit list -> int;
}

let run_of_phase (phase : phase) : spec:Flash_api.spec -> Ast.tunit list ->
  Diag.t list =
  match phase with
  | Per_function { check_fn; finalize; _ } ->
    fun ~spec tus ->
      let ctx = make_ctx tus in
      let fn = check_fn ~spec ~ctx in
      finalize
        (List.concat_map
           (fun tu ->
             List.concat_map
               (fun f -> fn (Prep.build f))
               (Ast.functions tu))
           tus)
  | Whole_program g -> fun ~spec tus -> g ~spec tus

let make ~name ~description ~metal_loc ~phase ~applied =
  { name; description; metal_loc; phase; run = run_of_phase phase; applied }

(* A per-function checker over one packed machine, built once per spec:
   the kernel stages it once and both composes it into the product scan
   and re-runs it when dirty. *)
let machine_phase (machine : spec:Flash_api.spec -> Engine.pmachine) =
  Per_function
    {
      check_fn = (fun ~spec ~ctx:_ -> Engine.check_prep (machine ~spec));
      finalize = Fun.id;
      product = (fun ~spec -> Some (machine ~spec));
    }

(* A pure AST walker: nothing to compose, and its whole-program list is
   sorted globally.  The staged closure must not hold [ctx] (the whole
   program): schedulers may keep staged closures past the run. *)
let walker_phase (check : spec:Flash_api.spec -> Ast.func -> Diag.t list) =
  Per_function
    {
      check_fn =
        (fun ~spec ~ctx:_ ->
          let check = check ~spec in
          fun prep -> check prep.Prep.func);
      finalize = Diag.normalize;
      product = (fun ~spec:_ -> None);
    }

let all : checker list =
  [
    make ~name:Buffer_mgmt.name
      ~description:"buffer allocation/free discipline (Section 6)"
      ~metal_loc:Buffer_mgmt.metal_loc
      ~phase:(machine_phase Buffer_mgmt.machine)
      ~applied:Buffer_mgmt.applied;
    make ~name:Msg_length.name
      ~description:"message length vs has-data consistency (Section 5)"
      ~metal_loc:Msg_length.metal_loc
      ~phase:(machine_phase Msg_length.machine)
      ~applied:Msg_length.applied;
    make ~name:Lane_checker.name
      ~description:"per-lane send allowances, inter-procedural (Section 7)"
      ~metal_loc:Lane_checker.metal_loc
      ~phase:
        (Whole_program (fun ~spec tus -> Lane_checker.run ~spec tus))
      ~applied:Lane_checker.applied;
    make ~name:Buffer_race.name
      ~description:"data-buffer fill synchronisation (Section 4)"
      ~metal_loc:Buffer_race.metal_loc
      ~phase:(machine_phase Buffer_race.machine)
      ~applied:Buffer_race.applied;
    make ~name:Alloc_check.name
      ~description:"allocation failure checked before use (Section 9)"
      ~metal_loc:Alloc_check.metal_loc
      ~phase:(machine_phase Alloc_check.machine)
      ~applied:Alloc_check.applied;
    make ~name:Dir_entry.name
      ~description:"directory entry load/writeback discipline (Section 9)"
      ~metal_loc:Dir_entry.metal_loc
      ~phase:(machine_phase Dir_entry.machine)
      ~applied:Dir_entry.applied;
    make ~name:Send_wait.name
      ~description:"synchronous send/wait pairing (Section 9)"
      ~metal_loc:Send_wait.metal_loc
      ~phase:(machine_phase Send_wait.machine)
      ~applied:Send_wait.applied;
    make ~name:Exec_restrict.name
      ~description:"handler execution restrictions and hooks (Section 8)"
      ~metal_loc:Exec_restrict.metal_loc
      ~phase:(walker_phase Exec_restrict.check_func)
      ~applied:Exec_restrict.applied;
    make ~name:No_float.name
      ~description:"no floating point in protocol code (Section 8)"
      ~metal_loc:No_float.metal_loc
      ~phase:(walker_phase (fun ~spec:_ -> No_float.check_func))
      ~applied:No_float.applied;
  ]

let find name = List.find_opt (fun c -> String.equal c.name name) all

let names = List.map (fun c -> c.name) all

(** Run every checker on one protocol. *)
let run_all ~spec (tus : Ast.tunit list) : (string * Diag.t list) list =
  List.map (fun c -> (c.name, c.run ~spec tus)) all

(* ------------------------------------------------------------------ *)
(* Machine-backed checkers                                             *)
(* ------------------------------------------------------------------ *)

(* A checker over one spec-independent machine: what a loaded metal
   extension becomes, so it runs through the same kernel as the nine. *)
let of_machine (m : Engine.pmachine) =
  make ~name:(Engine.machine_name m) ~description:"metal extension"
    ~metal_loc:0
    ~phase:(machine_phase (fun ~spec:_ -> m))
    ~applied:(fun tus ->
      List.fold_left (fun n tu -> n + List.length (Ast.functions tu)) 0 tus)

(* ------------------------------------------------------------------ *)
(* The checking kernel                                                 *)
(* ------------------------------------------------------------------ *)

(* the per-function checkers in list order, and their packed machines
   with machine-less checkers skipped: [machines.(m)] belongs to
   [fns.(machine_of.(m))] *)
type staged = {
  fns : (string * (Prep.t -> Diag.t list)) array;
  machines : Engine.pmachine array;
  machine_of : int array;
}

let stage checkers ~spec ctx =
  let pfs =
    List.filter_map
      (fun c ->
        match c.phase with
        | Per_function { check_fn; product; _ } ->
          (* a machine checker's re-run checks the very machine the scan
             composes, staged once *)
          let m = product ~spec in
          let fn =
            match m with
            | Some m -> Engine.check_prep m
            | None -> check_fn ~spec ~ctx
          in
          Some (c.name, fn, m)
        | Whole_program _ -> None)
      checkers
  in
  let packed =
    List.concat
      (List.mapi
         (fun k (_, _, m) -> match m with Some m -> [ (k, m) ] | None -> [])
         pfs)
  in
  {
    fns = Array.of_list (List.map (fun (name, fn, _) -> (name, fn)) pfs);
    machines = Array.of_list (List.map snd packed);
    machine_of = Array.of_list (List.map fst packed);
  }

let m_checker_faults =
  Mcmetrics.counter ~help:"checker runs ended by the fault barrier"
    "mcheck_checker_faults_total"

let fault ~loc ~func fmt =
  Printf.ksprintf
    (fun msg ->
      Mcmetrics.inc m_checker_faults;
      Diag.make ~severity:Diag.Warning ~checker:"internal" ~loc ~func msg)
    fmt

(* The fault barrier: [run] under the budget; an exception (checker bug,
   injected fault, exhausted budget) becomes an ["internal"] diagnostic
   plus a degraded flow-insensitive retry. *)
let barrier ~guard ~budget ~loc ~func ~what faults run =
  if not guard then Engine.with_budget budget run
  else
    match Engine.with_budget budget run with
    | r -> r
    | exception exn ->
      faults :=
        fault ~loc ~func
          "%s failed (%s); a degraded flow-insensitive pass was substituted"
          what (Engine.describe_fault exn)
        :: !faults;
      (try Engine.with_degraded run with _ -> [])

let check_function ?(guard = true) ?(budget = Engine.no_budget) ~scan st
    (f : Ast.func) =
  let out = Array.make (Array.length st.fns) [] in
  let faults = ref [] in
  (match Prep.build f with
  | exception exn when guard ->
    faults :=
      [
        fault ~loc:f.Ast.f_loc ~func:f.Ast.f_name
          "function could not be prepared (%s); all checkers skipped for \
           this function"
          (Engine.describe_fault exn);
      ]
  | prep ->
    (* the scan only detects: a clean machine's slice is [] by
       construction, a dirty one re-runs below.  Containment keeps its
       exact per-checker semantics by skipping the scan, and a scan that
       overflows or crashes re-runs everything — the barrier then
       reproduces and contains any real crash. *)
    let rerun = Array.make (Array.length st.fns) true in
    if
      scan
      && Array.length st.machines > 0
      && budget = Engine.no_budget
      && not (Engine.containment_active ())
    then (
      match Engine.product_scan prep st.machines with
      | dirty -> Array.iteri (fun m k -> rerun.(k) <- dirty.(m)) st.machine_of
      | exception _ -> ());
    Array.iteri
      (fun k (name, fn) ->
        if rerun.(k) then
          out.(k) <-
            barrier ~guard ~budget ~loc:f.Ast.f_loc ~func:f.Ast.f_name
              ~what:("checker " ^ name) faults (fun () -> fn prep))
      st.fns);
  (out, List.rev !faults)

let check_program ?(guard = true) ?(budget = Engine.no_budget) ~spec tus c =
  match c.phase with
  | Per_function _ ->
    invalid_arg "Registry.check_program: per-function checker"
  | Whole_program g ->
    let faults = ref [] in
    let slice =
      barrier ~guard ~budget ~loc:Loc.none ~func:"<whole-program>"
        ~what:("whole-program checker " ^ c.name) faults (fun () ->
          g ~spec tus)
    in
    (slice, !faults)

let assemble checkers ~per_function ~whole_program ~faults =
  let k = ref 0 and w = ref 0 in
  let next r =
    let i = !r in
    incr r;
    i
  in
  let entries =
    List.map
      (fun c ->
        match c.phase with
        | Per_function { finalize; _ } ->
          ( c.name,
            finalize (List.concat (List.rev per_function.(next k))) )
        | Whole_program _ -> (c.name, whole_program.(next w)))
      checkers
  in
  match faults with
  | [] -> entries
  | fs -> entries @ [ ("internal", Diag.normalize fs) ]

let run_checkers ?guard ~scan checkers ~spec tus =
  let st = stage checkers ~spec (make_ctx tus) in
  let per_function = Array.make (Array.length st.fns) [] in
  let faults = ref [] in
  List.iter
    (fun tu ->
      List.iter
        (fun f ->
          let slices, fs = check_function ?guard ~scan st f in
          Array.iteri
            (fun k s -> per_function.(k) <- s :: per_function.(k))
            slices;
          faults := List.rev_append fs !faults)
        (Ast.functions tu))
    tus;
  let whole_program =
    List.filter_map
      (fun c ->
        match c.phase with
        | Per_function _ -> None
        | Whole_program _ ->
          let slice, fs = check_program ?guard ~spec tus c in
          faults := List.rev_append fs !faults;
          Some slice)
      checkers
  in
  assemble checkers ~per_function
    ~whole_program:(Array.of_list whole_program)
    ~faults:!faults

let run_all_fused ?guard ~spec tus =
  run_checkers ?guard ~scan:false all ~spec tus

let run_all_product ?guard ~spec tus =
  run_checkers ?guard ~scan:true all ~spec tus
