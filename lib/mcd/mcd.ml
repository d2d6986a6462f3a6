(** Mcd — the meta-checking daemon core.

    Schedules function-batched work units across OCaml 5 domains and
    caches unit results by content hash, so a corpus re-check after
    editing one handler only re-runs the affected units.

    {2 Scheduling model}

    The two-phase checker API ({!Registry.phase}) is what makes the unit
    decomposition sound: every intra-procedural checker runs its state
    machine over one function CFG at a time with no shared state.  A work
    unit is one *function batch* — one {!Registry.check_function} call:
    all per-function checkers run over one shared {!Prep.t}, behind the
    product scan and the kernel's fault barrier, so the CFG and event
    arrays are built once per function per run instead of once per
    (checker x function) pair — and a unit is big enough that scheduling
    overhead cannot dominate it.  A [Whole_program] checker ([lanes])
    contributes a single unit of its own ({!Registry.check_program}).
    Units are claimed in chunks from an {!Mcd_pool} atomic cursor by
    worker domains, and every unit writes into a pre-assigned result
    slot; reassembly walks the slots in the canonical (job, function)
    order and hands the slices to {!Registry.assemble}, so the output is
    diagnostic-for-diagnostic identical — including order — to the
    sequential [Registry.run_all], whatever the domain count.

    {2 Hashing and invalidation}

    A function batch's cache key is
    [fnbatch @ digest(per-function checker set) @ digest(spec)
     @ digest(file:loc:pretty-printed AST)].  The key covers everything
    the result depends on, so invalidation is automatic: editing a
    function changes its digest and the unit misses; every untouched
    function hits.  A whole-program unit's key replaces the function
    digest with a digest of the checker's *dependency set* — the
    callgraph closure reachable from the spec's handlers — so an edit
    anywhere in that closure (equivalently: any function whose
    reverse-dependency closure meets a handler) re-runs the
    inter-procedural checker, and an edit to dead code does not. *)

type job = { spec : Flash_api.spec; tus : Ast.tunit list }

type stats = {
  units_total : int;
  units_run : int;  (** units actually executed (= cache misses) *)
  cache_hits : int;
  units_faulted : int;
      (** units where at least one checker crashed or blew its budget
          and a degraded result was substituted *)
  workers_crashed : int;  (** pool workers whose claim loop died *)
  domains : int;
  workers : Mcd_pool.worker_stats array;
      (** per-domain pool statistics, themselves derived from the
          domains' [mcd.worker] Mcobs spans *)
  wall_ms : float;
}

let checkers = Registry.all

let is_per_function (c : Registry.checker) =
  match c.Registry.phase with
  | Registry.Per_function _ -> true
  | Registry.Whole_program _ -> false

let n_pf = List.length (List.filter is_per_function checkers)

(* the whole-program checkers, registry order: one unit each *)
let wholes =
  Array.of_list (List.filter (fun c -> not (is_per_function c)) checkers)

(* the checker-set half of every batch key: a batch result is only
   reusable by a run scheduling the same per-function checkers in the
   same order *)
let pf_set_digest : string =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.filter_map
             (fun (c : Registry.checker) ->
               if is_per_function c then Some c.Registry.name else None)
             checkers)))

let spec_digest (spec : Flash_api.spec) : string =
  Digest.to_hex (Digest.string (Marshal.to_string spec []))

(* [file] and the function's own location are part of the key: two
   textually identical functions in different places must not share
   diagnostics, whose locations differ.  (Inner locations that shift
   while the function text *and* its start location stay identical are
   not covered — post-cpp text, the paper's input, cannot do that.) *)
let func_digest (file : string) (f : Ast.func) : string =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s:%d:%d:%s" file f.Ast.f_loc.Loc.line
          f.Ast.f_loc.Loc.col
          (Format.asprintf "%a" Pp.pp_func f)))

type prepared = {
  p_job : job;
  p_ctx : Registry.ctx;
  p_funcs : Ast.func array;  (** every function, in source order *)
  p_fdigests : string array Lazy.t;
  p_sdigest : string Lazy.t;
}

let prepare (j : job) : prepared =
  let with_files =
    List.concat_map
      (fun tu ->
        List.map (fun f -> (tu.Ast.tu_file, f)) (Ast.functions tu))
      j.tus
  in
  let funcs = Array.of_list (List.map snd with_files) in
  let files = Array.of_list (List.map fst with_files) in
  {
    p_job = j;
    p_ctx = Registry.make_ctx j.tus;
    p_funcs = funcs;
    p_fdigests =
      lazy (Array.mapi (fun i f -> func_digest files.(i) f) funcs);
    p_sdigest = lazy (spec_digest j.spec);
  }

(* The dependency set of a whole-program checker: every function the
   callgraph can reach from the spec's handlers, digested in sorted name
   order.  Functions outside the closure do not appear, so edits to them
   leave the key — and the cached result — valid. *)
let global_key (p : prepared) (c : Registry.checker) : string =
  let cg = Lazy.force p.p_ctx.Registry.callgraph in
  let roots =
    List.map
      (fun (h : Flash_api.handler_spec) -> h.Flash_api.h_name)
      p.p_job.spec.Flash_api.p_handlers
  in
  let reach =
    List.sort_uniq String.compare (Callgraph.reachable_from cg roots)
  in
  let digests = Lazy.force p.p_fdigests in
  let by_name = Hashtbl.create (Array.length p.p_funcs) in
  Array.iteri
    (fun i (f : Ast.func) ->
      if not (Hashtbl.mem by_name f.Ast.f_name) then
        Hashtbl.add by_name f.Ast.f_name digests.(i))
    p.p_funcs;
  let parts =
    List.map
      (fun n ->
        n ^ "="
        ^ Option.value (Hashtbl.find_opt by_name n) ~default:"undef")
      reach
  in
  Printf.sprintf "%s@%s@%s" c.Registry.name
    (Lazy.force p.p_sdigest)
    (Digest.to_hex (Digest.string (String.concat ";" parts)))

let batch_key (p : prepared) (fi : int) : string =
  Printf.sprintf "fnbatch@%s@%s@%s" pf_set_digest
    (Lazy.force p.p_sdigest)
    (Lazy.force p.p_fdigests).(fi)

(* Walk every work unit in the canonical (job, function batch, global
   checker) order, assigning consecutive slots.  Used twice — once to
   build the schedule, once to reassemble — so the orders cannot drift
   apart. *)
let iter_units (prepared : prepared array)
    (per_batch : slot:int -> job:int -> fn:int -> unit)
    (global : slot:int -> job:int -> w:int -> unit) : int =
  let slot = ref 0 in
  Array.iteri
    (fun ji p ->
      Array.iteri
        (fun fi _ ->
          per_batch ~slot:!slot ~job:ji ~fn:fi;
          incr slot)
        p.p_funcs;
      Array.iteri
        (fun w _ ->
          global ~slot:!slot ~job:ji ~w;
          incr slot)
        wholes)
    prepared;
  !slot

let m_units_run =
  Mcmetrics.counter ~help:"Mcd units executed (cache misses)"
    "mcheck_units_run_total"

let m_units_faulted =
  Mcmetrics.counter ~help:"units ended by the per-unit fault barrier"
    "mcheck_units_faulted_total"

let m_queue_wait =
  Mcmetrics.hist ~help:"unit wait from scheduling to execution start, ms"
    "mcheck_unit_queue_wait_ms"

let check_jobs ?cache ?(budget = Engine.no_budget) ~jobs
    (job_list : job list) : (string * Diag.t list) list list * stats =
  (* one wall measurement, on the Mcobs clock: it produces both the
     [mcd.schedule] span and [stats.wall_ms] *)
  let t0 = Mcobs.now_us () in
  let prepared =
    Mcobs.with_span "mcd.prepare" (fun () ->
        Array.of_list (List.map prepare job_list))
  in
  let total =
    iter_units prepared
      (fun ~slot:_ ~job:_ ~fn:_ -> ())
      (fun ~slot:_ ~job:_ ~w:_ -> ())
  in
  (* a slot holds one unit's per-checker slices: [n_pf] for a function
     batch, one for a whole-program unit *)
  let results : Diag.t list array array = Array.make total [||] in
  (* per-slot fault diagnostics ([checker = "internal"]): written only
     by the worker that owns the slot, like [results] — non-empty means
     the unit degraded and its result must not be cached *)
  let faults : Diag.t list array = Array.make total [] in
  (* resolve cache hits up front, in the coordinating domain; only the
     misses become pool tasks.  A miss's task is wrapped in an
     [mcd.unit] span carrying its (checker, unit) identity, plus a
     queue-wait histogram sample measured from scheduling to execution
     start on whichever domain picks it up. *)
  let hits = ref 0 in
  let miss_slots = ref [] in
  let miss_keys = ref [] in
  let consider ~slot ~cname ~uname key_of run_of =
    match Option.bind cache (fun c -> Mcd_cache.find c (key_of ())) with
    | Some slices ->
      results.(slot) <- slices;
      incr hits
    | None ->
      let enqueued_us = Mcobs.now_us () in
      let run_of () =
        Mcmetrics.observe m_queue_wait
          ((Mcobs.now_us () -. enqueued_us) /. 1000.);
        Mcobs.with_span "mcd.unit"
          ~args:[ ("checker", cname); ("unit", uname) ]
          run_of
      in
      miss_slots := (slot, run_of) :: !miss_slots;
      if cache <> None then miss_keys := (slot, key_of ()) :: !miss_keys
  in
  (* staged per-function closures and packed machines are
     domain-local: a fresh DLS key per call keeps one staging table per
     worker, so both are built once per (domain, job) and never shared
     across domains *)
  let stage_key : (int, Registry.staged) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)
  in
  let staged ~job =
    let tbl = Domain.DLS.get stage_key in
    match Hashtbl.find_opt tbl job with
    | Some st -> st
    | None ->
      let p = prepared.(job) in
      let st = Registry.stage checkers ~spec:p.p_job.spec p.p_ctx in
      Hashtbl.add tbl job st;
      st
  in
  (* a unit is one kernel call: every checker runs under the unit
     budget behind the kernel's fault barrier, so a faulted unit still
     completes, the pool keeps draining, and the faulted slot is never
     cached *)
  let run_batch ~slot ~job ~fn () =
    let slices, fs =
      Registry.check_function ~budget ~scan:true (staged ~job)
        prepared.(job).p_funcs.(fn)
    in
    results.(slot) <- slices;
    faults.(slot) <- fs
  in
  let run_global ~slot ~job ~w () =
    let j = prepared.(job).p_job in
    let slice, fs =
      Registry.check_program ~budget ~spec:j.spec j.tus wholes.(w)
    in
    results.(slot) <- [| slice |];
    faults.(slot) <- fs
  in
  Mcobs.with_span "mcd.resolve" (fun () ->
      ignore
        (iter_units prepared
           (fun ~slot ~job ~fn ->
             consider ~slot ~cname:"fnbatch"
               ~uname:prepared.(job).p_funcs.(fn).Ast.f_name
               (fun () -> batch_key prepared.(job) fn)
               (run_batch ~slot ~job ~fn))
           (fun ~slot ~job ~w ->
             consider ~slot ~cname:wholes.(w).Registry.name
               ~uname:"<whole-program>"
               (fun () -> global_key prepared.(job) wholes.(w))
               (run_global ~slot ~job ~w))));
  let tasks =
    Array.of_list (List.rev_map (fun (_, run) -> run) !miss_slots)
  in
  (* never spawn more domains than the host has cores: extra domains
     only add minor-GC contention, so requesting [--jobs 4] on a 1-core
     box must degrade to the sequential loop, not run slower than it *)
  let domains = min (max 1 jobs) (Domain.recommended_domain_count ()) in
  (* chunked claiming: aim for ~8 chunks per worker so the tail still
     balances while the cursor is touched rarely *)
  let chunk = max 1 (Array.length tasks / (domains * 8)) in
  let worker_stats =
    Mcobs.with_span "mcd.pool"
      ~args:
        [
          ("domains", string_of_int domains);
          ("tasks", string_of_int (Array.length tasks));
          ("chunk", string_of_int chunk);
        ]
      (fun () -> Mcd_pool.run ~chunk ~domains tasks)
  in
  (* store the fresh results; done after the join so the cache is only
     ever touched from this domain.  Faulted slots are not stored: a
     degraded slice must not impersonate a clean result on the next
     run. *)
  (match cache with
  | Some c ->
    Mcobs.with_span "mcd.store" (fun () ->
        List.iter
          (fun (slot, key) ->
            if faults.(slot) = [] then Mcd_cache.add c key results.(slot))
          !miss_keys)
  | None -> ());
  (* reassemble in canonical order: identical to the sequential run.
     [acc_pf.(k)] collects per-function slices for the k-th per-function
     checker, newest first; [acc_g.(w)] holds the w-th whole-program
     checker's slice; [acc_faults] a job's unit faults *)
  let out = Array.make (Array.length prepared) [] in
  let acc_pf : Diag.t list list array = Array.make n_pf [] in
  let acc_g : Diag.t list array = Array.make (Array.length wholes) [] in
  let acc_faults : Diag.t list ref = ref [] in
  let flush_job ji =
    out.(ji) <-
      Registry.assemble checkers ~per_function:acc_pf ~whole_program:acc_g
        ~faults:!acc_faults;
    acc_faults := [];
    Array.fill acc_pf 0 n_pf [];
    Array.fill acc_g 0 (Array.length acc_g) []
  in
  let current_job = ref 0 in
  let switch_to job =
    if job <> !current_job then begin
      flush_job !current_job;
      current_job := job
    end
  in
  Mcobs.with_span "mcd.reassemble" (fun () ->
      ignore
        (iter_units prepared
           (fun ~slot ~job ~fn:_ ->
             switch_to job;
             Array.iteri
               (fun k slice -> acc_pf.(k) <- slice :: acc_pf.(k))
               results.(slot);
             acc_faults := faults.(slot) @ !acc_faults)
           (fun ~slot ~job ~w ->
             switch_to job;
             acc_g.(w) <- results.(slot).(0);
             acc_faults := faults.(slot) @ !acc_faults));
      if Array.length prepared > 0 then flush_job !current_job);
  let dur_us = Mcobs.now_us () -. t0 in
  (* the ambient request trace (when a daemon set one) is recorded on
     every span already; naming it in the args makes the scheduler the
     visible join point between server-side spans and the worker spans
     harvested after the pool joins *)
  Mcobs.record_span ~name:"mcd.schedule"
    ~args:
      (("units", string_of_int total)
       :: ("hits", string_of_int !hits)
       :: ("domains", string_of_int domains)
       ::
       (match Mcobs.current_trace () with
       | "" -> []
       | trace -> [ ("trace", trace) ]))
    ~begin_us:t0 ~dur_us ();
  Mcmetrics.inc ~by:(Array.length tasks) m_units_run;
  let units_faulted =
    Array.fold_left (fun acc fs -> if fs = [] then acc else acc + 1) 0 faults
  in
  let workers_crashed =
    Array.fold_left
      (fun acc (w : Mcd_pool.worker_stats) ->
        if w.Mcd_pool.crashed then acc + 1 else acc)
      0 worker_stats
  in
  Mcmetrics.inc ~by:units_faulted m_units_faulted;
  let stats =
    {
      units_total = total;
      units_run = Array.length tasks;
      cache_hits = !hits;
      units_faulted;
      workers_crashed;
      domains;
      workers = worker_stats;
      wall_ms = dur_us /. 1000.;
    }
  in
  (Array.to_list out, stats)

(** Check one protocol; the result pairs are exactly
    [Registry.run_all ~spec tus]. *)
let check_corpus ?cache ?budget ~jobs ~spec (tus : Ast.tunit list) :
    (string * Diag.t list) list * stats =
  match check_jobs ?cache ?budget ~jobs [ { spec; tus } ] with
  | [ r ], stats -> (r, stats)
  | _ -> assert false

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d unit(s): %d run, %d cached; %d domain(s), %.1f ms wall"
    s.units_total s.units_run s.cache_hits s.domains s.wall_ms;
  Array.iteri
    (fun i (w : Mcd_pool.worker_stats) ->
      Format.fprintf ppf "@\n  domain %d: %d unit(s), %.1f ms" i
        w.Mcd_pool.tasks_done w.Mcd_pool.wall_ms)
    s.workers

(* The one-line summary mcheck prints by default after a --jobs or
   --incremental run: cache-hit rate plus parallel efficiency (total
   domain busy time over wall time). *)
let pp_stats_line ppf (s : stats) =
  let busy_ms =
    Array.fold_left
      (fun acc (w : Mcd_pool.worker_stats) -> acc +. w.Mcd_pool.wall_ms)
      0. s.workers
  in
  let hit_pct =
    if s.units_total = 0 then 0.
    else 100. *. float_of_int s.cache_hits /. float_of_int s.units_total
  in
  Format.fprintf ppf
    "mcd: %d unit(s), %d cached (%.1f%% hit), %d run on %d domain(s); \
     %.1f ms wall, %.2fx parallel efficiency"
    s.units_total s.cache_hits hit_pct s.units_run s.domains s.wall_ms
    (if s.wall_ms > 0. then busy_ms /. s.wall_ms else 0.);
  if s.units_faulted > 0 then
    Format.fprintf ppf "; %d unit(s) DEGRADED" s.units_faulted;
  if s.workers_crashed > 0 then
    Format.fprintf ppf "; %d worker(s) crashed and re-claimed"
      s.workers_crashed
