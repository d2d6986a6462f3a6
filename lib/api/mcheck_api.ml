(* Mcheck_api — the session facade.  See the interface for the contract;
   the implementation is the pipeline wiring that used to live, four
   times over, in bin/mcheck.ml, bin/mcfuzz.ml, bin/mcfault.ml and
   bench/main.ml. *)

type config = {
  jobs : int;
  incremental : bool;
  cache_file : string option;
  cache_dir : string option;
  budget : Engine.budget;
  strict : bool;
  checkers : string list;
  metal : (string * Mrun.t) list;
}

let default_config =
  {
    jobs = 1;
    incremental = false;
    cache_file = None;
    cache_dir = None;
    budget = Engine.no_budget;
    strict = false;
    checkers = [];
    metal = [];
  }

type report = {
  r_parse : Diag.t list;
  r_results : (string * Diag.t list) list;
  r_findings : int;
  r_outcome : Robust.outcome;
  r_sched : Mcd.stats option;
}

let report_diags r = r.r_parse @ List.concat_map snd r.r_results

type render_opts = {
  ro_explain : bool;
  ro_verbose : bool;
  ro_quiet : bool;
}

(* --explain wins, then -v (with path) — the CLI's precedence *)
let render_diag opts d =
  if opts.ro_explain then Format.asprintf "%a@." Diag.pp_explain d
  else if opts.ro_verbose then Format.asprintf "%a@." Diag.pp_with_trace d
  else Format.asprintf "%a@." Diag.pp d

let print_report opts r =
  List.iter (fun d -> print_string (render_diag opts d)) (report_diags r);
  if r.r_findings = 0 && not opts.ro_quiet then
    print_string "no violations found\n";
  if r.r_outcome <> Robust.Clean && r.r_outcome <> Robust.Findings then
    Mcobs.logf Mcobs.Normal "mcheck: run was %s (exit %d)"
      (Robust.to_string r.r_outcome)
      (Robust.exit_code r.r_outcome)

exception Robust_exit of Robust.outcome

(* ------------------------------------------------------------------ *)
(* Shared wiring helpers                                               *)
(* ------------------------------------------------------------------ *)

(* the CLI's default protocol spec: without a protocol specification,
   treat every void/no-arg function as a hardware handler, which is what
   xg++'s default tables did *)
let default_spec (tus : Ast.tunit list) : Flash_api.spec =
  {
    Flash_api.p_name = "<cli>";
    p_handlers =
      List.concat_map
        (fun tu ->
          List.filter_map
            (fun (f : Ast.func) ->
              if Ctype.equal f.Ast.f_ret Ctype.Void && f.Ast.f_params = []
              then
                Some
                  {
                    Flash_api.h_name = f.Ast.f_name;
                    h_kind = Flash_api.Hw_handler;
                    h_lane_allowance = [| 1; 1; 1; 1 |];
                    h_no_stack = false;
                  }
              else None)
            (Ast.functions tu))
        tus;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let read_sources ~strict files =
  let skipped = ref 0 in
  let srcs =
    List.filter_map
      (fun path ->
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | src -> Some (path, Prelude.text ^ src)
        | exception Sys_error msg ->
          Printf.eprintf "%s: cannot read: %s\n%!" path msg;
          if strict then raise (Robust_exit Robust.Unusable);
          incr skipped;
          None)
      files
  in
  (srcs, !skipped)

let parse_strict srcs =
  match Frontend.of_strings srcs with
  | tus -> tus
  | exception Parser.Error (msg, loc) ->
    Printf.eprintf "%s: parse error: %s\n%!" (Loc.to_string loc) msg;
    raise (Robust_exit Robust.Unusable)
  | exception Lexer.Error (msg, loc) ->
    Printf.eprintf "%s: lexical error: %s\n%!" (Loc.to_string loc) msg;
    raise (Robust_exit Robust.Unusable)

let load_metal paths =
  (* errors without a position still name the offending spec file *)
  let render path (e : Mir.error) =
    if Loc.is_none e.Mir.e_loc then
      Printf.sprintf "%s: metal %s: %s" path e.Mir.e_class e.Mir.e_msg
    else Mir.render_error e
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
      match Mrun.load_file path with
      | Ok m -> go ((path, m) :: acc) rest
      | Error errs ->
        Error (String.concat "\n" (List.map (render path) errs))
      | exception Sys_error msg ->
        Error (Printf.sprintf "%s: cannot read metal spec: %s" path msg))
  in
  go [] paths

let corpus_jobs (c : Corpus.t) =
  List.map
    (fun (p : Corpus.protocol) ->
      { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus })
    c.Corpus.protocols

let render_results (results : (string * Diag.t list) list list) : string =
  String.concat "\n"
    (List.concat_map
       (fun per_checker ->
         List.concat_map
           (fun (name, ds) -> name :: List.map Diag.to_string ds)
           per_checker)
       results)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    cfg : config;
    cache : Mcd_cache.t option;
    (* the whole-request memo: an incremental session answers a content-
       identical re-check without re-parsing or re-scheduling at all —
       the unit-level Mcd cache below it handles partial edits.  Sound
       because the pipeline is deterministic in (sources, selection). *)
    memo : (string, report) Hashtbl.t option;
    mutable closed : bool;
  }

  let m_requests =
    Mcmetrics.counter ~help:"session check_* calls"
      "mcheck_session_requests_total"

  let m_files =
    Mcmetrics.counter ~help:"source files checked" "mcheck_files_checked_total"

  let m_diags =
    Mcmetrics.counter ~help:"diagnostics reported, internal ones included"
      "mcheck_diags_total"

  let m_findings =
    Mcmetrics.counter ~help:"non-internal findings reported"
      "mcheck_findings_total"

  let m_check_ms =
    Mcmetrics.hist ~help:"wall time inside check_* calls, ms" "mcheck_check_ms"

  let m_memo_probes =
    Mcmetrics.counter ~help:"whole-request memo probes"
      "mcheck_memo_probes_total"

  let m_memo_hits =
    Mcmetrics.counter ~help:"whole-request memo hits" "mcheck_memo_hits_total"

  let m_cache_entries =
    Mcmetrics.gauge ~help:"warm Mcd cache entries after the last check"
      "mcheck_unit_cache_entries"

  let create ?(config = default_config) () =
    let cache =
      if config.incremental then begin
        let c =
          match config.cache_file with
          | Some f -> Mcd_cache.load f
          | None -> Mcd_cache.create ()
        in
        (* warm up from the shared multi-writer directory: segments
           other worker processes published merge in on top *)
        (match config.cache_dir with
        | Some dir -> Mcd_cache.merge ~into:c (Mcd_cache.load_dir dir)
        | None -> ());
        Some c
      end
      else None
    in
    {
      cfg = config;
      cache;
      memo = (if config.incremental then Some (Hashtbl.create 64) else None);
      closed = false;
    }

  let use_mcd t = t.cfg.jobs > 1 || t.cfg.incremental

  (* per-call selection override (the daemon's per-request [-c] flags)
     falls back to the session config *)
  let effective_checkers t = function
    | Some (_ :: _ as names) -> names
    | Some [] | None -> t.cfg.checkers

  (* containment-layer entries ("internal") always pass the selection:
     they say where coverage was lost *)
  let selected names name =
    names = [] || List.mem name names || String.equal name "internal"

  let count_findings results =
    List.fold_left
      (fun acc (_, ds) ->
        acc
        + List.length (List.filter (fun d -> not (Robust.is_internal d)) ds))
      0 results

  (* the scheduler summary the CLI prints after --jobs/--incremental
     runs; lives here so local and daemon runs log identically *)
  let report_sched_stats stats =
    Mcobs.logf Mcobs.Normal "%a" Mcd.pp_stats_line stats;
    Mcobs.logf Mcobs.Verbose "scheduler: %a" Mcd.pp_stats stats

  (* a loaded metal spec run reports every spec's findings as one
     ["metal"] entry, machine-major; the kernel's ["internal"] entry
     (it follows the per-spec ones) rides along *)
  let metal_entries n results =
    let specs = List.filteri (fun i _ -> i < n) results
    and internal = List.filteri (fun i _ -> i >= n) results in
    match List.concat_map snd specs with
    | [] -> internal
    | diags -> ("metal", diags) :: internal

  (* the one checking pass over parsed jobs: loaded metal specs through
     the kernel, else the Mcd pool (warm cache) or the sequential product
     driver.  Returns per-job results, the scheduler stats when the pool
     ran, and whether any unit degraded. *)
  let run_pipeline t ~names (jobs : Mcd.job list) =
    let select = List.filter (fun (name, _) -> selected names name) in
    let faulted =
      List.exists
        (List.exists (fun (name, ds) ->
             String.equal name "internal" && ds <> []))
    in
    if t.cfg.metal <> [] then
      let checkers =
        List.map (fun (_, m) -> Registry.of_table m) t.cfg.metal
      in
      let results =
        List.map
          (fun (j : Mcd.job) ->
            metal_entries (List.length checkers)
              (Registry.run_checkers ~scan:true checkers ~spec:j.Mcd.spec
                 j.Mcd.tus))
          jobs
      in
      (results, None, faulted results)
    else if use_mcd t then begin
      let results, stats =
        Mcd.check_jobs ?cache:t.cache ~budget:t.cfg.budget ~jobs:t.cfg.jobs
          jobs
      in
      report_sched_stats stats;
      ( List.map select results,
        Some stats,
        stats.Mcd.units_faulted > 0 || stats.Mcd.workers_crashed > 0 )
    end
    else
      let results =
        List.map
          (fun (j : Mcd.job) ->
            Registry.run_all_product ~spec:j.Mcd.spec j.Mcd.tus)
          jobs
      in
      (List.map select results, None, faulted results)

  let record t report ~files ~wall_ms =
    Mcmetrics.inc m_requests;
    Mcmetrics.inc ~by:files m_files;
    Mcmetrics.inc ~by:(List.length (report_diags report)) m_diags;
    Mcmetrics.inc ~by:report.r_findings m_findings;
    Mcmetrics.observe m_check_ms wall_ms;
    Option.iter
      (fun c -> Mcmetrics.set m_cache_entries (Mcd_cache.size c))
      t.cache

  (* everything the report depends on, digested *)
  let memo_key ~names srcs ~skipped ~had_input =
    let b = Buffer.create 256 in
    List.iter
      (fun (name, src) ->
        Buffer.add_string b name;
        Buffer.add_char b '\000';
        Buffer.add_string b (Digest.string src))
      srcs;
    Buffer.add_string b (String.concat "," names);
    Buffer.add_string b (Printf.sprintf "|%d|%b" skipped had_input);
    Digest.string (Buffer.contents b)

  let memo_find t key =
    match (t.memo, key) with
    | Some memo, Some key -> Hashtbl.find_opt memo key
    | _ -> None

  let memo_store t key report =
    match (t.memo, key) with
    | Some memo, Some key ->
      (* crude bound: a reset beats an eviction policy at this size *)
      if Hashtbl.length memo >= 512 then Hashtbl.reset memo;
      Hashtbl.replace memo key report
    | _ -> ()

  (* the shared back half: parse the (path, source) pairs, run, classify *)
  let check_sources_uncached t ~names srcs ~skipped ~had_input =
    let (report : report), wall_ms =
      time_ms (fun () ->
          let tus, parse_diags =
            if t.cfg.strict then (parse_strict srcs, [])
            else Frontend.parse_strings srcs
          in
          let spec = default_spec tus in
          let results, sched, units_degraded =
            match run_pipeline t ~names [ { Mcd.spec; tus } ] with
            | [ results ], sched, degraded -> (results, sched, degraded)
            | _ -> assert false
          in
          let findings = count_findings results in
          (* a run where no function survived parsing checked nothing *)
          let survived =
            List.exists (fun tu -> Ast.functions tu <> []) tus
          in
          let outcome =
            Robust.classify
              ~usable:
                (survived
                || (parse_diags = [] && skipped = 0 && had_input))
              ~degraded:(parse_diags <> [] || skipped > 0 || units_degraded)
              ~has_findings:(findings > 0)
          in
          {
            r_parse = parse_diags;
            r_results = results;
            r_findings = findings;
            r_outcome = outcome;
            r_sched = sched;
          })
    in
    record t report ~files:(List.length srcs) ~wall_ms;
    report

  let check_sources t ~names srcs ~skipped ~had_input =
    let key =
      match t.memo with
      | Some _ -> Some (memo_key ~names srcs ~skipped ~had_input)
      | None -> None
    in
    if key <> None then Mcmetrics.inc m_memo_probes;
    match memo_find t key with
    | Some report ->
      Mcmetrics.inc m_memo_hits;
      (* answered without scheduling: no unit ran, none hit the cache *)
      let report = { report with r_sched = None } in
      record t report ~files:(List.length srcs) ~wall_ms:0.;
      report
    | None ->
      let report = check_sources_uncached t ~names srcs ~skipped ~had_input in
      memo_store t key report;
      report

  let check_files ?checkers t files =
    Mcobs.with_span "api.check_files" (fun () ->
        let names = effective_checkers t checkers in
        let srcs, skipped = read_sources ~strict:t.cfg.strict files in
        check_sources t ~names srcs ~skipped ~had_input:(files <> []))

  let check_file ?checkers t file = check_files ?checkers t [ file ]

  let check_buffer ?checkers t ~name ~contents =
    Mcobs.with_span "api.check_buffer" (fun () ->
        check_sources t
          ~names:(effective_checkers t checkers)
          [ (name, Prelude.text ^ contents) ]
          ~skipped:0 ~had_input:true)

  (* already-parsed jobs: no parse diagnostics, one scheduling pass *)
  let check_parsed t ~names (jobs : Mcd.job list) =
    let (results, (report : report)), wall_ms =
      time_ms (fun () ->
          let results, sched, degraded = run_pipeline t ~names jobs in
          let flat = List.concat results in
          let findings = count_findings flat in
          let survived =
            List.exists
              (fun (j : Mcd.job) ->
                List.exists (fun tu -> Ast.functions tu <> []) j.Mcd.tus)
              jobs
          in
          let outcome =
            Robust.classify ~usable:survived ~degraded
              ~has_findings:(findings > 0)
          in
          ( results,
            {
              r_parse = [];
              r_results = flat;
              r_findings = findings;
              r_outcome = outcome;
              r_sched = sched;
            } ))
    in
    record t report ~files:0 ~wall_ms;
    (results, report)

  let check_units ?checkers t ~spec tus =
    Mcobs.with_span "api.check_units" (fun () ->
        snd
          (check_parsed t
             ~names:(effective_checkers t checkers)
             [ { Mcd.spec; tus } ]))

  (* the corpus path: every protocol through one scheduling pass (one
     Mcd pool over the whole job list), per-job result lists preserved
     for per-protocol printing *)
  let check_jobs t jobs =
    Mcobs.with_span "api.check_jobs" (fun () ->
        check_parsed t ~names:t.cfg.checkers jobs)

  (* share this session's warm results with concurrent writers; safe
     to call any time — failures are counted, never raised (a worker
     must not die because the cache directory got hostile) *)
  let publish_cache t =
    match (t.cache, t.cfg.cache_dir) with
    | Some cache, Some dir -> (
      match Mcd_cache.publish_dir cache dir with
      | Ok _ -> ()
      | Error msg ->
        Mcobs.logf Mcobs.Verbose "cache publish: %s\n" msg)
    | _ -> ()

  let close t =
    if not t.closed then begin
      t.closed <- true;
      publish_cache t;
      match (t.cache, t.cfg.cache_file) with
      | Some cache, Some path -> Mcd_cache.save cache path
      | _ -> ()
    end
end
