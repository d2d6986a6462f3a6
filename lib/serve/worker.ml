(* Worker — the Mcsup instantiation for the serve tier.  See the
   interface.  The main loop lives here rather than in lib/supervise
   because it needs Proto and Mcheck_api; Mcsup stays protocol-
   agnostic underneath. *)

let env_key = "MCSUP_WORKER"

type wconfig = {
  wc_jobs : int;
  wc_incremental : bool;
  wc_strict : bool;
  wc_fuel : int option;
  wc_deadline_ms : float option;
  wc_checkers : string list;
  wc_metal_paths : string list;
  wc_cache_dir : string option;
  wc_mem_mb : int option;
  wc_cpu_s : int option;
  wc_allow_chaos : bool;
}

let default_wconfig =
  {
    wc_jobs = 1;
    wc_incremental = true;
    wc_strict = false;
    wc_fuel = None;
    wc_deadline_ms = None;
    wc_checkers = [];
    wc_metal_paths = [];
    wc_cache_dir = None;
    wc_mem_mb = None;
    wc_cpu_s = None;
    wc_allow_chaos = false;
  }

(* The init frame crosses exec between two instances of the *same*
   binary, so Marshal is sound; a version marker catches the only way
   that can go wrong (a stale supervisor exec'ing a newer binary). *)
let init_tag = "mcw1"
let encode_init wc = Marshal.to_string (init_tag, wc) []

let decode_init s =
  match (Marshal.from_string s 0 : string * wconfig) with
  | tag, wc when String.equal tag init_tag -> Ok wc
  | _ -> Error "worker init: version mismatch"
  | exception _ -> Error "worker init: undecodable"

(* ------------------------------------------------------------------ *)
(* The codec                                                           *)
(* ------------------------------------------------------------------ *)

let codec =
  {
    Mcsup.cd_read = Proto.read_frame;
    cd_write = Proto.write_frame;
    cd_class =
      (fun payload ->
        match Proto.decode_response payload with
        | Ok (Proto.R_diag _ | Proto.R_counters _) -> Mcsup.More
        | Ok _ -> Mcsup.Final
        | Error _ -> Mcsup.Garbage);
    cd_split = Some Proto.split_frame;
  }

let pool_config ?(name = "mcheckd") ~size ~wall_ms wc =
  {
    (Mcsup.default_config codec) with
    Mcsup.sp_size = size;
    sp_env_key = env_key;
    sp_init = encode_init wc;
    sp_wall_ms = wall_ms;
    sp_name = name;
  }

(* ------------------------------------------------------------------ *)
(* Chaos units                                                         *)
(* ------------------------------------------------------------------ *)

(* In-band fault injections, recognized by buffer name only when the
   init config allows them.  They model the pathological translation
   units the supervisor exists for: a spin the fuel budget misses, an
   allocation storm, a blown stack, and outright death mid-request.
   [__chaos_sleep_<ms>__*] is not a fault at all — it stretches an
   otherwise-normal check so campaigns can kill workers mid-request
   deterministically (the local mirror session checks the same buffer
   without sleeping and must produce identical diagnostics). *)

let chaos_sleep_prefix = "__chaos_sleep_"

let sleep_ms_of_name name =
  let p = chaos_sleep_prefix in
  let pl = String.length p in
  if String.length name > pl && String.sub name 0 pl = p then
    match String.index_from_opt name pl '_' with
    | Some i -> int_of_string_opt (String.sub name pl (i - pl))
    | None -> None
  else None

let chaos_spin () =
  (* non-allocating, so RLIMIT_AS never saves us: only the supervisor
     deadline (SIGTERM) or RLIMIT_CPU (SIGXCPU/SIGKILL) ends this *)
  let r = ref 0 in
  while !r >= 0 do
    r := (!r + 1) land max_int
  done

let chaos_oom () =
  let rec go acc = go (String.make 65536 'x' :: acc) in
  ignore (go [])

let chaos_stack () =
  let rec f n = if n = 0 then 0 else 1 + f (n + 1) in
  ignore (f 1)

(* ------------------------------------------------------------------ *)
(* The worker main loop                                                *)
(* ------------------------------------------------------------------ *)

let render_opts (o : Proto.check_opts) =
  {
    Mcheck_api.ro_explain = o.Proto.co_explain;
    ro_verbose = o.Proto.co_verbose;
    ro_quiet = o.Proto.co_quiet;
  }

(* Diag frames are batched and flushed with the final frame rather than
   written one syscall at a time: the supervisor collects a request's
   whole frame list before forwarding any of it, so write granularity
   is invisible to the client — but per-frame writes cost a cross-
   process wakeup each, which dominates warm-path dispatch latency on
   diag-heavy batches.  A size cap bounds worker memory; a partial
   flush mid-stream is just stream bytes arriving early. *)
let out_buf = Buffer.create 65536
let out_flush_bytes = 262_144

let flush_out () =
  let n = Buffer.length out_buf in
  if n > 0 then begin
    let b = Buffer.to_bytes out_buf in
    Buffer.clear out_buf;
    let rec go off =
      if off < n then go (off + Unix.write Unix.stdin b off (n - off))
    in
    go 0
  end

let reply resp =
  Buffer.add_string out_buf (Proto.frame (Proto.encode_response resp));
  match resp with
  | Proto.R_diag _ | Proto.R_counters _ ->
    if Buffer.length out_buf >= out_flush_bytes then flush_out ()
  | _ -> flush_out ()

(* The reply to a check, shared by both dispatch modes so a worker's
   frames, which the supervisor forwards verbatim, are byte-identical
   to in-process dispatch *)
let check_replies opts = function
  | Ok (report : Mcheck_api.report) ->
    let ropts = render_opts opts in
    let diags = Mcheck_api.report_diags report in
    ( List.map
        (fun (d : Diag.t) ->
          Proto.R_diag
            {
              Proto.d_checker = d.Diag.checker;
              d_severity = Diag.severity_string d.Diag.severity;
              d_internal = Robust.is_internal d;
              d_text = Mcheck_api.render_diag ropts d;
            })
        diags,
      Proto.R_done
        {
          rd_exit = Robust.exit_code report.Mcheck_api.r_outcome;
          rd_findings = report.Mcheck_api.r_findings;
          rd_diags = List.length diags;
        } )
  | Error (Mcheck_api.Robust_exit out) ->
    (* strict-mode input failure: the reason went to stderr, the wire
       carries the exit code *)
    ( [],
      Proto.R_done
        { rd_exit = Robust.exit_code out; rd_findings = 0; rd_diags = 0 } )
  | Error exn -> ([], Proto.R_error (Engine.describe_fault exn))

(* The registry's counters as of the last report: each check's final
   frame is preceded by the counters that rose since, which the daemon
   adds to its own registry. *)
let reported = ref []

let run_and_reply opts work =
  let result =
    try Ok (work ()) with
    | Out_of_memory ->
      (* sweep the garbage that hit the RLIMIT_AS cap now, or the next
         allocation fails too — in a minor GC, fatally *)
      Gc.full_major ();
      Error Out_of_memory
    | exn -> Error exn
  in
  let diags, final = check_replies opts result in
  List.iter reply diags;
  let now = Mcmetrics.counters (Mcmetrics.snapshot ()) in
  reply (Proto.R_counters (Mcmetrics.counter_deltas ~before:!reported now));
  reported := now;
  reply final

let handle_request wc session req =
  match req with
  | Proto.Ping -> reply Proto.R_ok
  | Proto.Check_files (opts, paths) ->
    run_and_reply opts (fun () ->
        Mcheck_api.Session.check_files ~checkers:opts.Proto.co_checkers
          session paths)
  | Proto.Check_buffer (opts, name, contents) ->
    if wc.wc_allow_chaos then begin
      (* death injections happen outside the fault barrier — that is
         their entire point *)
      if String.equal name "__chaos_exit__" then exit 7;
      if String.equal name "__chaos_kill__" then
        Unix.kill (Unix.getpid ()) Sys.sigkill
    end;
    run_and_reply opts (fun () ->
        if wc.wc_allow_chaos then begin
          if String.equal name "__chaos_spin__" then chaos_spin ();
          if String.equal name "__chaos_oom__" then chaos_oom ();
          if String.equal name "__chaos_stack__" then chaos_stack ();
          match sleep_ms_of_name name with
          | Some ms -> Thread.delay (float_of_int ms /. 1000.)
          | None -> ()
        end;
        Mcheck_api.Session.check_buffer ~checkers:opts.Proto.co_checkers
          session ~name ~contents)
  | Proto.Stats _ | Proto.Metrics _ | Proto.Flight | Proto.Drain
  | Proto.Reload ->
    reply (Proto.R_error "request kind not supported in a worker")

let worker_main () : unit =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  Mcobs.set_verbosity Mcobs.Quiet;
  match Proto.read_frame Unix.stdin with
  | Error _ | (exception _) -> exit 2
  | Ok init -> (
    match decode_init init with
    | Error _ -> exit 2
    | Ok wc -> (
      (* hard OS limits before any request data is touched; failures
         are advisory (the supervisor's wall deadline backstops) *)
      Option.iter (fun mb -> ignore (Mcsup.set_mem_limit_mb mb)) wc.wc_mem_mb;
      Option.iter (fun s -> ignore (Mcsup.set_cpu_limit_s s)) wc.wc_cpu_s;
      match Mcheck_api.load_metal wc.wc_metal_paths with
      | Error msg ->
        (try reply (Proto.R_error ("worker: " ^ msg)) with _ -> ());
        exit 1
      | Ok metal ->
        let api =
          {
            Mcheck_api.default_config with
            Mcheck_api.jobs = wc.wc_jobs;
            incremental = wc.wc_incremental;
            strict = wc.wc_strict;
            budget =
              { Engine.fuel = wc.wc_fuel; deadline_ms = wc.wc_deadline_ms };
            checkers = wc.wc_checkers;
            cache_dir = wc.wc_cache_dir;
            metal;
          }
        in
        let session = Mcheck_api.Session.create ~config:api () in
        reply Proto.R_ok;
        let served = ref 0 in
        let rec loop () =
          match Proto.read_frame Unix.stdin with
          | Error _ | (exception _) ->
            (* EOF: graceful retirement — publish the warm cache for
               the workers that come after us, then leave cleanly *)
            Mcheck_api.Session.close session;
            exit 0
          | Ok payload ->
            (match Proto.decode_request payload with
            | Error msg ->
              reply (Proto.R_error ("worker protocol error: " ^ msg))
            | Ok req -> handle_request wc session req);
            incr served;
            (* periodic publication keeps the shared directory warm
               even if this worker later dies mid-request *)
            if !served land 7 = 7 then Mcheck_api.Session.publish_cache session;
            loop ()
        in
        loop ()))

let exit_if_worker () =
  if Mcsup.is_worker ~key:env_key then begin
    (try worker_main () with _ -> exit 3);
    exit 0
  end
