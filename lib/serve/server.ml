(* The mcheckd daemon core.  One accept loop, one thread per
   connection, one shared warm session; the session itself is not
   thread-safe, so a mutex serializes check execution — concurrent
   clients multiplex onto the one Mcd pool rather than spawning rival
   pools.  All daemon state transitions (drain, reload, counters) go
   through [t.mu].

   Telemetry rides every request: a trace id (client-minted or ours)
   is installed as the ambient Mcobs context for the duration of the
   check, the request's spans are harvested into the flight recorder,
   latency/byte/outcome metrics feed the always-on Mctel registry, and
   one JSONL access-log line is written per request. *)

type telemetry = {
  tel_tracing : bool;
  tel_access_log : string option;
  tel_sample : int;
  tel_flight_capacity : int;
  tel_flight_threshold_ms : float;
  tel_metrics_addr : Proto.addr option;
}

let default_telemetry =
  {
    tel_tracing = true;
    tel_access_log = None;
    tel_sample = 1;
    tel_flight_capacity = 64;
    tel_flight_threshold_ms = 250.;
    tel_metrics_addr = None;
  }

type supervise = {
  sv_workers : int;
  sv_mem_mb : int option;
  sv_cpu_s : int option;
  sv_wall_ms : float option;
  sv_cache_dir : string option;
  sv_allow_chaos : bool;
}

let default_supervise =
  {
    sv_workers = 2;
    sv_mem_mb = Some 1024;
    sv_cpu_s = Some 30;
    sv_wall_ms = Some 30_000.;
    sv_cache_dir = None;
    sv_allow_chaos = false;
  }

type config = {
  addr : Proto.addr;
  api : Mcheck_api.config;
  metal_paths : string list;
  idle_timeout : float;
  telemetry : telemetry;
  supervise : supervise option;
  max_inflight : int;
}

let default_config =
  {
    addr = Proto.Unix_sock "mcheckd.sock";
    api = { Mcheck_api.default_config with incremental = true };
    metal_paths = [];
    idle_timeout = 10.0;
    telemetry = default_telemetry;
    supervise = None;
    max_inflight = 64;
  }

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  msock : Unix.file_descr option;  (* metrics exposition listener *)
  access : Mctel.Accesslog.t;
  flight : Mctel.Flight.t;
  mu : Mutex.t;  (* flags and counters *)
  cond : Condition.t;  (* signalled when conns/inflight drop *)
  session_mu : Mutex.t;  (* serializes session use (checks, reload) *)
  mutable session : Mcheck_api.Session.t;
  sup : Mcsup.t option;  (* the worker pool, in supervised mode *)
  mutable is_draining : bool;
  mutable conns : int;
  mutable requests : int;
  mutable refused : int;
  mutable errors : int;
  mutable inflight_n : int;
  started : float;
}

(* ------------------------------------------------------------------ *)
(* Live metrics                                                        *)
(* ------------------------------------------------------------------ *)

(* module-level registration: the series exist (at zero) in any binary
   linking the server, so exposition-presence checks never race the
   first request *)
let m_requests =
  Mctel.Metrics.counter ~help:"requests admitted" "mcheckd_requests_total"

let m_refused =
  Mctel.Metrics.counter ~help:"requests refused while draining"
    "mcheckd_refused_total"

let m_faults =
  Mctel.Metrics.counter ~help:"requests ended by the fault barrier"
    "mcheckd_faults_total"

let m_proto_errors =
  Mctel.Metrics.counter ~help:"malformed frames and requests"
    "mcheckd_protocol_errors_total"

let m_bytes_in =
  Mctel.Metrics.counter ~help:"request bytes read (frames incl. headers)"
    "mcheckd_bytes_in_total"

let m_bytes_out =
  Mctel.Metrics.counter ~help:"response bytes written (frames incl. headers)"
    "mcheckd_bytes_out_total"

let m_inflight =
  Mctel.Metrics.gauge ~help:"admitted check requests not yet answered"
    "mcheckd_inflight"

let m_queue =
  Mctel.Metrics.gauge ~help:"admitted requests waiting for the session"
    "mcheckd_queue_depth"

let m_conns = Mctel.Metrics.gauge ~help:"open connections" "mcheckd_connections"
let m_draining = Mctel.Metrics.gauge ~help:"1 while draining" "mcheckd_draining"

let m_flight_notable =
  Mctel.Metrics.counter ~help:"flight-recorder entries retained as notable"
    "mcheckd_flight_notable_total"

let m_req_ms =
  Mctel.Metrics.hist ~help:"request wall time (all request kinds), ms"
    "mcheckd_request_ms"

let m_shed =
  Mctel.Metrics.counter ~help:"requests shed by admission control"
    "mcheckd_shed_total"

let m_client_aborts =
  Mctel.Metrics.counter
    ~help:"response writes that found the client gone (EPIPE/ECONNRESET)"
    "mcheckd_client_aborts_total"

(* ------------------------------------------------------------------ *)
(* Session construction                                                *)
(* ------------------------------------------------------------------ *)

let build_session cfg =
  match Mcheck_api.load_metal cfg.metal_paths with
  | Error _ as e -> e
  | Ok metal ->
    let api = { cfg.api with Mcheck_api.metal } in
    Ok (Mcheck_api.Session.create ~config:api ())

(* listeners are close-on-exec: spawned workers must not inherit them
   (an inherited listener keeps the port bound past the daemon's own
   death) *)
let sock_of = function
  | Proto.Unix_sock path ->
    if Sys.file_exists path then (try Unix.unlink path with _ -> ());
    let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_UNIX path);
    s
  | Proto.Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (ip, port));
    s

(* what each fresh worker process needs to rebuild the server's session
   on its side of the exec: paths and scalars only, no closures *)
let wconfig_of cfg sv =
  {
    Worker.wc_jobs = cfg.api.Mcheck_api.jobs;
    wc_incremental = cfg.api.Mcheck_api.incremental;
    wc_strict = cfg.api.Mcheck_api.strict;
    wc_fuel = cfg.api.Mcheck_api.budget.Engine.fuel;
    wc_deadline_ms = cfg.api.Mcheck_api.budget.Engine.deadline_ms;
    wc_checkers = cfg.api.Mcheck_api.checkers;
    wc_metal_paths = cfg.metal_paths;
    wc_cache_dir = sv.sv_cache_dir;
    wc_mem_mb = sv.sv_mem_mb;
    wc_cpu_s = sv.sv_cpu_s;
    wc_allow_chaos = sv.sv_allow_chaos;
  }

let build_pool cfg =
  match cfg.supervise with
  | None -> Ok None
  | Some sv -> (
    let pool_cfg =
      Worker.pool_config ~size:sv.sv_workers ~wall_ms:sv.sv_wall_ms
        (wconfig_of cfg sv)
    in
    match Mcsup.create pool_cfg with
    | Ok pool -> Ok (Some pool)
    | Error msg -> Error ("cannot start worker pool: " ^ msg))

let create cfg =
  match build_session cfg with
  | Error _ as e -> e
  | Ok session -> (
    match sock_of cfg.addr with
    | exception e ->
      Mcheck_api.Session.close session;
      Error
        (Printf.sprintf "cannot listen on %s: %s"
           (Proto.addr_to_string cfg.addr)
           (Printexc.to_string e))
    | lsock -> (
      Unix.listen lsock 64;
      let msock =
        match cfg.telemetry.tel_metrics_addr with
        | None -> Ok None
        | Some addr -> (
          match sock_of addr with
          | s ->
            Unix.listen s 16;
            Ok (Some s)
          | exception e ->
            Error
              (Printf.sprintf "cannot expose metrics on %s: %s"
                 (Proto.addr_to_string addr)
                 (Printexc.to_string e)))
      in
      match msock with
      | Error msg ->
        (try Unix.close lsock with _ -> ());
        Mcheck_api.Session.close session;
        Error msg
      | Ok msock ->
      match build_pool cfg with
      | Error msg ->
        (try Unix.close lsock with _ -> ());
        (match msock with
        | Some s -> ( try Unix.close s with _ -> ())
        | None -> ());
        Mcheck_api.Session.close session;
        Error msg
      | Ok sup ->
        (* spans are the raw material for the flight recorder; turn
           recording on when the telemetry wants them (never off — a
           test harness may have enabled tracing for its own ends) *)
        if cfg.telemetry.tel_tracing then Mcobs.set_enabled true;
        Ok
          {
            cfg;
            lsock;
            msock;
            sup;
            access =
              Mctel.Accesslog.create ~sample:cfg.telemetry.tel_sample
                ~path:cfg.telemetry.tel_access_log ();
            flight =
              Mctel.Flight.create ~capacity:cfg.telemetry.tel_flight_capacity
                ~threshold_ms:cfg.telemetry.tel_flight_threshold_ms ();
            mu = Mutex.create ();
            cond = Condition.create ();
            session_mu = Mutex.create ();
            session;
            is_draining = false;
            conns = 0;
            requests = 0;
            refused = 0;
            errors = 0;
            inflight_n = 0;
            started = Unix.gettimeofday ();
          }))

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let initiate_drain t =
  locked t.mu (fun () ->
      t.is_draining <- true;
      Mctel.Metrics.set m_draining 1;
      Condition.broadcast t.cond)

let draining t = locked t.mu (fun () -> t.is_draining)
let inflight t = locked t.mu (fun () -> t.inflight_n)
let supervisor t = t.sup
let access_log t = t.access
let flight_recorder t = t.flight
let reopen_access_log t = Mctel.Accesslog.reopen t.access

let stats_text t =
  let s = Mcheck_api.Session.stats t.session in
  locked t.mu (fun () ->
      Format.asprintf
        "mcheckd %s: up %.1f s, %d conn(s), %d request(s) served, %d \
         refused, %d error(s), %d in flight%s@.session: %a@."
        (Proto.addr_to_string t.cfg.addr)
        (Unix.gettimeofday () -. t.started)
        t.conns t.requests t.refused t.errors t.inflight_n
        (if t.is_draining then " (draining)" else "")
        Mcheck_api.Session.pp_stats s)

let stats_json t =
  let s = Mcheck_api.Session.stats t.session in
  locked t.mu (fun () ->
      Printf.sprintf
        "{\"addr\":\"%s\",\"uptime_s\":%.1f,\"conns\":%d,\"requests\":%d,\"refused\":%d,\"errors\":%d,\"inflight\":%d,\"draining\":%b,\"access_log_lines\":%d,\"flight_notable\":%d,\"session\":{\"requests\":%d,\"files_checked\":%d,\"diags_emitted\":%d,\"findings\":%d,\"units_run\":%d,\"cache_hits\":%d,\"cache_entries\":%d,\"check_wall_ms\":%.1f,\"uptime_s\":%.1f}}\n"
        (Mcobs.json_escape (Proto.addr_to_string t.cfg.addr))
        (Unix.gettimeofday () -. t.started)
        t.conns t.requests t.refused t.errors t.inflight_n t.is_draining
        (Mctel.Accesslog.lines_written t.access)
        (Mctel.Flight.retained t.flight)
        s.Mcheck_api.Session.requests s.Mcheck_api.Session.files_checked
        s.Mcheck_api.Session.diags_emitted s.Mcheck_api.Session.findings
        s.Mcheck_api.Session.units_run s.Mcheck_api.Session.cache_hits
        s.Mcheck_api.Session.cache_entries
        s.Mcheck_api.Session.check_wall_ms s.Mcheck_api.Session.uptime_s)

let warm t =
  Mcobs.with_span "serve.warm" (fun () ->
      let corpus = Corpus.generate () in
      locked t.session_mu (fun () ->
          List.iter
            (fun (j : Mcd.job) ->
              ignore
                (Mcheck_api.Session.check_units t.session ~spec:j.Mcd.spec
                   j.Mcd.tus))
            (Mcheck_api.corpus_jobs corpus)))

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let send fd resp = Proto.write_frame fd (Proto.encode_response resp)

(* the Retry-After hint for shed requests: roughly how long the
   backlog ahead of the client will take, from the live p50 — clamped
   so a cold histogram still produces a sane hint *)
let retry_after_ms t inflight =
  let p50 =
    Option.value ~default:50.
      (Mcobs.quantile_hist (Mctel.Metrics.hist_snapshot m_req_ms) 0.5)
  in
  let lanes =
    match t.sup with Some pool -> max 1 (Mcsup.size pool) | None -> 1
  in
  let ms = p50 *. float_of_int inflight /. float_of_int lanes in
  max 25 (min 5000 (int_of_float ms))

(* admission: a check admitted before the drain flag flips always runs
   to completion — the drain-under-load zero-loss guarantee.  Beyond
   [max_inflight] the request is shed with a Retry-After hint instead
   of queueing without bound (fail fast beats slow-everything). *)
let admit t =
  locked t.mu (fun () ->
      if t.is_draining then `Draining
      else if t.inflight_n >= t.cfg.max_inflight then
        `Shed (retry_after_ms t t.inflight_n)
      else begin
        t.inflight_n <- t.inflight_n + 1;
        t.requests <- t.requests + 1;
        Mctel.Metrics.inc m_requests;
        Mctel.Metrics.set m_inflight t.inflight_n;
        `Admitted
      end)

let finish_inflight t =
  locked t.mu (fun () ->
      t.inflight_n <- t.inflight_n - 1;
      Mctel.Metrics.set m_inflight t.inflight_n;
      Condition.broadcast t.cond)

let render_opts (o : Proto.check_opts) =
  {
    Mcheck_api.ro_explain = o.Proto.co_explain;
    ro_verbose = o.Proto.co_verbose;
    ro_quiet = o.Proto.co_quiet;
  }

(* the request trace id: the client's, when well-formed; ours
   otherwise — every request is traceable either way *)
let request_trace (opts : Proto.check_opts) =
  match Mctel.Trace.sanitize opts.Proto.co_trace with
  | Some id -> id
  | None -> Mctel.Trace.mint ()

let req_seq = Atomic.make 0

(* al_outcome for a supervised check, recovered from the worker's own
   R_done exit code (the report object never crosses the process line) *)
let outcome_of_exit = function
  | 0 -> "clean"
  | 1 -> "findings"
  | 2 -> "partial"
  | _ -> "unusable"

let run_check t fd ~peer ~kind ~bytes_in ~req (opts : Proto.check_opts) work =
  let begin_us = Mcobs.now_us () in
  let t0 = Unix.gettimeofday () in
  let trace = request_trace opts in
  let bytes_out = ref 0 in
  let send_counted resp =
    let payload = Proto.encode_response resp in
    bytes_out := !bytes_out + Proto.header_len + String.length payload;
    Proto.write_frame fd payload
  in
  let outcome = ref "fault" in
  let findings = ref 0 in
  let diags_n = ref 0 in
  let cache_hits = ref 0 in
  let harvested = ref [] in
  let logged = ref false in
  (* one terminal accounting step per request, wherever the request
     exits: latency histogram, byte counters, access-log line, flight
     entry — committed after the reply frames, so a client that has
     seen R_done can fetch its own flight entry on the same
     connection *)
  let finish_log () =
    if not !logged then begin
      logged := true;
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Mctel.Metrics.observe m_req_ms wall_ms;
      Mctel.Metrics.inc ~by:bytes_in m_bytes_in;
      Mctel.Metrics.inc ~by:!bytes_out m_bytes_out;
      ignore
        (Mctel.Accesslog.log t.access
           {
             Mctel.Accesslog.al_trace = trace;
             al_peer = peer;
             al_kind = kind;
             al_bytes_in = bytes_in;
             al_bytes_out = !bytes_out;
             al_wall_ms = wall_ms;
             al_outcome = !outcome;
             al_findings = !findings;
             al_diags = !diags_n;
             al_cache_hits = !cache_hits;
           });
      let notable0 = Mctel.Flight.retained t.flight in
      Mctel.Flight.record t.flight ~trace ~kind ~peer ~begin_us ~wall_ms
        ~outcome:!outcome ~spans:!harvested;
      let kept = Mctel.Flight.retained t.flight - notable0 in
      if kept > 0 then Mctel.Metrics.inc ~by:kept m_flight_notable
    end
  in
  (* the supervised path: ship the encoded request to a pooled worker
     process and forward its response frames verbatim — byte-identical
     to what the worker (sharing the in-process rendering code) wrote,
     while this address space never touches request data.  On worker
     failure (already retried once inside the pool) degrade to a
     structured R_error. *)
  let run_supervised pool =
    match Mcsup.dispatch pool (Proto.encode_request req) with
    | Ok frames ->
      Mcobs.count "serve.check.ok";
      (* one coalesced write: the whole frame list is already in hand
         (nothing was streamed during dispatch), so forwarding it frame
         by frame would only pay a syscall per diagnostic *)
      let buf = Buffer.create 65536 in
      List.iter
        (fun payload ->
          bytes_out := !bytes_out + Proto.header_len + String.length payload;
          Buffer.add_string buf (Proto.frame payload))
        frames;
      let b = Buffer.to_bytes buf in
      let n = Bytes.length b in
      let rec wall off =
        if off < n then wall (off + Unix.write fd b off (n - off))
      in
      wall 0;
      let last = List.nth frames (List.length frames - 1) in
      (match Proto.decode_response last with
      | Ok (Proto.R_done { rd_exit; rd_findings; rd_diags }) ->
        outcome := outcome_of_exit rd_exit;
        findings := rd_findings;
        diags_n := rd_diags
      | Ok (Proto.R_error _) ->
        locked t.mu (fun () -> t.errors <- t.errors + 1);
        Mcobs.count "serve.check.fault";
        Mctel.Metrics.inc m_faults;
        outcome := "fault"
      | _ -> outcome := "ok")
    | Error f ->
      locked t.mu (fun () -> t.errors <- t.errors + 1);
      Mcobs.count "serve.check.fault";
      Mctel.Metrics.inc m_faults;
      outcome := "fault";
      send_counted
        (Proto.R_error ("worker failed: " ^ Mcsup.describe_failure f))
  in
  match admit t with
  | `Draining ->
    locked t.mu (fun () -> t.refused <- t.refused + 1);
    Mctel.Metrics.inc m_refused;
    outcome := "refused";
    Fun.protect ~finally:finish_log (fun () ->
        send_counted (Proto.R_error "draining: request refused"))
  | `Shed ms ->
    locked t.mu (fun () -> t.refused <- t.refused + 1);
    Mctel.Metrics.inc m_shed;
    outcome := "overloaded";
    Fun.protect ~finally:finish_log (fun () ->
        send_counted (Proto.R_overloaded { ro_retry_after_ms = ms }))
  | `Admitted ->
    Mctel.Metrics.add m_queue 1;
    Fun.protect
      ~finally:(fun () ->
        finish_inflight t;
        finish_log ())
      (fun () ->
        match t.sup with
        | Some pool ->
          Mctel.Metrics.add m_queue (-1);
          Mcobs.with_span "serve.check" (fun () -> run_supervised pool)
        | None ->
        match
          Mcobs.with_span "serve.check" (fun () ->
              locked t.session_mu (fun () ->
                  Mctel.Metrics.add m_queue (-1);
                  let hits0 =
                    (Mcheck_api.Session.stats t.session)
                      .Mcheck_api.Session.cache_hits
                  in
                  (* the ambient trace context attributes every span the
                     check records — across the session and the Mcd
                     worker domains — to this request; session_mu is
                     what makes the process-global context sound *)
                  Fun.protect
                    ~finally:(fun () ->
                      Mcobs.set_trace "";
                      Mcobs.record_span ~trace ~name:"serve.request"
                        ~args:[ ("kind", kind); ("peer", peer) ]
                        ~begin_us
                        ~dur_us:(Mcobs.now_us () -. begin_us)
                        ();
                      harvested := Mcobs.drain_trace trace;
                      (* periodically sweep spans recorded outside any
                         trace so a long-lived daemon's buffers stay
                         bounded without a coordinated reset *)
                      if Atomic.fetch_and_add req_seq 1 land 0xff = 0xff
                      then ignore (Mcobs.drain_trace ""))
                    (fun () ->
                      Mcobs.set_trace trace;
                      let r = work t.session in
                      cache_hits :=
                        (Mcheck_api.Session.stats t.session)
                          .Mcheck_api.Session.cache_hits - hits0;
                      r)))
        with
        | (report : Mcheck_api.report) ->
          Mcobs.count "serve.check.ok";
          outcome := Robust.to_string report.Mcheck_api.r_outcome;
          findings := report.Mcheck_api.r_findings;
          let ropts = render_opts opts in
          let diags = Mcheck_api.report_diags report in
          diags_n := List.length diags;
          List.iter
            (fun (d : Diag.t) ->
              send_counted
                (Proto.R_diag
                   {
                     Proto.d_checker = d.Diag.checker;
                     d_severity = Diag.severity_string d.Diag.severity;
                     d_internal = Robust.is_internal d;
                     d_text = Mcheck_api.render_diag ropts d;
                   }))
            diags;
          send_counted
            (Proto.R_done
               {
                 rd_exit = Robust.exit_code report.Mcheck_api.r_outcome;
                 rd_findings = report.Mcheck_api.r_findings;
                 rd_diags = List.length diags;
               })
        | exception Mcheck_api.Robust_exit out ->
          (* strict-mode input failure: the daemon printed the reason on
             its stderr, the wire carries the exit code *)
          outcome := Robust.to_string out;
          send_counted
            (Proto.R_done
               {
                 rd_exit = Robust.exit_code out;
                 rd_findings = 0;
                 rd_diags = 0;
               })
        | exception exn ->
          (* the per-request fault barrier: a poisoned request degrades
             to an error frame, never kills the daemon *)
          locked t.mu (fun () -> t.errors <- t.errors + 1);
          Mcobs.count "serve.check.fault";
          Mctel.Metrics.inc m_faults;
          outcome := "fault";
          send_counted (Proto.R_error (Engine.describe_fault exn)))

(* control requests get the same accounting as checks — a trace id,
   the latency histogram, and an access-log line — without the
   admission/session machinery *)
let answer t fd ~peer ~kind ~bytes_in resp =
  let t0 = Unix.gettimeofday () in
  let payload = Proto.encode_response resp in
  Fun.protect
    ~finally:(fun () ->
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Mctel.Metrics.observe m_req_ms wall_ms;
      Mctel.Metrics.inc ~by:bytes_in m_bytes_in;
      Mctel.Metrics.inc
        ~by:(Proto.header_len + String.length payload)
        m_bytes_out;
      ignore
        (Mctel.Accesslog.log t.access
           {
             Mctel.Accesslog.al_trace = Mctel.Trace.mint ();
             al_peer = peer;
             al_kind = kind;
             al_bytes_in = bytes_in;
             al_bytes_out = Proto.header_len + String.length payload;
             al_wall_ms = wall_ms;
             al_outcome =
               (match resp with Proto.R_error _ -> "error" | _ -> "ok");
             al_findings = 0;
             al_diags = 0;
             al_cache_hits = 0;
           }))
    (fun () -> Proto.write_frame fd payload)

(* the per-request strictness knob is reserved on the wire; the daemon
   applies its configured parse mode (see Proto.check_opts docs) *)
let handle_request t fd ~peer ~bytes_in req =
  match req with
  | Proto.Ping -> answer t fd ~peer ~kind:"ping" ~bytes_in Proto.R_ok
  | Proto.Stats Proto.S_text ->
    answer t fd ~peer ~kind:"stats" ~bytes_in (Proto.R_text (stats_text t))
  | Proto.Stats Proto.S_json ->
    answer t fd ~peer ~kind:"stats" ~bytes_in (Proto.R_text (stats_json t))
  | Proto.Metrics Proto.M_prom ->
    answer t fd ~peer ~kind:"metrics" ~bytes_in
      (Proto.R_text (Mctel.Metrics.to_prometheus ()))
  | Proto.Metrics Proto.M_json ->
    answer t fd ~peer ~kind:"metrics" ~bytes_in
      (Proto.R_text (Mctel.Metrics.to_json ()))
  | Proto.Flight ->
    answer t fd ~peer ~kind:"flight" ~bytes_in
      (Proto.R_text (Mctel.Flight.dump_json t.flight))
  | Proto.Drain ->
    Mcobs.count "serve.drain";
    initiate_drain t;
    answer t fd ~peer ~kind:"drain" ~bytes_in Proto.R_ok
  | Proto.Reload -> (
    Mcobs.count "serve.reload";
    match build_session t.cfg with
    | Error msg ->
      locked t.mu (fun () -> t.errors <- t.errors + 1);
      answer t fd ~peer ~kind:"reload" ~bytes_in
        (Proto.R_error ("reload failed: " ^ msg))
    | Ok fresh ->
      (* waits for in-flight checks (they hold session_mu), then swaps *)
      locked t.session_mu (fun () ->
          let old = t.session in
          t.session <- fresh;
          Mcheck_api.Session.close old);
      (* supervised mode: roll every worker too — each retiring worker
         publishes its warm cache on EOF, each fresh one reloads specs
         from disk *)
      Option.iter Mcsup.retire_all t.sup;
      answer t fd ~peer ~kind:"reload" ~bytes_in Proto.R_ok)
  | Proto.Check_files (opts, paths) ->
    (* the request's -c selection overrides the session's, per call, so
       findings counts and exit codes match a local run with the same
       flags *)
    run_check t fd ~peer ~kind:"check_files" ~bytes_in ~req opts
      (fun session ->
        Mcheck_api.Session.check_files ~checkers:opts.Proto.co_checkers
          session paths)
  | Proto.Check_buffer (opts, name, contents) ->
    run_check t fd ~peer ~kind:"check_buffer" ~bytes_in ~req opts
      (fun session ->
        Mcheck_api.Session.check_buffer ~checkers:opts.Proto.co_checkers
          session ~name ~contents)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | exception _ -> "unknown"

let handle_conn t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout
   with _ -> ());
  let peer = peer_string fd in
  let rec loop () =
    match Proto.read_frame fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* idle past the timeout: reap the connection (clients
         reconnect cheaply); unconditional so a drain never waits on a
         silent peer *)
      ()
    | exception Unix.Unix_error _ -> ()
    | Error "eof" -> ()
    | Error msg ->
      (* framing is broken; answer once and hang up *)
      (try send fd (Proto.R_error ("protocol error: " ^ msg)) with _ -> ());
      Mctel.Metrics.inc m_proto_errors;
      locked t.mu (fun () -> t.errors <- t.errors + 1)
    | Ok payload -> (
      let bytes_in = Proto.header_len + String.length payload in
      match Proto.decode_request payload with
      | Error msg ->
        (try send fd (Proto.R_error ("protocol error: " ^ msg))
         with _ -> ());
        Mctel.Metrics.inc m_proto_errors;
        locked t.mu (fun () -> t.errors <- t.errors + 1)
      | Ok req -> (
        Mcobs.count "serve.request";
        match handle_request t fd ~peer ~bytes_in req with
        | () -> loop ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
          ->
          (* the client hung up mid-reply: a per-connection event worth
             counting, never a fault-barrier trip *)
          Mctel.Metrics.inc m_client_aborts
        | exception Unix.Unix_error _ ->
          (* client went away mid-reply *)
          ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      locked t.mu (fun () ->
          t.conns <- t.conns - 1;
          Mctel.Metrics.set m_conns t.conns;
          Condition.broadcast t.cond))
    loop

(* A connection accepted mid-drain still has its one request read: a
   check is refused through [run_check]'s admission, which writes the
   refused access-log line, anything else gets the connection refusal.
   The caller counts it in [conns], so the drain waits for the refusal
   to finish; the short receive timeout bounds that wait on a silent
   peer. *)
let refuse_conn t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0 with _ -> ());
  let refuse () = send fd (Proto.R_error "draining: connection refused") in
  (try
     match Proto.read_frame fd with
     | Ok payload -> (
       match Proto.decode_request payload with
       | Ok ((Proto.Check_files _ | Proto.Check_buffer _) as req) ->
         handle_request t fd ~peer:(peer_string fd)
           ~bytes_in:(Proto.header_len + String.length payload)
           req
       | _ -> refuse ())
     | Error _ -> refuse ()
   with _ -> ());
  (try Unix.close fd with _ -> ());
  locked t.mu (fun () ->
      t.conns <- t.conns - 1;
      Mctel.Metrics.set m_conns t.conns;
      Condition.broadcast t.cond)

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                  *)
(* ------------------------------------------------------------------ *)

let rec http_write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    http_write_all fd s (off + n) (len - n)
  end

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* liveness vs readiness: /healthz answers 200 while the process can
   answer at all (an orchestrator restarts on failure); /readyz goes
   503 once draining or when the worker pool has no live workers (a
   balancer stops routing, the process keeps finishing in-flight
   work) *)
let ready t =
  (not (draining t))
  && match t.sup with None -> true | Some pool -> Mcsup.alive pool >= 1

(* the smallest useful scrape endpoint: HTTP/1.0, four routes, close
   after each response — enough for Prometheus, curl, an orchestrator
   probe, and the CI smoke *)
let serve_metrics_http t sock =
  let handle fd =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        try
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
          let buf = Bytes.create 2048 in
          let n = try Unix.read fd buf 0 2048 with _ -> 0 in
          let req = Bytes.sub_string buf 0 n in
          let line =
            match String.index_opt req '\r' with
            | Some i -> String.sub req 0 i
            | None -> req
          in
          let status, ctype, body =
            if contains_sub line "/healthz" then ("200 OK", "text/plain", "ok\n")
            else if contains_sub line "/readyz" then
              if ready t then ("200 OK", "text/plain", "ready\n")
              else ("503 Service Unavailable", "text/plain", "not ready\n")
            else if contains_sub line ".json" then
              ("200 OK", "application/json", Mctel.Metrics.to_json ())
            else
              ( "200 OK",
                "text/plain; version=0.0.4",
                Mctel.Metrics.to_prometheus () )
          in
          let resp =
            Printf.sprintf
              "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: \
               %d\r\nConnection: close\r\n\r\n%s"
              status ctype (String.length body) body
          in
          http_write_all fd resp 0 (String.length resp)
        with _ -> ())
  in
  let rec loop () =
    if not (draining t) then begin
      (match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true sock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> handle fd)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close sock with _ -> ())

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  Mcobs.logf Mcobs.Normal "mcheckd: listening on %s"
    (Proto.addr_to_string t.cfg.addr);
  let metrics_thread =
    Option.map
      (fun sock ->
        Mcobs.logf Mcobs.Normal "mcheckd: metrics on %s"
          (Proto.addr_to_string
             (Option.get t.cfg.telemetry.tel_metrics_addr));
        Thread.create (fun () -> serve_metrics_http t sock) ())
      t.msock
  in
  let rec loop () =
    let finished =
      locked t.mu (fun () ->
          t.is_draining && t.conns = 0 && t.inflight_n = 0)
    in
    if not finished then begin
      (match Unix.select [ t.lsock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.lsock with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
        | fd, _ ->
          let draining =
            locked t.mu (fun () ->
                t.conns <- t.conns + 1;
                Mctel.Metrics.set m_conns t.conns;
                t.is_draining)
          in
          (* refuse politely rather than leaving the peer hanging *)
          let serve = if draining then refuse_conn else handle_conn in
          ignore (Thread.create (fun () -> serve t fd) ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.lsock with _ -> ());
  (match t.cfg.addr with
  | Proto.Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Proto.Tcp _ -> ());
  Option.iter Thread.join metrics_thread;
  (match t.cfg.telemetry.tel_metrics_addr with
  | Some (Proto.Unix_sock path) -> ( try Unix.unlink path with _ -> ())
  | _ -> ());
  (* every in-flight request has finished (the drain condition above),
     so this only retires idle workers — each publishes its cache on
     EOF and exits cleanly *)
  Option.iter Mcsup.close t.sup;
  locked t.session_mu (fun () -> Mcheck_api.Session.close t.session);
  Mctel.Accesslog.close t.access;
  Mcobs.logf Mcobs.Normal "mcheckd: drained, %d request(s) served"
    t.requests
