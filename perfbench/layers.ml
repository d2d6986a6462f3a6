(* The traced run: the workload's inputs replayed in-process through each
   layer's public functions, with a span around every call.

   Each replayed request is one span tree rooted at "request", holding
   the calls the production path makes for it, in order; the waterfall
   is built from these trees.  Layers the production path does not show
   as a separate call (standalone lexing, CFG prep, the product scan, the
   Mcd scheduler, a cold session) are timed on the same input as
   "probe" trees, outside the request, so every per-layer metric has a
   value on every workload while the waterfall stays the request's own
   time.

   Before the replay, a short untraced phase measures what the replay
   cannot see: the spawned or served latency of the same inputs, whose
   difference from the in-process time is the process and serving
   residual. *)

let daemon_config = { Mcheck_api.default_config with Mcheck_api.jobs = 1; incremental = true }

(* ------------------------------------------------------------------ *)
(* Per-request samples                                                 *)
(* ------------------------------------------------------------------ *)

(* named samples, one value per replayed request *)
type samples = (string, float list) Hashtbl.t

let add (s : samples) k v =
  Hashtbl.replace s k (v :: Option.value ~default:[] (Hashtbl.find_opt s k))

let med (s : samples) k = Bstats.median (Option.value ~default:[] (Hashtbl.find_opt s k))

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* time [f] as span [name] and record its duration under [name] *)
let span tr s name f =
  let r, ms = timed (fun () -> Tracer.with_span tr name f) in
  add s name ms;
  r

let machines spec =
  Array.of_list
    (List.filter_map
       (fun (c : Registry.checker) ->
         match c.Registry.phase with
         | Registry.Per_function { product; _ } -> product ~spec
         | Registry.Whole_program _ -> None)
       Registry.all)

let render diags = String.concat "" (List.map (Mcheck_api.render_diag Inputs.ropts) diags)

let memo_hits = Mctel.Metrics.counter "mcheck_memo_hits_total"
let memo_probes = Mctel.Metrics.counter "mcheck_memo_probes_total"

(* the reply frames the daemon writes for a rendered report *)
let reply_frames texts (report : Mcheck_api.report) =
  let frame r = Serve.Proto.frame (Serve.Proto.encode_response r) in
  List.map
    (fun text -> frame (Serve.Proto.R_diag { d_checker = ""; d_severity = ""; d_internal = false; d_text = text }))
    texts
  @ [
      frame
        (Serve.Proto.R_done
           {
             rd_exit = Robust.exit_code report.Mcheck_api.r_outcome;
             rd_findings = report.Mcheck_api.r_findings;
             rd_diags = List.length texts;
           });
    ]

let decode_frame req =
  let h = Serve.Proto.header_len in
  match Serve.Proto.decode_request (String.sub req h (String.length req - h)) with
  | Ok r -> r
  | Error e -> failwith ("request frame did not round-trip: " ^ e)

let parse_threaded srcs =
  let typedefs = ref [] in
  let diags = ref [] in
  let tus =
    List.map
      (fun (file, src) ->
        let tu, ds = Parser.parse_string_recovering ~file ~typedefs:!typedefs src in
        diags := List.rev_append ds !diags;
        List.iter (function Ast.Gtypedef (name, _, _) -> typedefs := name :: !typedefs | _ -> ()) tu.Ast.tu_globals;
        tu)
      srcs
  in
  (tus, List.rev !diags)

(* the front end as [Frontend.parse_strings] runs it, split into its
   parse and typecheck calls *)
let front ~traced tr s srcs =
  let sp name f = if traced then span tr s name f else f () in
  let a0 = Gc.allocated_bytes () in
  let tus, diags = sp "cfront.parse" (fun () -> parse_threaded srcs) in
  if traced then add s "cfront.alloc_mb" ((Gc.allocated_bytes () -. a0) /. 1e6);
  sp "cfront.typecheck" (fun () -> ignore (Typecheck.annotate_program tus));
  (tus, diags)

let last s k = match Hashtbl.find_opt s k with Some (v :: _) -> v | _ -> 0.

(* The layer probes for one request, timed on its own inputs outside the
   request tree.  [srcs] are (name, text) pairs as the program receives
   them.  [done_on_path] says the request path already ran the front end
   and the checker driver (cli_corpus) and passes its units; otherwise
   they run here.  [session_check] makes the request's call on a session;
   it runs on a cold session with the daemon's configuration, then again
   for the memo hit.  [cache] is the Mcd cache the probe uses. *)
let probes tr s ~cache ~session_check ~read ~done_on_path srcs =
  let sp name f = span tr s name f in
  Tracer.with_span tr "probe" (fun () ->
      Option.iter (fun paths -> ignore (sp "api.read" (fun () -> Mcheck_api.read_sources ~strict:false paths))) read;
      let srcs = List.map (fun (n, src) -> (n, Prelude.text ^ src)) srcs in
      let bytes = List.fold_left (fun n (_, src) -> n + String.length src) 0 srcs in
      sp "cfront.lex" (fun () ->
          List.iter (fun (file, src) -> ignore (Lexer.tokens_recovering ~file src)) srcs);
      add s "cfront.lex.mb_s" (float_of_int bytes /. 1e6 /. (last s "cfront.lex" /. 1000.));
      let tus =
        match done_on_path with
        | Some tus -> tus
        | None -> fst (front ~traced:true tr s srcs)
      in
      let spec = Mcheck_api.default_spec tus in
      let preps =
        sp "cfg.prep" (fun () -> List.concat_map (fun tu -> List.map Prep.build (Ast.functions tu)) tus)
      in
      add s "cfg.prep.functions" (float_of_int (List.length preps));
      add s "cfg.prep.events"
        (float_of_int (List.fold_left (fun n (p : Prep.t) -> n + Array.length p.Prep.soa.Prep.ev_expr) 0 preps));
      let ms = machines spec in
      let dirty, scanned =
        sp "core.scan" (fun () ->
            List.fold_left
              (fun (d, n) p ->
                match Engine.product_scan p ms with
                | flags -> (d + Array.fold_left (fun k b -> if b then k + 1 else k) 0 flags, n + Array.length ms)
                | exception Engine.Product_overflow -> (d + Array.length ms, n + Array.length ms))
              (0, 0) preps)
      in
      add s "core.scan.dirty_ratio" (float_of_int dirty /. float_of_int (max 1 scanned));
      if done_on_path = None then begin
        let results = sp "checkers.run" (fun () -> Registry.run_all_product ~spec tus) in
        add s "checkers.diags" (float_of_int (List.fold_left (fun n (_, ds) -> n + List.length ds) 0 results))
      end;
      (* an estimate, reported as measured: it can dip below 0 when the
         standalone prep and scan ran slower than inside the driver *)
      add s "checkers.rerun.ms" (last s "checkers.run" -. last s "cfg.prep" -. last s "core.scan");
      let _, stats = sp "mcd" (fun () -> Mcd.check_corpus ~cache:(cache ()) ~jobs:1 ~spec tus) in
      add s "mcd.hit_ratio" (float_of_int stats.Mcd.cache_hits /. float_of_int (max 1 stats.Mcd.units_total));
      add s "mcd.units_run" (float_of_int stats.Mcd.units_run);
      sp "mcd.digest" (fun () ->
          List.iter (fun tu -> List.iter (fun f -> ignore (Mcd.func_digest tu.Ast.tu_file f)) (Ast.functions tu)) tus);
      let sess = Mcheck_api.Session.create ~config:daemon_config () in
      let p0 = Mctel.Metrics.counter_value memo_probes and h0 = Mctel.Metrics.counter_value memo_hits in
      ignore (sp "api.session" (fun () -> session_check sess));
      let report = sp "api.memo" (fun () -> session_check sess) in
      add s "probe.memo.hit_ratio"
        (float_of_int (Mctel.Metrics.counter_value memo_hits - h0)
        /. float_of_int (max 1 (Mctel.Metrics.counter_value memo_probes - p0)));
      report)

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

let gc_counts () =
  let g = Gc.quick_stat () in
  (g.Gc.minor_collections, g.Gc.major_collections)

(* one request tree, with GC counts around it; [traced = false] runs the
   same calls with the span store left untouched, for the overhead *)
let request tr s ~traced i path =
  let m0, j0 = gc_counts () in
  let r, ms =
    timed (fun () ->
        if traced then Tracer.with_request tr i (fun () -> Tracer.with_span tr "request" path)
        else path ())
  in
  let m1, j1 = gc_counts () in
  if traced then begin
    add s "wall.traced" ms;
    add s "gc.minor_collections" (float_of_int (m1 - m0));
    add s "gc.major_collections" (float_of_int (j1 - j0))
  end
  else add s "wall.untraced" ms;
  r

(* cli_corpus: what mcheck -q FILES does, call by call; returns the
   parsed units for the probes and the rendered output *)
let cli_path tr s ~traced paths () =
  let sp name f = if traced then span tr s name f else f () in
  let srcs, _ = sp "api.read" (fun () -> Mcheck_api.read_sources ~strict:false paths) in
  let tus, parse_diags = front ~traced tr s srcs in
  let results = sp "checkers.run" (fun () -> Registry.run_all_product ~spec:(Mcheck_api.default_spec tus) tus) in
  let diags = parse_diags @ List.concat_map snd results in
  let out = sp "api.render" (fun () -> render diags) in
  if traced then begin
    add s "checkers.diags" (float_of_int (List.length diags));
    add s "api.render.bytes" (float_of_int (String.length out))
  end;
  (tus, out)

(* cli_corpus has no serving codec on its path; the probe times the
   codec on the same traffic sent as one check_files request *)
let proto_probe tr s paths (report : Mcheck_api.report) =
  Tracer.with_span tr "probe" (fun () ->
      let req =
        Serve.Proto.frame (Serve.Proto.encode_request (Serve.Proto.Check_files (Serve.Proto.default_opts, paths)))
      in
      ignore (span tr s "serve.proto.decode" (fun () -> decode_frame req));
      let texts = List.map (Mcheck_api.render_diag Inputs.ropts) (Mcheck_api.report_diags report) in
      let frames = span tr s "serve.proto.encode" (fun () -> reply_frames texts report) in
      add s "serve.proto.bytes"
        (float_of_int (String.length req + List.fold_left (fun n f -> n + String.length f) 0 frames)))

(* a served request as the daemon handles it: decode the frame [req]
   (framed by the client, outside the request), check the buffer on the
   warm session, render, encode the reply frames; returns the rendered
   reply *)
let served_path tr s ~traced sess req () =
  let sp name f = if traced then span tr s name f else f () in
  let p0 = Mctel.Metrics.counter_value memo_probes and h0 = Mctel.Metrics.counter_value memo_hits in
  let name, contents =
    match sp "serve.proto.decode" (fun () -> decode_frame req) with
    | Serve.Proto.Check_buffer (_, n, c) -> (n, c)
    | _ -> failwith "request frame did not round-trip"
  in
  let report = sp "api.check_buffer" (fun () -> Mcheck_api.Session.check_buffer sess ~name ~contents) in
  let texts = sp "api.render" (fun () -> List.map (Mcheck_api.render_diag Inputs.ropts) (Mcheck_api.report_diags report)) in
  let frames = sp "serve.proto.encode" (fun () -> reply_frames texts report) in
  if traced then begin
    add s "api.memo.hit_ratio"
      (float_of_int (Mctel.Metrics.counter_value memo_hits - h0)
      /. float_of_int (max 1 (Mctel.Metrics.counter_value memo_probes - p0)));
    add s "api.render.bytes" (float_of_int (List.fold_left (fun n t -> n + String.length t) 0 texts));
    add s "serve.proto.bytes"
      (float_of_int (String.length req + List.fold_left (fun n f -> n + String.length f) 0 frames))
  end;
  String.concat "" texts

(* ------------------------------------------------------------------ *)
(* Residuals: the same inputs spawned or served, untraced              *)
(* ------------------------------------------------------------------ *)

let inproc_files paths =
  snd (timed (fun () ->
           let sess = Mcheck_api.Session.create () in
           ignore (Mcheck_api.Session.check_files sess paths)))

(* spawned mcheck -q minus the same check in-process *)
let cli_process_ms (env : E2e.env) paths =
  Bstats.median
    (List.init 3 (fun _ ->
         let r = Procs.run env.E2e.mcheck ("-q" :: paths) in
         (r.Procs.wall_s *. 1000.) -. inproc_files paths))

(* served latency (sent to reply) minus the same call on an in-process
   session in the same state, paired per request.  [reqs] are the
   workload's requests in order, sent open-loop at [rate] over one
   connection after [opening]; the in-process replay runs afterwards,
   not interleaved, since checking in this process just before a send
   slows the daemon's reply. *)
let serve_residual (env : E2e.env) ~rate ~opening reqs =
  let d = match Procs.spawn_daemon ~log:"mcheckd.log" env.E2e.mcheckd with Ok d -> d | Error m -> failwith m in
  let c = match Procs.connect d.Procs.addr with Ok c -> c | Error e -> failwith (Serve.Client.err_to_string e) in
  let served req =
    match
      match req with
      | `Buffer (name, contents) -> Serve.Client.check_buffer c Serve.Proto.default_opts ~name ~contents
      | `Files paths -> Serve.Client.check_files c Serve.Proto.default_opts paths
    with
    | Ok (Serve.Client.Checked r) -> Some (E2e.reply_text r)
    | _ -> None
  in
  let opened = List.for_all (fun r -> served r <> None) opening in
  let reqs = Array.of_list reqs in
  let replies = Array.make (Array.length reqs) None in
  let t0 = Unix.gettimeofday () +. 0.05 in
  let recs =
    Openloop.run ~conns:1 ~count:(Array.length reqs) ~due:(Openloop.schedule ~t0 ~rate)
      ~send:(fun _ i ->
        replies.(i) <- served reqs.(i);
        replies.(i) <> None)
      ()
  in
  Serve.Client.close c;
  let clean = Procs.stop_daemon d in
  let sess = Mcheck_api.Session.create ~config:daemon_config () in
  let inproc req =
    let report =
      match req with
      | `Buffer (name, contents) -> Mcheck_api.Session.check_buffer sess ~name ~contents
      | `Files paths -> Mcheck_api.Session.check_files sess paths
    in
    render (Mcheck_api.report_diags report)
  in
  List.iter (fun r -> ignore (inproc r)) opening;
  let same = ref true in
  let residual =
    Bstats.median
      (List.mapi
         (fun i r ->
           let text, ms = timed (fun () -> inproc reqs.(i)) in
           if replies.(i) <> Some text then same := false;
           Openloop.service_ms r -. ms)
         recs)
  in
  let late = Bstats.percentile (List.map Openloop.late_ms recs) 99. in
  ( residual,
    late,
    [ ("served_requests_ok", opened && clean && List.for_all (fun r -> r.Openloop.ok) recs);
      ("daemon_replies_equal_in_process", !same) ],
    List.length recs )

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let run ~workload (env : E2e.env) : E2e.outcome =
  let inp = env.E2e.inp in
  let files = inp.Inputs.files in
  let tr = Tracer.create () in
  let s : samples = Hashtbl.create 64 in
  let deadline = Unix.gettimeofday () +. env.E2e.seconds in
  let edits n =
    let st = Inputs.stream inp in
    List.init n (fun _ ->
        let fi, contents = Inputs.next st in
        `Buffer (files.(fi).Inputs.name, contents))
  in
  let opening = Array.to_list (Array.map (fun (f : Inputs.file) -> `Buffer (f.Inputs.name, f.Inputs.src)) files) in
  (* untraced residual phase *)
  let residual, late, residual_checks, residual_n =
    match workload with
    | "cli_corpus" -> serve_residual env ~rate:1. ~opening:[] (List.init 4 (fun _ -> `Files env.E2e.paths))
    | _ -> serve_residual env ~rate:E2e.light_rps ~opening (edits 24)
  in
  let process_paths =
    if workload = "cli_corpus" then env.E2e.paths
    else [ "src/" ^ files.(0).Inputs.name ]
  in
  let cli_process = cli_process_ms env process_paths in
  (* the traced replay; every request also runs untraced on a second
     session in the same state, in alternating order, for the overhead *)
  let min_requests = if workload = "cli_corpus" then 3 else 20 in
  let sess = Mcheck_api.Session.create ~config:daemon_config () in
  let sess_u = Mcheck_api.Session.create ~config:daemon_config () in
  let mcd_cache = Mcd_cache.create () in
  let stream = Inputs.stream inp in
  if workload <> "cli_corpus" then
    List.iter
      (fun (f : Inputs.file) ->
        ignore (Mcheck_api.Session.check_buffer sess ~name:f.Inputs.name ~contents:f.Inputs.src);
        ignore (Mcheck_api.Session.check_buffer sess_u ~name:f.Inputs.name ~contents:f.Inputs.src);
        let tus, _ = Frontend.parse_strings [ (f.Inputs.name, Prelude.text ^ f.Inputs.src) ] in
        ignore (Mcd.check_corpus ~cache:mcd_cache ~jobs:1 ~spec:(Mcheck_api.default_spec tus) tus))
      (Array.to_list files);
  let i = ref 0 and twins_agree = ref true in
  while !i < min_requests || Unix.gettimeofday () < deadline do
    let k = !i in
    let pair traced_run untraced_run =
      let t, u =
        if k mod 2 = 0 then
          let t = traced_run () in
          (t, untraced_run ())
        else
          let u = untraced_run () in
          (traced_run (), u)
      in
      if t <> u then twins_agree := false;
      t
    in
    (match workload with
    | "cli_corpus" ->
      let tus = ref [] in
      ignore
        (pair
           (fun () ->
             request tr s ~traced:true k (fun () ->
                 let t, out = cli_path tr s ~traced:true env.E2e.paths () in
                 tus := t;
                 out))
           (fun () -> request tr s ~traced:false k (fun () -> snd (cli_path tr s ~traced:false env.E2e.paths ()))));
      Tracer.with_request tr k (fun () ->
          let report =
            probes tr s ~cache:Mcd_cache.create ~read:None ~done_on_path:(Some !tus)
              ~session_check:(fun sess -> Mcheck_api.Session.check_files sess env.E2e.paths)
              (List.map2 (fun p (f : Inputs.file) -> (p, f.Inputs.src)) env.E2e.paths (Array.to_list files))
          in
          proto_probe tr s env.E2e.paths report)
    | _ ->
      let fi, contents = Inputs.next stream in
      let name = files.(fi).Inputs.name in
      let req =
        Serve.Proto.frame
          (Serve.Proto.encode_request (Serve.Proto.Check_buffer (Serve.Proto.default_opts, name, contents)))
      in
      ignore
        (pair
           (fun () -> request tr s ~traced:true k (served_path tr s ~traced:true sess req))
           (fun () -> request tr s ~traced:false k (served_path tr s ~traced:false sess_u req)));
      Tracer.with_request tr k (fun () ->
          ignore
            (probes tr s
               ~cache:(fun () -> mcd_cache)
               ~read:(Some [ "src/" ^ name ]) ~done_on_path:None
               ~session_check:(fun sess -> Mcheck_api.Session.check_buffer sess ~name ~contents)
               [ (name, contents) ])));
    incr i
  done;
  let spans = Tracer.spans tr in
  Tracer.write_chrome (Printf.sprintf "../trace-%s-%d.json" workload inp.Inputs.seed) spans;
  let w = Tracer.waterfall ~root:"request" spans in
  let traced_ms = med s "wall.traced" and untraced_ms = med s "wall.untraced" in
  let per_req x = x /. float_of_int (max 1 w.Tracer.w_requests) in
  Printf.printf "# waterfall: %s, %d traced requests, per-request wall %.3f ms\n" workload w.Tracer.w_requests
    (per_req w.Tracer.w_wall_ms);
  Tracer.pp_waterfall stdout w;
  (* parsing includes lexing and the checker driver includes prep and the
     scan; the probes give their shares *)
  Printf.printf "# inside the rows, from probes on the same inputs (per request, not in the sum above):\n";
  Printf.printf "#   cfront.lex %.3f ms of cfront.parse %.3f ms\n" (med s "cfront.lex") (med s "cfront.parse");
  Printf.printf "#   cfg.prep %.3f ms + core.scan %.3f ms + rerun %.3f ms of checkers.run %.3f ms\n"
    (med s "cfg.prep") (med s "core.scan") (med s "checkers.rerun.ms") (med s "checkers.run");
  flush stdout;
  let unattributed = per_req w.Tracer.w_unattributed_ms in
  let metric name unit v = (name, (v, unit)) in
  let metrics =
    [
      metric "api.read.ms" "ms" (med s "api.read");
      metric "cfront.lex.ms" "ms" (med s "cfront.lex");
      metric "cfront.lex.mb_s" "MB/s" (med s "cfront.lex.mb_s");
      metric "cfront.parse.ms" "ms" (med s "cfront.parse");
      metric "cfront.alloc_mb" "MB" (med s "cfront.alloc_mb");
      metric "cfront.typecheck.ms" "ms" (med s "cfront.typecheck");
      metric "cfg.prep.ms" "ms" (med s "cfg.prep");
      metric "cfg.prep.functions" "count" (med s "cfg.prep.functions");
      metric "cfg.prep.events" "count" (med s "cfg.prep.events");
      metric "core.scan.ms" "ms" (med s "core.scan");
      metric "core.scan.dirty_ratio" "ratio" (med s "core.scan.dirty_ratio");
      metric "checkers.run.ms" "ms" (med s "checkers.run");
      metric "checkers.rerun.ms" "ms" (med s "checkers.rerun.ms");
      metric "checkers.diags" "count" (med s "checkers.diags");
      metric "mcd.ms" "ms" (med s "mcd");
      metric "mcd.digest.ms" "ms" (med s "mcd.digest");
      metric "mcd.hit_ratio" "ratio" (med s "mcd.hit_ratio");
      metric "mcd.units_run" "count" (med s "mcd.units_run");
      metric "api.session.ms" "ms" (med s "api.session");
      metric "api.memo.ms" "ms" (med s "api.memo");
      metric "api.memo.hit_ratio" "ratio"
        (if workload = "cli_corpus" then med s "probe.memo.hit_ratio" else med s "api.memo.hit_ratio");
      metric "api.render.ms" "ms" (med s "api.render");
      metric "api.render.bytes" "bytes" (med s "api.render.bytes");
      metric "serve.proto.ms" "ms" (med s "serve.proto.decode" +. med s "serve.proto.encode");
      metric "serve.proto.bytes" "bytes" (med s "serve.proto.bytes");
      metric "serve.residual.ms" "ms" residual;
      metric "cli.process.ms" "ms" cli_process;
      metric "unattributed.ms" "ms" unattributed;
      metric "gc.minor_collections" "count" (med s "gc.minor_collections");
      metric "gc.major_collections" "count" (med s "gc.major_collections");
      metric "trace.overhead_pct" "%" (100. *. (traced_ms -. untraced_ms) /. untraced_ms);
      metric "bench.gen_late_ms" "ms" late;
    ]
  in
  (* the root spans' durations, which the rows and unattributed add up
     to, against the request walls timed outside the tracer *)
  let timed_wall = List.fold_left ( +. ) 0. (Option.value ~default:[] (Hashtbl.find_opt s "wall.traced")) in
  {
    E2e.metrics;
    attempted = !i + residual_n;
    failed = List.length (List.filter (fun (_, ok) -> not ok) residual_checks);
    checks =
      residual_checks
      @ [
          ("traced_and_untraced_outputs_equal", !twins_agree);
          ( "waterfall_wall_matches_timed_wall",
            Float.abs (timed_wall -. w.Tracer.w_wall_ms) <= (0.02 *. timed_wall) +. (0.1 *. float_of_int w.Tracer.w_requests) );
        ];
    notes =
      [
        ("traced_requests", Bjson.Num (float_of_int w.Tracer.w_requests));
        ("wall_traced_ms", Bjson.Num traced_ms);
        ("wall_untraced_ms", Bjson.Num untraced_ms);
        ("waterfall_wall_ms", Bjson.Num w.Tracer.w_wall_ms);
        ("timed_wall_ms", Bjson.Num timed_wall);
        ("spans", Bjson.Num (float_of_int (List.length spans)));
      ];
  }
