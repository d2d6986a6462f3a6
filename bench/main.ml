(** The benchmark and reproduction harness.

    Running [dune exec bench/main.exe] does three things, in order:

    1. regenerates every table and figure of the paper's evaluation from
       the synthetic corpus (paper numbers beside measured numbers);
    2. runs the static-vs-dynamic comparison behind the paper's
       motivation (Section 2) and the ablations DESIGN.md calls out;
    3. times the pipeline with Bechamel — one [Test.make] per table
       regeneration, plus per-checker, front-end, and simulator
       micro-benchmarks.

    Pass [tables] / [sim] / [ablations] / [bench] to run one part, or
    [tableN] for a single table. *)

let corpus = lazy (Corpus.generate ())

(* ------------------------------------------------------------------ *)
(* Host context, stamped into every BENCH_*.json this binary writes    *)
(* ------------------------------------------------------------------ *)

let git_rev =
  lazy
    (try
       let ic =
         Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
       in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* opens the JSON object and writes the "host" field; the caller's
   format string continues with the measurement fields *)
let write_host_header oc =
  Printf.fprintf oc
    "{\n  \"host\": { \"cores\": %d, \"ocaml\": %S, \"git_rev\": %S },\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Lazy.force git_rev)

(* ------------------------------------------------------------------ *)
(* Part 1: tables                                                      *)
(* ------------------------------------------------------------------ *)

let print_table n =
  let c = Lazy.force corpus in
  let table =
    match n with
    | 1 -> Experiments.table1 c
    | 2 -> Experiments.table2 c
    | 3 -> Experiments.table3 c
    | 4 -> Experiments.table4 c
    | 5 -> Experiments.table5 c
    | 6 -> Experiments.table6 c
    | 7 -> Experiments.table7 c
    | _ -> invalid_arg "table number"
  in
  Table.print table;
  print_newline ()

let print_all_tables () =
  print_endline
    "================ paper tables (cells are paper/measured) \
     ================";
  print_newline ();
  let c = Lazy.force corpus in
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    (Experiments.all c)

(* ------------------------------------------------------------------ *)
(* Part 2: the Section 2 motivation and the ablations                  *)
(* ------------------------------------------------------------------ *)

let print_sim_comparison () =
  print_endline
    "================ static checking vs FlashLite-style simulation \
     ================";
  print_newline ();
  let tus = Golden.program Golden.Buggy in
  print_endline "metal checkers on the buggy golden protocol:";
  List.iter
    (fun (c : Registry.checker) ->
      List.iter
        (fun d -> Format.printf "  %a@." Diag.pp d)
        (c.Registry.run ~spec:Golden.spec tus))
    Registry.all;
  print_newline ();
  List.iter
    (fun (variant, label) ->
      Printf.printf "simulation, %s protocol (4000 transactions):\n" label;
      let r =
        Sim.run
          { Sim.default_config with Sim.transactions = 4000; variant }
      in
      Format.printf "%a@.@." Sim.pp_result r)
    [ (Golden.Clean, "clean"); (Golden.Buggy, "buggy") ]

let print_ablations () =
  print_endline "================ ablations ================";
  print_newline ();
  let c = Lazy.force corpus in
  (* (a) the lanes checker's fixed-point rule *)
  let count_lanes fixed_point =
    List.fold_left
      (fun acc (p : Corpus.protocol) ->
        acc
        + List.length
            (Lane_checker.run ~fixed_point ~spec:p.Corpus.spec p.Corpus.tus))
      0 c.Corpus.protocols
  in
  Printf.printf
    "lanes checker reports, whole corpus:\n\
    \  with the fixed-point rule (paper):    %d\n\
    \  without it (every loop+send flagged): %d\n\n"
    (count_lanes true) (count_lanes false);
  (* (b) the directory checker's NAK pruning *)
  let count_dir nak_pruning =
    List.fold_left
      (fun acc (p : Corpus.protocol) ->
        acc
        + List.length
            (Dir_entry.run ~nak_pruning ~spec:p.Corpus.spec p.Corpus.tus))
      0 c.Corpus.protocols
  in
  Printf.printf
    "directory checker reports, whole corpus:\n\
    \  with speculative-NAK pruning (paper): %d\n\
    \  without it:                           %d\n\n"
    (count_dir true) (count_dir false)

(* ------------------------------------------------------------------ *)
(* Part 2b: rarity sensitivity                                         *)
(* ------------------------------------------------------------------ *)

(* The quantitative heart of the motivation: the rarer the corner
   condition, the longer dynamic testing needs to stumble on the bug
   (and below some rate it simply never does in the budget), while the
   static checkers are oblivious to rarity. *)
let print_sensitivity () =
  print_endline
    "================ rarity vs time-to-detection (buggy protocol)      ================";
  print_newline ();
  let budget = 8000 in
  let seeds = [ 11; 23; 37; 51; 73 ] in
  Printf.printf
    "corner-path probability swept; %d-transaction budget; cells are the\n\
     mean transaction of first manifestation over %d workload seeds\n\
     (n/m = only n of m seeds ever hit it)\n\n"
    budget (List.length seeds);
  Printf.printf "  %-8s %-12s %-12s %-14s\n" "corner%" "double free"
    "fill race" "len mismatch";
  List.iter
    (fun pct ->
      let runs =
        List.map
          (fun seed ->
            Sim.run
              {
                Sim.default_config with
                Sim.transactions = budget;
                variant = Golden.Buggy;
                seed;
                corner_flag_pct = pct;
                fill_delay_pct = pct;
                queue_pressure_pct = pct;
              })
          seeds
      in
      let cell cls =
        let hits =
          List.filter_map
            (fun (r : Sim.result) ->
              List.assoc_opt cls r.Sim.first_detection)
            runs
        in
        match hits with
        | [] -> "-"
        | _ when List.length hits < List.length seeds ->
          Printf.sprintf "%d/%d" (List.length hits) (List.length seeds)
        | _ ->
          string_of_int (List.fold_left ( + ) 0 hits / List.length hits)
      in
      Printf.printf "  %-8d %-12s %-12s %-14s\n" pct (cell "double free")
        (cell "fill race") (cell "length mismatch"))
    [ 20; 10; 5; 2; 1 ];
  print_newline ();
  print_endline
    "  (the static checkers flag all three sites in one pass regardless)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2c: the Mcd parallel/incremental scheduler                     *)
(* ------------------------------------------------------------------ *)

(* Full-corpus wall-clock comparison: the sequential engine vs the Mcd
   work pool at 1/2/4/8 domains, then a warm-cache incremental re-check
   after editing one handler.  The numbers land in BENCH_PARALLEL.json
   so future PRs can track the perf trajectory. *)

(* the wiring helpers now live in Mcheck_api, shared with the bins *)
let mcd_jobs = Mcheck_api.corpus_jobs
let render_results = Mcheck_api.render_results
let time_ms = Mcheck_api.time_ms

(* the "one handler edited" workload: append a harmless statement to the
   first handler of the first protocol *)
let edit_one_handler (c : Corpus.t) : Mcd.job list * string =
  let p = List.hd c.Corpus.protocols in
  let target =
    (List.hd p.Corpus.spec.Flash_api.p_handlers).Flash_api.h_name
  in
  let edit (tu : Ast.tunit) =
    {
      tu with
      Ast.tu_globals =
        List.map
          (function
            | Ast.Gfunc f when String.equal f.Ast.f_name target ->
              Ast.Gfunc
                {
                  f with
                  Ast.f_body =
                    f.Ast.f_body
                    @ [ Ast.mk_stmt (Ast.Sexpr (Ast.int_lit 424242)) ];
                }
            | g -> g)
          tu.Ast.tu_globals;
    }
  in
  let jobs =
    List.map
      (fun (q : Corpus.protocol) ->
        if q == p then
          { Mcd.spec = q.Corpus.spec; tus = List.map edit q.Corpus.tus }
        else { Mcd.spec = q.Corpus.spec; tus = q.Corpus.tus })
      c.Corpus.protocols
  in
  (jobs, target)

let run_parallel () =
  print_endline
    "================ Mcd parallel/incremental scheduler ================";
  print_newline ();
  let c = Lazy.force corpus in
  let jobs = mcd_jobs c in
  Printf.printf "host: %d core(s) recommended by the runtime\n\n"
    (Domain.recommended_domain_count ());
  let seq_results, seq_ms =
    time_ms (fun () ->
        List.map
          (fun (p : Corpus.protocol) ->
            Registry.run_all ~spec:p.Corpus.spec p.Corpus.tus)
          c.Corpus.protocols)
  in
  let baseline = render_results seq_results in
  Printf.printf "  %-34s %8.0f ms\n" "sequential Registry.run_all" seq_ms;
  let all_identical = ref true in
  let cold_times =
    List.map
      (fun domains ->
        let (results, _), ms =
          time_ms (fun () -> Mcd.check_jobs ~jobs:domains jobs)
        in
        let same = String.equal (render_results results) baseline in
        if not same then all_identical := false;
        Printf.printf "  mcd --jobs %-24d %8.0f ms   (%.2fx, identical=%b)\n"
          domains ms (seq_ms /. ms) same;
        (domains, ms))
      [ 1; 2; 4; 8 ]
  in
  (* incremental: cold fill, then a one-handler edit, then warm *)
  let cache = Mcd_cache.create () in
  let (_, cold_stats), cold_ms =
    time_ms (fun () -> Mcd.check_jobs ~cache ~jobs:4 jobs)
  in
  let edited_jobs, edited = edit_one_handler c in
  let (warm_results, warm_stats), warm_ms =
    time_ms (fun () -> Mcd.check_jobs ~cache ~jobs:4 edited_jobs)
  in
  let warm_expected, _ =
    time_ms (fun () ->
        List.map
          (fun (j : Mcd.job) -> Registry.run_all ~spec:j.Mcd.spec j.Mcd.tus)
          edited_jobs)
  in
  let warm_same =
    String.equal (render_results warm_results) (render_results warm_expected)
  in
  if not warm_same then all_identical := false;
  let unit_pct =
    100.0
    *. float_of_int warm_stats.Mcd.units_run
    /. float_of_int cold_stats.Mcd.units_run
  in
  let hit_rate =
    100.0
    *. float_of_int warm_stats.Mcd.cache_hits
    /. float_of_int warm_stats.Mcd.units_total
  in
  Printf.printf
    "\n\
    \  cold cache fill (4 domains):        %8.0f ms   (%d units)\n\
    \  warm re-check after editing %s:\n\
    \    %8.0f ms — %d of %d units re-run (%.1f%% of cold work), \
     %.1f%% hit rate, identical=%b\n\n"
    cold_ms cold_stats.Mcd.units_run edited warm_ms
    warm_stats.Mcd.units_run cold_stats.Mcd.units_run unit_pct hit_rate
    warm_same;
  let speedup d =
    match List.assoc_opt d cold_times with
    | Some ms -> seq_ms /. ms
    | None -> 0.0
  in
  let oc = open_out "BENCH_PARALLEL.json" in
  write_host_header oc;
  Printf.fprintf oc
    "\
    \  \"cores\": %d,\n\
    \  \"sequential_ms\": %.1f,\n\
    \  \"mcd_1_ms\": %.1f,\n\
    \  \"mcd_2_ms\": %.1f,\n\
    \  \"mcd_4_ms\": %.1f,\n\
    \  \"mcd_8_ms\": %.1f,\n\
    \  \"speedup_4\": %.3f,\n\
    \  \"warm_units_run\": %d,\n\
    \  \"cold_units_run\": %d,\n\
    \  \"warm_unit_pct\": %.2f,\n\
    \  \"warm_hit_rate_pct\": %.2f,\n\
    \  \"warm_ms\": %.1f,\n\
    \  \"diagnostics_identical\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    seq_ms
    (List.assoc 1 cold_times)
    (List.assoc 2 cold_times)
    (List.assoc 4 cold_times)
    (List.assoc 8 cold_times)
    (speedup 4) warm_stats.Mcd.units_run cold_stats.Mcd.units_run unit_pct
    hit_rate warm_ms !all_identical;
  close_out oc;
  print_endline "  wrote BENCH_PARALLEL.json"

(* ------------------------------------------------------------------ *)
(* Part 2c': the fused engine                                          *)
(* ------------------------------------------------------------------ *)

(* The headline engine benchmark: the product-automaton driver (one
   fused walk per function over the composed machines, SoA event
   streams, dirty-machine rerun) and the fused sequential driver (one
   shared Prep per function, root-indexed rule dispatch) against the
   legacy per-checker path, plus the function-batched Mcd pool swept
   per jobs out to the measured core count.  The numbers — including
   the {jobs -> ms} scaling curve and the calibrated 2-domain parallel
   capacity — land in BENCH_ENGINE.json; the full run also fails when
   2-domain scaling falls short of 60% of the capacity the host
   measurably delivers.  [--quick] is the CI smoke gate — best of two
   repetitions, and a hard failure when the product driver regresses
   past 1.10x the fused time, the 2-domain run past 1.25x (noise-
   tolerant tripwires, not precision measurements), or any pipeline's
   diagnostics differ. *)

(* the PR-1 sequential full-corpus wall time (BENCH_PARALLEL.json at the
   time), the fixed yardstick the fused engine is measured against *)
let baseline_pr1_ms = 2711.3

(* Measured parallel capacity: how much speedup [d] compute-bound OCaml
   domains actually achieve on this host, runtime included.  Containers
   routinely advertise N cores but cap the cgroup's cpu shares below
   N (this is visible as two busy loops each running at ~70%), so
   [Domain.recommended_domain_count] alone cannot justify a scaling
   assertion.  The calibration loop is pure arithmetic — no allocation,
   so no GC rendezvous — which makes it an upper bound on what any
   allocating workload could scale to. *)
let parallel_capacity ~domains =
  let iters = 60_000_000 in
  let spin () =
    let x = ref 1 in
    for i = 1 to iters do
      x := (!x * 48271) + i
    done;
    ignore (Sys.opaque_identity !x)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let together () =
    wall (fun () ->
        let others =
          Array.init (domains - 1) (fun _ -> Domain.spawn spin)
        in
        spin ();
        Array.iter Domain.join others)
  in
  (* interleaved repetitions, minimum of each: a host-scheduler burst
     during a single solo run would otherwise report an impossible
     capacity.  The ratio of the two burst-free minima is the honest
     figure, and no host delivers more than [domains]x. *)
  let reps = 3 in
  let solo_ms = ref infinity and together_ms = ref infinity in
  for _ = 1 to reps do
    solo_ms := min !solo_ms (wall spin);
    together_ms := min !together_ms (together ())
  done;
  Float.min
    (float_of_int domains)
    (max 1.0 (float_of_int domains *. !solo_ms /. !together_ms))

let run_engine ~quick () =
  print_endline
    "================ fused engine benchmark ================";
  print_newline ();
  let c = Lazy.force corpus in
  let jobs = mcd_jobs c in
  let iters = if quick then 2 else 5 in
  (* best-of-N: every repetition computes the same results, the fastest
     one is the measurement *)
  let best f =
    let rec go i best_r best_ms =
      if i >= iters then (Option.get best_r, best_ms)
      else
        let r, ms = time_ms f in
        if ms < best_ms then go (i + 1) (Some r) ms
        else go (i + 1) best_r best_ms
    in
    go 0 None infinity
  in
  Printf.printf "host: %d core(s); best of %d run(s)\n\n"
    (Domain.recommended_domain_count ())
    iters;
  let legacy_results, legacy_ms =
    best (fun () ->
        List.map
          (fun (p : Corpus.protocol) ->
            Registry.run_all ~spec:p.Corpus.spec p.Corpus.tus)
          c.Corpus.protocols)
  in
  let baseline = render_results legacy_results in
  let all_identical = ref true in
  let check_identical results =
    let same = String.equal (render_results results) baseline in
    if not same then all_identical := false;
    same
  in
  let fused_results, fused_ms =
    best (fun () ->
        List.map
          (fun (p : Corpus.protocol) ->
            Registry.run_all_fused ~spec:p.Corpus.spec p.Corpus.tus)
          c.Corpus.protocols)
  in
  let product_results, product_ms =
    best (fun () ->
        List.map
          (fun (p : Corpus.protocol) ->
            Registry.run_all_product ~spec:p.Corpus.spec p.Corpus.tus)
          c.Corpus.protocols)
  in
  Printf.printf "  %-34s %8.1f ms\n" "legacy per-checker run_all" legacy_ms;
  Printf.printf "  %-34s %8.1f ms   (%.2fx, identical=%b)\n"
    "fused run_all_fused" fused_ms (legacy_ms /. fused_ms)
    (check_identical fused_results);
  Printf.printf "  %-34s %8.1f ms   (%.2fx, identical=%b)\n"
    "product run_all_product" product_ms
    (legacy_ms /. product_ms)
    (check_identical product_results);
  let cores = Domain.recommended_domain_count () in
  (* per-jobs scaling sweep, out to the measured core count *)
  let jobs_list = List.sort_uniq compare (1 :: 2 :: 4 :: [ min cores 8 ]) in
  (* Interleaved repetitions: the container host has multi-second
     contention bursts, so measuring one jobs count's repetitions
     back-to-back lets a single burst poison that configuration's
     best-of.  Rotating through the jobs counts each repetition spreads
     every configuration across the whole sweep window; the per-count
     minimum then comes from whichever window was quiet. *)
  let sweep_iters = if quick then 2 else 7 in
  let mcd_ms =
    let best_of =
      List.map (fun d -> (d, (ref infinity, ref []))) jobs_list
    in
    for _rep = 1 to sweep_iters do
      List.iter
        (fun d ->
          let (results, _), ms =
            time_ms (fun () -> Mcd.check_jobs ~jobs:d jobs)
          in
          let best_ms, best_res = List.assoc d best_of in
          if ms < !best_ms then begin
            best_ms := ms;
            best_res := results
          end)
        jobs_list
    done;
    List.map
      (fun d ->
        let best_ms, best_res = List.assoc d best_of in
        Printf.printf
          "  mcd --jobs %-23d %8.1f ms   (%.2fx, identical=%b)\n" d
          !best_ms (fused_ms /. !best_ms)
          (check_identical !best_res);
        (d, !best_ms))
      jobs_list
  in
  let mcd_1_ms = List.assoc 1 mcd_ms in
  let mcd_2_ms = List.assoc 2 mcd_ms in
  (* calibrate what two domains can physically deliver here *)
  let capacity_2 =
    if cores > 1 then parallel_capacity ~domains:2 else 1.0
  in
  Printf.printf
    "\n  measured 2-domain parallel capacity: %.2fx (ideal 2.00x)\n"
    capacity_2;
  Printf.printf "  scaling (cores=%d):" cores;
  List.iter
    (fun (d, ms) -> Printf.printf "  jobs=%d %.2fx" d (mcd_1_ms /. ms))
    mcd_ms;
  print_newline ();
  Printf.printf
    "\n\
    \  vs PR-1 sequential baseline (%.1f ms): %.2fx\n\
    \  product vs fused sequential:             %.2fx\n\
    \  mcd --jobs 2 vs fused sequential:        %.2fx\n\n"
    baseline_pr1_ms
    (baseline_pr1_ms /. product_ms)
    (product_ms /. fused_ms)
    (mcd_2_ms /. fused_ms);
  if not quick then begin
    let scaling =
      String.concat ", "
        (List.map
           (fun (d, ms) ->
             Printf.sprintf "{ \"jobs\": %d, \"ms\": %.1f }" d ms)
           mcd_ms)
    in
    let oc = open_out "BENCH_ENGINE.json" in
    write_host_header oc;
    Printf.fprintf oc
      "\
      \  \"cores\": %d,\n\
      \  \"baseline_pr1_ms\": %.1f,\n\
      \  \"legacy_sequential_ms\": %.1f,\n\
      \  \"fused_ms\": %.1f,\n\
      \  \"sequential_ms\": %.1f,\n\
      \  \"mcd_1_ms\": %.1f,\n\
      \  \"mcd_2_ms\": %.1f,\n\
      \  \"mcd_4_ms\": %.1f,\n\
      \  \"parallel_capacity_2\": %.3f,\n\
      \  \"scaling\": [%s],\n\
      \  \"speedup_vs_pr1\": %.3f,\n\
      \  \"speedup_vs_legacy\": %.3f,\n\
      \  \"product_vs_fused\": %.3f,\n\
      \  \"mcd_2_vs_sequential\": %.3f,\n\
      \  \"diagnostics_identical\": %b\n\
       }\n"
      cores baseline_pr1_ms legacy_ms fused_ms product_ms
      (List.assoc 1 mcd_ms) mcd_2_ms
      (List.assoc 4 mcd_ms)
      capacity_2 scaling
      (baseline_pr1_ms /. product_ms)
      (legacy_ms /. product_ms)
      (product_ms /. fused_ms)
      (mcd_2_ms /. fused_ms)
      !all_identical;
    close_out oc;
    print_endline "  wrote BENCH_ENGINE.json"
  end;
  if not !all_identical then begin
    prerr_endline "FAIL: diagnostics differ between engine pipelines";
    exit 1
  end;
  (* Near-linear scaling gate, conditioned on what the host can
     actually deliver.  When two domains really run concurrently
     (capacity >= 1.6x, i.e. a second core is genuinely usable), Mcd
     with more than one domain must buy at least 60% of that measured
     capacity.  The gate judges the *best* jobs>1 configuration:
     requested jobs are clamped to the core count, so on a 2-core host
     jobs=2 and jobs=4 exercise the identical 2-domain pool, and a host
     contention burst can make one of them slow but can never make one
     spuriously fast.  On throttled containers that advertise cores
     they cannot schedule (capacity below 1.6x) no workload can scale,
     so the gate degrades to a no-pathology tripwire: the best multi-
     domain run must not be slower than jobs=1 past noise. *)
  if not quick then begin
    let best_d, best_multi_ms =
      List.fold_left
        (fun (bd, bm) (d, ms) ->
          if d > 1 && ms < bm then (d, ms) else (bd, bm))
        (2, mcd_2_ms) mcd_ms
    in
    let mcd_speedup = mcd_1_ms /. best_multi_ms in
    if cores > 1 && capacity_2 >= 1.6 then begin
      if mcd_speedup < 0.6 *. capacity_2 then begin
        Printf.eprintf
          "FAIL: mcd scaling is sub-linear on %d cores: best multi-\
           domain run (jobs=%d) is only %.2fx over jobs=1 (%.1f ms vs \
           %.1f ms) against a measured 2-domain capacity of %.2fx \
           (expected >= %.2fx)\n"
          cores best_d mcd_speedup best_multi_ms mcd_1_ms capacity_2
          (0.6 *. capacity_2);
        exit 1
      end
    end
    else begin
      Printf.printf
        "  note: host cannot demonstrate parallel scaling (%d core(s), \
         measured 2-domain capacity %.2fx); asserting no-regression \
         only\n"
        cores capacity_2;
      if mcd_speedup < 0.75 then begin
        Printf.eprintf
          "FAIL: mcd --jobs %d is pathologically slower than --jobs 1 \
           (%.1f ms vs %.1f ms, %.2fx) on a host with no parallel \
           headroom\n"
          best_d best_multi_ms mcd_1_ms mcd_speedup;
        exit 1
      end
    end
  end;
  if quick && product_ms > 1.10 *. fused_ms then begin
    Printf.eprintf
      "FAIL: product driver (%.1f ms) regressed past 1.10x the fused \
       sequential time (%.1f ms)\n"
      product_ms fused_ms;
    exit 1
  end;
  if quick && mcd_2_ms > 1.25 *. fused_ms then begin
    Printf.eprintf
      "FAIL: mcd --jobs 2 (%.1f ms) regressed past 1.25x the fused \
       sequential time (%.1f ms)\n"
      mcd_2_ms fused_ms;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2c': the metal compiler                                        *)
(* ------------------------------------------------------------------ *)

(* The three in-tree metal specs over the full corpus, interpreted
   ([Mdsl.load], string states, per-function dispatch — the reference)
   against compiled ([Mrun.compile]: typed IR -> transition tables ->
   prebuilt per-state dispatch, int states), both lifted into registry
   checkers and run through the one checking kernel with the product
   scan on — the compiled side is exactly what [mcheck --metal] runs.
   Diagnostics must be byte-identical (the O7 invariant); the numbers
   land in BENCH_METALC.json.  Full mode (best of 7,
   interleaved) fails when compiled is slower than interpreted;
   [--quick] is the CI tripwire and — like the engine bench's — is
   noise-tolerant, failing only past 1.25x. *)

let run_metalc ~quick () =
  print_endline
    "================ metal compiler benchmark ================";
  print_newline ();
  let mc =
    match Fuzz_metalc.create () with
    | Ok t -> t
    | Error e ->
      prerr_endline ("FAIL: " ^ e);
      exit 1
  in
  let names = List.map (fun (n, _, _) -> n) mc.Fuzz_metalc.specs in
  let compiled_machines = List.map (fun (_, c, _) -> c) mc.Fuzz_metalc.specs in
  let interp_machines = List.map (fun (_, _, i) -> i) mc.Fuzz_metalc.specs in
  let c = Lazy.force corpus in
  let iters = if quick then 5 else 7 in
  Printf.printf "host: %d core(s); best of %d run(s); specs: %s\n\n"
    (Domain.recommended_domain_count ())
    iters (String.concat ", " names);
  let run machines () =
    List.map
      (fun (p : Corpus.protocol) ->
        Registry.run_checkers ~scan:true machines ~spec:p.Corpus.spec
          p.Corpus.tus)
      c.Corpus.protocols
  in
  let render rss =
    String.concat "\n" (List.concat_map Fuzz_oracle.render rss)
  in
  (* best-of-N with the two back ends interleaved in alternating order:
     heap growth and background load drift penalize whichever side runs
     later, so a measure-all-of-A-then-all-of-B loop reads as a phantom
     regression on a busy host *)
  let interp_best = ref infinity
  and compiled_best = ref infinity
  and interp_res = ref None
  and compiled_res = ref None in
  let measure machines best res =
    let r, ms = time_ms (run machines) in
    if ms < !best then begin
      best := ms;
      res := Some r
    end
  in
  for i = 0 to iters - 1 do
    let pair =
      if i mod 2 = 0 then
        [ (interp_machines, interp_best, interp_res);
          (compiled_machines, compiled_best, compiled_res) ]
      else
        [ (compiled_machines, compiled_best, compiled_res);
          (interp_machines, interp_best, interp_res) ]
    in
    List.iter (fun (m, b, r) -> measure m b r) pair
  done;
  let interp_results = Option.get !interp_res
  and interp_ms = !interp_best
  and compiled_results = Option.get !compiled_res
  and compiled_ms = !compiled_best in
  let identical =
    String.equal (render interp_results) (render compiled_results)
  in
  (* front-end cost: parse + IR + tables + prebuild for all three specs *)
  let _, compile_ms = time_ms (fun () -> Fuzz_metalc.create ()) in
  Printf.printf "  %-38s %8.1f ms\n" "interpreted (Mdsl, per-func dispatch)"
    interp_ms;
  Printf.printf "  %-38s %8.1f ms   (%.2fx, identical=%b)\n"
    "compiled (tables, prebuilt dispatch)" compiled_ms
    (interp_ms /. compiled_ms) identical;
  Printf.printf "  %-38s %8.1f ms\n\n" "compile all specs (both back ends)"
    compile_ms;
  let oc = open_out "BENCH_METALC.json" in
  write_host_header oc;
  Printf.fprintf oc
    "\
    \  \"cores\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"specs\": [%s],\n\
    \  \"interp_ms\": %.1f,\n\
    \  \"compiled_ms\": %.1f,\n\
    \  \"compile_all_ms\": %.1f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"diagnostics_identical\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    quick
    (String.concat ", " (List.map (Printf.sprintf "%S") names))
    interp_ms compiled_ms compile_ms
    (interp_ms /. compiled_ms)
    identical;
  close_out oc;
  print_endline "  wrote BENCH_METALC.json";
  if not identical then begin
    prerr_endline
      "FAIL: compiled and interpreted metal diagnostics differ";
    exit 1
  end;
  let budget = if quick then 1.25 *. interp_ms else interp_ms in
  if compiled_ms > budget then begin
    Printf.eprintf
      "FAIL: compiled metal (%.1f ms) slower than interpreted (%.1f ms%s)\n"
      compiled_ms interp_ms
      (if quick then " + 25% tripwire margin" else "");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2d: Mcobs tracing overhead                                     *)
(* ------------------------------------------------------------------ *)

(* The observability layer must be close to free when idle and cheap
   when live: everything is gated on one atomic load, and the per-domain
   buffers never contend.  Measure the full-corpus Mcd run with tracing
   off and on, write BENCH_OBS.json, and fail the run if live tracing
   costs more than 5%. *)

(* the engine bench's fused sequential time, scraped from
   BENCH_ENGINE.json so the obs numbers are read against the engine
   they actually ran on (the recorded baseline went stale once before,
   when the fused pre-pass landed after BENCH_OBS.json did) *)
let engine_baseline_ms () =
  match open_in "BENCH_ENGINE.json" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let text = really_input_string ic (in_channel_length ic) in
        let key = "\"sequential_ms\":" in
        let rec find i =
          if i + String.length key > String.length text then None
          else if String.sub text i (String.length key) = key then
            let j = ref (i + String.length key) in
            let start = !j in
            while
              !j < String.length text
              && (match text.[!j] with
                 | '0' .. '9' | '.' | ' ' | '-' -> true
                 | _ -> false)
            do
              incr j
            done;
            float_of_string_opt
              (String.trim (String.sub text start (!j - start)))
          else find (i + 1)
        in
        find 0)

let run_obs () =
  print_endline
    "================ Mcobs tracing overhead ================";
  print_newline ();
  let engine_ms = engine_baseline_ms () in
  (match engine_ms with
  | Some ms ->
    Printf.printf "  engine baseline (BENCH_ENGINE.json fused): %.1f ms\n" ms
  | None ->
    print_endline
      "  engine baseline: BENCH_ENGINE.json not found (run bench engine)");
  let c = Lazy.force corpus in
  let jobs = mcd_jobs c in
  let workload () = ignore (Mcd.check_jobs ~jobs:4 jobs) in
  (* warm up allocators, code paths, and the domain pool once *)
  workload ();
  (* scale repetitions so one sample is comfortably above timer noise *)
  let _, probe_ms = time_ms workload in
  let reps = max 1 (int_of_float (ceil (500.0 /. max 1.0 probe_ms))) in
  let sample enabled =
    Mcobs.set_enabled enabled;
    Mcobs.reset ();
    let _, ms =
      time_ms (fun () ->
          for _ = 1 to reps do
            workload ()
          done)
    in
    Mcobs.reset ();
    ms
  in
  (* min-of-3 on an interleaved schedule so drift hits both sides *)
  let min3 f = List.fold_left min infinity [ f (); f (); f () ] in
  let off_ms = min3 (fun () -> sample false) in
  let on_ms = min3 (fun () -> sample true) in
  Mcobs.set_enabled false;
  let overhead_pct = 100.0 *. ((on_ms /. off_ms) -. 1.0) in
  Printf.printf
    "  workload: full-corpus Mcd.check_jobs ~jobs:4, %d rep(s)/sample, \
     min of 3\n\
    \  tracing off: %8.1f ms\n\
    \  tracing on:  %8.1f ms\n\
    \  overhead:    %+8.2f %%   (budget: < 5%%)\n\n"
    reps off_ms on_ms overhead_pct;
  let oc = open_out "BENCH_OBS.json" in
  write_host_header oc;
  Printf.fprintf oc
    "\
    \  \"workload\": \"mcd_check_jobs_4_domains_full_corpus\",\n\
    \  \"engine_baseline_sequential_ms\": %s,\n\
    \  \"reps_per_sample\": %d,\n\
    \  \"tracing_off_ms\": %.1f,\n\
    \  \"tracing_on_ms\": %.1f,\n\
    \  \"overhead_pct\": %.2f,\n\
    \  \"budget_pct\": 5.0,\n\
    \  \"within_budget\": %b\n\
     }\n"
    (match engine_ms with
    | Some ms -> Printf.sprintf "%.1f" ms
    | None -> "null")
    reps off_ms on_ms overhead_pct (overhead_pct < 5.0);
  close_out oc;
  print_endline "  wrote BENCH_OBS.json";
  if overhead_pct >= 5.0 then begin
    Printf.eprintf "FAIL: tracing overhead %.2f%% exceeds the 5%% budget\n"
      overhead_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2d': robustness — fault campaign and clean-path overhead       *)
(* ------------------------------------------------------------------ *)

(* Two measurements: (a) the fault-injection campaign (every seeded
   fault contained, no uncaught exception, deterministic remainder), and
   (b) what the fault barrier costs a clean run — full-corpus
   [run_all_fused] with and without [~guard].  The barrier is a
   per-(checker x function) try plus a DLS read, so the budget is tight:
   < 2% on the full run ([--quick] uses a 10% noise-tolerant tripwire
   and a 100-injection campaign). *)
let run_robust ~quick () =
  print_endline
    "================ robustness: fault campaign + barrier overhead \
     ================";
  print_newline ();
  let count = if quick then 100 else 500 in
  let s = Faultinject.campaign ~count () in
  Faultinject.pp_summary Format.std_formatter s;
  print_newline ();
  let c = Lazy.force corpus in
  let iters = if quick then 3 else 9 in
  let run_corpus ~guard () =
    List.map
      (fun (p : Corpus.protocol) ->
        Registry.run_all_fused ~guard ~spec:p.Corpus.spec p.Corpus.tus)
      c.Corpus.protocols
  in
  (* Host drift (GC state, CPU contention) between runs is several times
     the barrier's cost, so neither side's absolute time is trustworthy
     at 2% resolution.  The A/B is paired instead: each round times both
     sides back-to-back in alternating order and records the
     guarded/unguarded ratio — drift within a round hits both sides and
     cancels — and the overhead is the median ratio over the rounds. *)
  let unguarded_results = run_corpus ~guard:false () in
  let guarded_results = run_corpus ~guard:true () in
  let identical =
    String.equal
      (render_results guarded_results)
      (render_results unguarded_results)
  in
  let unguarded_ms = ref infinity and guarded_ms = ref infinity in
  let side guard =
    let _, ms = time_ms (run_corpus ~guard) in
    let best = if guard then guarded_ms else unguarded_ms in
    if ms < !best then best := ms;
    ms
  in
  let ratios =
    List.init iters (fun round ->
        if round land 1 = 0 then (
          let mu = side false in
          let mg = side true in
          mg /. mu)
        else
          let mg = side true in
          let mu = side false in
          mg /. mu)
  in
  let median =
    let a = List.sort compare ratios in
    List.nth a (List.length a / 2)
  in
  let unguarded_ms = !unguarded_ms and guarded_ms = !guarded_ms in
  let overhead_pct = 100.0 *. (median -. 1.0) in
  let budget_pct = if quick then 10.0 else 2.0 in
  Printf.printf
    "  clean-path barrier overhead (full corpus, median of %d paired \
     rounds):\n\
    \    unguarded run_all_fused: %8.1f ms (best)\n\
    \    guarded   run_all_fused: %8.1f ms (best)\n\
    \    overhead:                %+8.2f %%   (budget: < %.0f%%, \
     identical=%b)\n\n"
    iters unguarded_ms guarded_ms overhead_pct budget_pct identical;
  if not quick then begin
    let oc = open_out "BENCH_ROBUST.json" in
    write_host_header oc;
    Printf.fprintf oc
      "\
      \  \"campaign\": {\n\
      \    \"seed\": %d,\n\
      \    \"injections\": %d,\n\
      \    \"failures\": %d,\n\
      \    \"wall_ms\": %.1f\n\
      \  },\n\
      \  \"barrier_overhead\": {\n\
      \    \"unguarded_ms\": %.1f,\n\
      \    \"guarded_ms\": %.1f,\n\
      \    \"overhead_pct\": %.2f,\n\
      \    \"budget_pct\": %.1f,\n\
      \    \"within_budget\": %b,\n\
      \    \"diagnostics_identical\": %b\n\
      \  }\n\
       }\n"
      s.Faultinject.seed s.Faultinject.total s.Faultinject.failed
      s.Faultinject.wall_ms unguarded_ms guarded_ms overhead_pct budget_pct
      (overhead_pct < budget_pct)
      identical;
    close_out oc;
    print_endline "  wrote BENCH_ROBUST.json"
  end;
  if s.Faultinject.failed > 0 then begin
    Printf.eprintf "FAIL: %d fault injection(s) broke a containment invariant\n"
      s.Faultinject.failed;
    exit 1
  end;
  if not identical then begin
    prerr_endline "FAIL: the fault barrier changed clean-path diagnostics";
    exit 1
  end;
  if overhead_pct >= budget_pct then begin
    Printf.eprintf "FAIL: barrier overhead %.2f%% exceeds the %.0f%% budget\n"
      overhead_pct budget_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2e: the Mcfuzz differential campaign                           *)
(* ------------------------------------------------------------------ *)

(* A mid-sized seeded campaign: every program through the four
   differential oracles, every mutation kind seeded and scored.  The
   per-checker recall/precision table lands in BENCH_FUZZ.json; the
   1000-seed acceptance run is [dune exec bin/mcfuzz.exe -- --count 1000
   --mutate -o BENCH_FUZZ.json]. *)
let run_fuzz () =
  print_endline
    "================ Mcfuzz differential campaign ================";
  print_newline ();
  let t0 = Unix.gettimeofday () in
  let { Fuzz_driver.score; failures } =
    Fuzz_driver.run ~base_seed:1 ~count:300 ~mutate:true ()
  in
  List.iter
    (fun f -> Format.eprintf "FAIL %a@." Fuzz_oracle.pp_failure f)
    failures;
  print_string (Fuzz_score.table score);
  Printf.printf "  (%.1fs)\n" (Unix.gettimeofday () -. t0);
  Fuzz_score.write_json score "BENCH_FUZZ.json";
  print_endline "  wrote BENCH_FUZZ.json";
  if failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Part 2f: the mcheckd serving path                                   *)
(* ------------------------------------------------------------------ *)

(* The daemon's reason to exist, measured: per-request latency (p50/p99)
   and throughput against a warm in-process daemon, versus cold-spawning
   the mcheck binary per check — the editor-traffic comparison — plus a
   drain under concurrent load that must lose zero admitted responses.
   The numbers land in BENCH_SERVE.json; the acceptance gate is a warm
   p50 at least 5x below the cold spawn p50. *)

let percentile latencies p =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float n)) - 1)))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let plain_opts =
  {
    Serve.Proto.co_checkers = [];
    co_explain = false;
    co_verbose = false;
    co_quiet = true;
    co_strict = false;
    co_trace = "";
  }

let run_serve ~quick () =
  print_endline
    "================ mcheckd serving path ================";
  print_newline ();
  Mcobs.set_verbosity Mcobs.Quiet;
  (* corpus files on disk: the same inputs a cold mcheck spawn reads *)
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcheck-serve-bench-%d" (Unix.getpid ()))
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  Corpus.write_to_dir (Lazy.force corpus) dir;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let daemon =
    Serve.Serve_oracle.start
      ~config:
        { Mcheck_api.default_config with jobs = 2; incremental = true }
      ()
  in
  let addr = Serve.Serve_oracle.addr daemon in
  let with_client f =
    match Serve.Client.connect addr with
    | Error e -> failwith ("bench serve: " ^ Serve.Client.err_to_string e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
  in
  let check_one c file =
    match Serve.Client.check_files c plain_opts [ file ] with
    | Ok (Serve.Client.Checked _) -> ()
    | Ok (Serve.Client.Refused msg) -> failwith ("refused: " ^ msg)
    | Ok (Serve.Client.Overloaded _) -> failwith "overloaded"
    | Error e -> failwith ("transport: " ^ Serve.Client.err_to_string e)
  in
  (* warm: first pass fills the daemon's content-hash cache *)
  with_client (fun c -> List.iter (check_one c) files);
  let n_requests = if quick then 60 else 300 in
  let latencies, total_ms =
    with_client (fun c ->
        time_ms (fun () ->
            List.init n_requests (fun i ->
                let file = List.nth files (i mod List.length files) in
                snd (time_ms (fun () -> check_one c file)))))
  in
  let warm_p50 = percentile latencies 50.0 in
  let warm_p99 = percentile latencies 99.0 in
  let checks_per_sec = float n_requests /. (total_ms /. 1000.0) in
  Printf.printf
    "  warm daemon (2 domains, incremental), %d request(s) over %d \
     file(s):\n\
    \    p50 %8.2f ms   p99 %8.2f ms   %8.1f checks/sec\n\n"
    n_requests (List.length files) warm_p50 warm_p99 checks_per_sec;
  (* cold: spawn the real mcheck binary per check, same single files *)
  let mcheck_exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/mcheck.exe"
  in
  let cold_p50 =
    if not (Sys.file_exists mcheck_exe) then begin
      Printf.printf
        "  cold spawn: %s not built, skipping the comparison\n\n" mcheck_exe;
      nan
    end
    else begin
      let spawns = if quick then 5 else 15 in
      let cold =
        List.init spawns (fun i ->
            let file = List.nth files (i mod List.length files) in
            snd
              (time_ms (fun () ->
                   let code =
                     Sys.command
                       (Printf.sprintf "%s -q %s >/dev/null 2>&1"
                          (Filename.quote mcheck_exe)
                          (Filename.quote file))
                   in
                   if code > 1 then
                     failwith
                       (Printf.sprintf "cold mcheck exited %d" code))))
      in
      let p50 = percentile cold 50.0 in
      Printf.printf
        "  cold mcheck spawn, %d run(s):\n\
        \    p50 %8.2f ms   (warm daemon is %.1fx faster at p50)\n\n"
        spawns p50 (p50 /. warm_p50);
      p50
    end
  in
  (* drain under load: concurrent checks in flight when the drain lands;
     every admitted request must complete, refusals must be explicit *)
  let n_threads = 8 in
  let completed = Atomic.make 0
  and refused = Atomic.make 0
  and lost = Atomic.make 0 in
  let worker i =
    match Serve.Client.connect addr with
    | Error _ -> Atomic.incr lost
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let file = List.nth files (i mod List.length files) in
          match Serve.Client.check_files c plain_opts [ file ] with
          | Ok (Serve.Client.Checked _) -> Atomic.incr completed
          | Ok (Serve.Client.Refused _) | Ok (Serve.Client.Overloaded _) ->
            Atomic.incr refused
          | Error _ -> Atomic.incr lost)
  in
  let threads = List.init n_threads (fun i -> Thread.create worker i) in
  Thread.delay 0.002;
  (* stop is a Drain plus a join of the daemon's accept loop: admitted
     requests finish first, by construction *)
  Serve.Serve_oracle.stop daemon;
  List.iter Thread.join threads;
  let zero_loss = Atomic.get lost = 0 in
  Printf.printf
    "  drain under load: %d concurrent client(s) -> %d completed, %d \
     refused, %d lost (zero-loss=%b)\n\n"
    n_threads (Atomic.get completed) (Atomic.get refused) (Atomic.get lost)
    zero_loss;
  let speedup_p50 =
    if Float.is_nan cold_p50 then nan else cold_p50 /. warm_p50
  in
  let oc = open_out "BENCH_SERVE.json" in
  write_host_header oc;
  Printf.fprintf oc
    "\
    \  \"cores\": %d,\n\
    \  \"files\": %d,\n\
    \  \"warm_requests\": %d,\n\
    \  \"warm_p50_ms\": %.3f,\n\
    \  \"warm_p99_ms\": %.3f,\n\
    \  \"checks_per_sec\": %.1f,\n\
    \  \"cold_spawn_p50_ms\": %.3f,\n\
    \  \"speedup_p50\": %.2f,\n\
    \  \"drain_clients\": %d,\n\
    \  \"drain_completed\": %d,\n\
    \  \"drain_refused\": %d,\n\
    \  \"drain_lost\": %d,\n\
    \  \"drain_zero_loss\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    (List.length files) n_requests warm_p50 warm_p99 checks_per_sec
    cold_p50 speedup_p50 n_threads (Atomic.get completed)
    (Atomic.get refused) (Atomic.get lost) zero_loss;
  close_out oc;
  print_endline "  wrote BENCH_SERVE.json";
  rm_rf dir;
  if not zero_loss then begin
    prerr_endline "FAIL: drain under load lost admitted responses";
    exit 1
  end;
  if (not (Float.is_nan speedup_p50)) && speedup_p50 < 5.0 then begin
    Printf.eprintf
      "FAIL: warm daemon p50 only %.1fx below the cold spawn p50 \
       (acceptance: >= 5x)\n"
      speedup_p50;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2f: serving-path telemetry overhead + flight validation        *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let find_sub s sub from =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  if n = 0 then Some from else go from

(* The telemetry tentpole's claim: with tracing, the live metrics
   registry, the access log, and the flight recorder all on, the warm
   request p50 moves by less than 3% (~40 us at the recorded 1.4 ms
   p50).  Interleaved A/B between two in-process daemons — telemetry
   off and fully on — min-of-3 p50 per side; then one injected slow
   request is validated end-to-end in the flight recorder (its full
   server -> session -> Mcd span tree under the client-minted trace
   id), and the access log is checked for exactly one line per check
   request. *)
let run_serve_obs ~quick () =
  print_endline
    "================ mcheckd telemetry overhead ================";
  print_newline ();
  Mcobs.set_verbosity Mcobs.Quiet;
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcheck-serve-obs-%d" (Unix.getpid ()))
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  Corpus.write_to_dir (Lazy.force corpus) dir;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let access_path = Filename.concat dir "access.jsonl" in
  let api_config =
    { Mcheck_api.default_config with jobs = 2; incremental = true }
  in
  let daemon_off =
    Serve.Serve_oracle.start ~config:api_config
      ~telemetry:
        { Serve.Server.default_telemetry with Serve.Server.tel_tracing = false }
      ()
  in
  let daemon_on =
    Serve.Serve_oracle.start ~config:api_config
      ~telemetry:
        {
          Serve.Server.tel_tracing = true;
          tel_access_log = Some access_path;
          tel_sample = 1;
          tel_flight_capacity = 64;
          (* low threshold: the injected slow request must be retained
             as notable, not merely recent *)
          tel_flight_threshold_ms = 5.0;
          tel_metrics_addr = None;
        }
      ()
  in
  let with_client addr f =
    match Serve.Client.connect addr with
    | Error e ->
      failwith ("bench serve-obs: " ^ Serve.Client.err_to_string e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
  in
  let checks_sent_on = ref 0 in
  let check_one addr_is_on c file =
    if addr_is_on then incr checks_sent_on;
    match Serve.Client.check_files c plain_opts [ file ] with
    | Ok (Serve.Client.Checked _) -> ()
    | Ok (Serve.Client.Refused msg) -> failwith ("refused: " ^ msg)
    | Ok (Serve.Client.Overloaded _) -> failwith "overloaded"
    | Error e -> failwith ("transport: " ^ Serve.Client.err_to_string e)
  in
  let addr_off = Serve.Serve_oracle.addr daemon_off in
  let addr_on = Serve.Serve_oracle.addr daemon_on in
  (* warm both caches so every measured request is the hot path *)
  with_client addr_off (fun c -> List.iter (check_one false c) files);
  with_client addr_on (fun c -> List.iter (check_one true c) files);
  let n_requests = if quick then 60 else 300 in
  let rounds = 3 in
  (* Paired per-request A/B: each iteration times one request against
     each daemon back-to-back (alternating which side goes first), with
     span recording toggled around the instrumented side only — the off
     side is the daemon as it was before the telemetry layer.  The
     overhead estimate is the median of the per-pair differences: on a
     shared host, independent p50s drift by several percent between
     batches (more than the effect being measured), while a pair runs
     within a few ms of itself, so drift cancels inside each pair. *)
  let sample_round off_all on_all diff_all =
    with_client addr_off (fun c_off ->
        with_client addr_on (fun c_on ->
            for i = 0 to n_requests - 1 do
              let file = List.nth files (i mod List.length files) in
              let time_off () =
                Mcobs.set_enabled false;
                snd (time_ms (fun () -> check_one false c_off file))
              in
              let time_on () =
                Mcobs.set_enabled true;
                snd (time_ms (fun () -> check_one true c_on file))
              in
              let off_ms, on_ms =
                if i land 1 = 0 then begin
                  let o = time_off () in
                  let n = time_on () in
                  (o, n)
                end
                else begin
                  let n = time_on () in
                  let o = time_off () in
                  (o, n)
                end
              in
              off_all := off_ms :: !off_all;
              on_all := on_ms :: !on_all;
              diff_all := (on_ms -. off_ms) :: !diff_all
            done))
  in
  let off_all = ref [] and on_all = ref [] and diff_all = ref [] in
  for _ = 1 to rounds do
    sample_round off_all on_all diff_all
  done;
  let off_p50 = percentile !off_all 50.0 in
  let on_p50 = percentile !on_all 50.0 in
  let diff_p50 = percentile !diff_all 50.0 in
  let overhead_pct = 100.0 *. (diff_p50 /. off_p50) in
  Printf.printf
    "  warm request latency, %d paired A/B request(s):\n\
    \    telemetry off p50:   %8.3f ms\n\
    \    telemetry on p50:    %8.3f ms   (tracing + metrics + access log \
     + flight)\n\
    \    paired diff p50:     %+8.3f ms\n\
    \    overhead:            %+8.2f %%   (budget: < 3%%)\n\n"
    (rounds * n_requests) off_p50 on_p50 diff_p50 overhead_pct;
  (* flight validation: a fresh (uncached) many-handler buffer is slow
     enough to cross the 5 ms notable threshold; its span tree must
     come back under the client-minted trace id on the same
     connection *)
  Mcobs.set_enabled true;
  let trace = Mctel.Trace.mint () in
  let slow_src =
    String.concat "\n"
      (List.init 40 (fun i ->
           Printf.sprintf
             "void slow_h%d(void) { int a; int b; a = 0; b = a; if (b) { \
              a = 1; } }"
             i))
  in
  let flight_tree_ok, metrics_ok =
    with_client addr_on (fun c ->
        (match
           Serve.Client.check_buffer c
             { plain_opts with Serve.Proto.co_trace = trace }
             ~name:"slow.c" ~contents:slow_src
         with
        | Ok (Serve.Client.Checked _) -> ()
        | Ok (Serve.Client.Refused msg) -> failwith ("refused: " ^ msg)
        | Ok (Serve.Client.Overloaded _) -> failwith "overloaded"
        | Error e -> failwith ("transport: " ^ Serve.Client.err_to_string e));
        let dump =
          match Serve.Client.flight c with
          | Ok d -> d
          | Error e -> failwith ("flight: " ^ Serve.Client.err_to_string e)
        in
        let tree_ok =
          match find_sub dump trace 0 with
          | None -> false
          | Some i ->
            let stop =
              match find_sub dump "{\"trace\":" (i + String.length trace) with
              | Some j -> j
              | None -> String.length dump
            in
            let entry = String.sub dump i (stop - i) in
            contains_sub entry "serve.request"
            && contains_sub entry "api.check_buffer"
            && contains_sub entry "mcd.schedule"
        in
        let metrics_ok =
          match Serve.Client.metrics c Serve.Proto.M_prom with
          | Ok text ->
            contains_sub text "mcheckd_request_ms_bucket"
            && contains_sub text "mcheckd_inflight"
            && contains_sub text "mcheck_unit_cache_hits_total"
          | Error _ -> false
        in
        (tree_ok, metrics_ok))
  in
  Printf.printf
    "  flight recorder: injected slow request's span tree under its \
     trace id: %s\n"
    (if flight_tree_ok then "ok" else "MISSING");
  Printf.printf "  metrics exposition over the wire: %s\n"
    (if metrics_ok then "ok" else "MISSING SERIES");
  Serve.Serve_oracle.stop daemon_off;
  Serve.Serve_oracle.stop daemon_on;
  Mcobs.set_enabled false;
  (* one access-log line per check request; the writer thread drains
     its queue at daemon shutdown, so the file is complete once the
     daemons have stopped *)
  let access_text =
    let ic = open_in access_path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let count_lines sub =
    List.length
      (List.filter
         (fun l -> contains_sub l sub)
         (String.split_on_char '\n' access_text))
  in
  let files_lines = count_lines "\"kind\":\"check_files\"" in
  let buffer_lines = count_lines "\"kind\":\"check_buffer\"" in
  let access_ok = files_lines = !checks_sent_on && buffer_lines = 1 in
  Printf.printf
    "  access log: %d check_files line(s) for %d request(s), %d \
     check_buffer line(s) for 1 (%s)\n\n"
    files_lines !checks_sent_on buffer_lines
    (if access_ok then "ok" else "MISMATCH");
  let budget = 3.0 in
  let within = overhead_pct < budget in
  let oc = open_out "BENCH_SERVE_OBS.json" in
  write_host_header oc;
  Printf.fprintf oc
    "\
    \  \"cores\": %d,\n\
    \  \"paired_requests\": %d,\n\
    \  \"telemetry_off_p50_ms\": %.3f,\n\
    \  \"telemetry_on_p50_ms\": %.3f,\n\
    \  \"paired_diff_p50_ms\": %.4f,\n\
    \  \"overhead_pct\": %.2f,\n\
    \  \"budget_pct\": %.1f,\n\
    \  \"within_budget\": %b,\n\
    \  \"flight_tree_ok\": %b,\n\
    \  \"metrics_exposition_ok\": %b,\n\
    \  \"access_log_check_files_lines\": %d,\n\
    \  \"access_log_expected\": %d,\n\
    \  \"access_log_ok\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    (rounds * n_requests) off_p50 on_p50 diff_p50 overhead_pct budget within
    flight_tree_ok
    metrics_ok files_lines !checks_sent_on access_ok;
  close_out oc;
  print_endline "  wrote BENCH_SERVE_OBS.json";
  rm_rf dir;
  if not (flight_tree_ok && metrics_ok && access_ok) then begin
    prerr_endline "FAIL: telemetry validation (flight/metrics/access log)";
    exit 1
  end;
  (* --quick keeps a loose tripwire: 60-request p50s on a busy host are
     too noisy for the real 3% gate *)
  let gate = if quick then 15.0 else budget in
  if overhead_pct >= gate then begin
    Printf.eprintf
      "FAIL: telemetry overhead %.2f%% exceeds the %.0f%% gate\n"
      overhead_pct gate;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2c: chaos campaign + supervised-dispatch overhead              *)
(* ------------------------------------------------------------------ *)

(* The service-tier robustness run: the full chaos campaign (worker
   kills mid-request, OOM/stack/CPU bombs, worker death, slowloris,
   garbage frames, cache-directory corruption under concurrent
   writers, overload bursts) gated on zero failed injections, zero
   daemon deaths, and zero lost in-flight requests at the drain
   finale; then a paired A/B of the warm request path against an
   in-process daemon and a supervised one — the supervision layer
   must cost under 10% p50 on the warm path.  Lands in
   BENCH_CHAOS.json. *)
let run_chaos ~quick () =
  print_endline
    "================ service-tier chaos ================";
  print_newline ();
  Mcobs.set_verbosity Mcobs.Quiet;
  let s = Chaos.campaign ~quick () in
  Chaos.pp_summary Format.std_formatter s;
  print_newline ();
  (* paired A/B: the same warm corpus-file stream, request latencies
     interleaved so host noise hits both sides equally *)
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcheck-chaos-bench-%d" (Unix.getpid ()))
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  Corpus.write_to_dir (Lazy.force corpus) dir;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let daemon_in = Serve.Serve_oracle.start () in
  let daemon_sup = Serve.Serve_oracle.start ~supervised:true () in
  let connect addr =
    match Serve.Client.connect addr with
    | Error e -> failwith ("bench chaos: " ^ Serve.Client.err_to_string e)
    | Ok c -> c
  in
  (* the measured request is batch-shaped — a client submits its file
     set in one request, which is how the service is actually driven;
     the fixed dispatch cost must disappear into the batch *)
  let check_one c files =
    match Serve.Client.check_files c plain_opts files with
    | Ok (Serve.Client.Checked _) -> ()
    | Ok (Serve.Client.Refused msg) -> failwith ("refused: " ^ msg)
    | Ok (Serve.Client.Overloaded _) -> failwith "overloaded"
    | Error e -> failwith ("transport: " ^ Serve.Client.err_to_string e)
  in
  let c_in = connect (Serve.Serve_oracle.addr daemon_in) in
  let c_sup = connect (Serve.Serve_oracle.addr daemon_sup) in
  let in_p50, sup_p50 =
    Fun.protect
      ~finally:(fun () ->
        Serve.Client.close c_in;
        Serve.Client.close c_sup;
        Serve.Serve_oracle.stop daemon_in;
        Serve.Serve_oracle.stop daemon_sup;
        rm_rf dir)
      (fun () ->
        (* warm both daemons (and the supervised workers\' own caches) *)
        check_one c_in files;
        check_one c_sup files;
        check_one c_sup files;
        Mctel.Metrics.reset_all ();
        let n = if quick then 30 else 120 in
        let lat_in = ref [] and lat_sup = ref [] in
        for _ = 1 to n do
          lat_in := snd (time_ms (fun () -> check_one c_in files)) :: !lat_in;
          lat_sup := snd (time_ms (fun () -> check_one c_sup files)) :: !lat_sup
        done;
        (percentile !lat_in 50.0, percentile !lat_sup 50.0))
  in
  let ratio = sup_p50 /. in_p50 in
  let ratio_gate = if quick then 1.5 else 1.10 in
  let ratio_ok = ratio <= ratio_gate in
  let count_floor = if quick then 0 else 300 in
  let count_ok = s.Chaos.total >= count_floor in
  Printf.printf
    "  warm-path dispatch: in-process p50 %.3f ms, supervised p50 %.3f \
     ms (%.2fx, gate %.2fx)\n"
    in_p50 sup_p50 ratio ratio_gate;
  Printf.printf "  campaign gates: %s (%d injection(s), floor %d)\n\n"
    (if Chaos.gates_ok s then "ok" else "FAILED")
    s.Chaos.total count_floor;
  let oc = open_out "BENCH_CHAOS.json" in
  write_host_header oc;
  Printf.fprintf oc "  \"campaign\": %s,\n"
    (String.trim (Chaos.summary_to_json s));
  Printf.fprintf oc
    "\
    \  \"supervised_overhead\": {\n\
    \    \"paired_requests\": %d,\n\
    \    \"inproc_p50_ms\": %.3f,\n\
    \    \"supervised_p50_ms\": %.3f,\n\
    \    \"ratio\": %.3f,\n\
    \    \"gate_ratio\": %.2f,\n\
    \    \"gate_ok\": %b\n\
    \  },\n"
    (if quick then 30 else 120)
    in_p50 sup_p50 ratio ratio_gate ratio_ok;
  Printf.fprintf oc "  \"injection_floor\": %d,\n" count_floor;
  Printf.fprintf oc "  \"gates_ok\": %b\n}\n"
    (Chaos.gates_ok s && ratio_ok && count_ok);
  close_out oc;
  print_endline "  wrote BENCH_CHAOS.json";
  if not (Chaos.gates_ok s) then begin
    prerr_endline
      "FAIL: chaos campaign (failed injections, daemon death, or lost \
       in-flight)";
    exit 1
  end;
  if not count_ok then begin
    Printf.eprintf "FAIL: %d injection(s) under the %d floor\n"
      s.Chaos.total count_floor;
    exit 1
  end;
  if not ratio_ok then begin
    Printf.eprintf
      "FAIL: supervised dispatch %.2fx over in-process exceeds the %.2fx \
       gate\n"
      ratio ratio_gate;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel timings                                            *)
(* ------------------------------------------------------------------ *)

let bitvector () = Option.get (Corpus.find (Lazy.force corpus) "bitvector")

let bench_tests () =
  let open Bechamel in
  let c = Lazy.force corpus in
  let bv = bitvector () in
  let bv_sources = List.map snd bv.Corpus.files in
  let table_tests =
    List.map
      (fun (name, f) -> Test.make ~name (Staged.stage (fun () -> ignore (f c))))
      [
        ("table1 (size metrics)", Experiments.table1);
        ("table2 (buffer race)", Experiments.table2);
        ("table3 (msg length)", Experiments.table3);
        ("table4 (buffer mgmt)", Experiments.table4);
        ("table5 (exec restrict)", Experiments.table5);
        ("table6 (three checks)", Experiments.table6);
        ("table7 (summary)", Experiments.table7);
      ]
  in
  let checker_tests =
    List.map
      (fun (ck : Registry.checker) ->
        Test.make
          ~name:("checker " ^ ck.Registry.name ^ " on bitvector")
          (Staged.stage (fun () ->
               ignore (ck.Registry.run ~spec:bv.Corpus.spec bv.Corpus.tus))))
      Registry.all
  in
  let infra_tests =
    [
      Test.make ~name:"parse bitvector sources"
        (Staged.stage (fun () ->
             List.iter
               (fun src ->
                 ignore (Parser.parse_string ~file:"bench.c" src))
               bv_sources));
      Test.make ~name:"cfg+paths for bitvector"
        (Staged.stage (fun () ->
             List.iter
               (fun tu ->
                 List.iter
                   (fun f -> ignore (Paths.analyze (Cfg.build f)))
                   (Ast.functions tu))
               bv.Corpus.tus));
      Test.make ~name:"corpus generation (all six protocols)"
        (Staged.stage (fun () -> ignore (Corpus.generate ())));
      Test.make ~name:"simulator, 200 transactions (clean)"
        (Staged.stage (fun () ->
             ignore
               (Sim.run
                  { Sim.default_config with Sim.transactions = 200 })));
      Test.make ~name:"metal DSL compile (Figure 2)"
        (Staged.stage (fun () ->
             ignore
               (Mdsl.load
                  "sm w { decl { scalar } a, b; start: { \
                   WAIT_FOR_DB_FULL(a); } ==> stop | { MISCBUS_READ_DB(a, \
                   b); } ==> { err(\"x\"); } ; }")));
      Test.make ~name:"auto-fix bitvector (hooks+races+leaks)"
        (Staged.stage (fun () ->
             ignore (Fixer.fix_all ~spec:bv.Corpus.spec bv.Corpus.tus)));
      Test.make ~name:"optimizer over bitvector"
        (Staged.stage (fun () -> ignore (Optimizer.optimize bv.Corpus.tus)));
    ]
  in
  Test.make_grouped ~name:"metal-flash"
    (table_tests @ checker_tests @ infra_tests)

let run_bench () =
  print_endline "================ Bechamel timings ================";
  print_newline ();
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (bench_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) ->
      let value, unit_ =
        if ns > 1e9 then (ns /. 1e9, "s")
        else if ns > 1e6 then (ns /. 1e6, "ms")
        else if ns > 1e3 then (ns /. 1e3, "us")
        else (ns, "ns")
      in
      Printf.printf "  %-45s %10.2f %s/run\n" name value unit_)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  Serve.Worker.exit_if_worker ();
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
    print_all_tables ();
    print_sim_comparison ();
    print_sensitivity ();
    print_ablations ();
    run_bench ()
  | [ "tables" ] -> print_all_tables ()
  | [ "sim" ] -> print_sim_comparison ()
  | [ "sensitivity" ] -> print_sensitivity ()
  | [ "ablations" ] -> print_ablations ()
  | [ "parallel" ] -> run_parallel ()
  | [ "engine" ] -> run_engine ~quick:false ()
  | [ "engine"; "--quick" ] -> run_engine ~quick:true ()
  | [ "metalc" ] -> run_metalc ~quick:false ()
  | [ "metalc"; "--quick" ] -> run_metalc ~quick:true ()
  | [ "obs" ] -> run_obs ()
  | [ "robust" ] -> run_robust ~quick:false ()
  | [ "robust"; "--quick" ] -> run_robust ~quick:true ()
  | [ "fuzz" ] -> run_fuzz ()
  | [ "serve" ] -> run_serve ~quick:false ()
  | [ "serve"; "--quick" ] -> run_serve ~quick:true ()
  | [ "serve-obs" ] -> run_serve_obs ~quick:false ()
  | [ "serve-obs"; "--quick" ] -> run_serve_obs ~quick:true ()
  | [ "chaos" ] -> run_chaos ~quick:false ()
  | [ "chaos"; "--quick" ] -> run_chaos ~quick:true ()
  | [ "bench" ] -> run_bench ()
  | [ arg ]
    when String.length arg = 6 && String.sub arg 0 5 = "table"
         && arg.[5] >= '1' && arg.[5] <= '7' ->
    print_table (Char.code arg.[5] - Char.code '0')
  | _ ->
    prerr_endline
      "usage: main.exe [tables | table1..table7 | sim | sensitivity | \
       ablations | parallel | engine [--quick] | metalc [--quick] | obs | \
       robust [--quick] | fuzz | serve [--quick] | serve-obs [--quick] | \
       chaos [--quick] | bench]";
    exit 2
