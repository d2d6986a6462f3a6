(** Profiling a checking run with Mcobs.

    Enables tracing, runs every registered checker over the synthetic
    corpus through the Mcd scheduler, and writes a Chrome trace-event
    file — open [trace_profile.json] in [chrome://tracing] or
    https://ui.perfetto.dev to see the per-domain timeline: parse and
    typecheck spans, one [engine.check_fn] span per (checker x function)
    unit, the scheduler's prepare/resolve/pool/store phases, and the
    cache counters.

    Run with: [dune exec examples/trace_profile.exe] *)

let () =
  Mcobs.set_enabled true;
  let corpus = Corpus.generate () in
  let jobs =
    List.map
      (fun (p : Corpus.protocol) ->
        { Mcd.spec = p.Corpus.spec; tus = p.Corpus.tus })
      corpus.Corpus.protocols
  in
  let results, stats = Mcd.check_jobs ~jobs:4 jobs in
  let diags =
    List.fold_left
      (fun acc per_checker ->
        List.fold_left
          (fun acc (_, ds) -> acc + List.length ds)
          acc per_checker)
      0 results
  in
  Printf.printf "checked %d protocol(s): %d diagnostic(s)\n"
    (List.length results) diags;
  Format.printf "%a@." Mcd.pp_stats_line stats;
  let snap = Mcobs.snapshot () and registry = Mcmetrics.snapshot () in
  Mcobs.export_chrome_file ~counters:(Mcmetrics.counters registry)
    "trace_profile.json" snap;
  Printf.printf "wrote trace_profile.json (%d spans) — open it in \
                 chrome://tracing\n"
    (List.length snap.Mcobs.spans);
  (* the same data, summarised for the terminal *)
  Format.printf "%a@.%a@." Mcmetrics.pp registry Mcobs.pp_summary snap
