(** Prep-sharing tests: the fused driver's diagnostics — including the
    rendered witness paths [--explain] prints — are identical to the
    per-checker sequential path on arbitrary generated programs, and one
    fused run builds exactly one [Prep.t] per function (pinned via the
    [mcheck_prep_builds_total] registry counter). *)

let t = Alcotest.test_case

(* the strictest rendering: checker names interleaved with the full
   --explain output, so content, order, and witness steps are compared *)
let explain_render (results : (string * Diag.t list) list) : string list =
  List.concat_map
    (fun (name, ds) ->
      name :: List.map (fun d -> Format.asprintf "%a" Diag.pp_explain d) ds)
    results

let prop_fused_identical =
  QCheck.Test.make ~count:25
    ~name:"fused = per-checker on generated programs (incl. witnesses)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Fuzz_gen.generate ~seed () in
      let spec = p.Fuzz_gen.spec and tus = p.Fuzz_gen.tus in
      let seq = explain_render (Registry.run_all ~spec tus) in
      let fused = explain_render (Registry.run_all_fused ~spec tus) in
      if seq <> fused then
        QCheck.Test.fail_reportf
          "seed %d: fused diagnostics/witnesses differ" seed;
      true)

let build_once_tests =
  [
    t "fused run builds exactly one Prep per function" `Quick (fun () ->
        let p = Option.get (Corpus.find (Corpus.generate ()) "bitvector") in
        let nfuncs =
          List.fold_left
            (fun acc tu -> acc + List.length (Ast.functions tu))
            0 p.Corpus.tus
        in
        let builds = Mcmetrics.counter "mcheck_prep_builds_total" in
        let before = Mcmetrics.counter_value builds in
        ignore (Registry.run_all_fused ~spec:p.Corpus.spec p.Corpus.tus);
        Alcotest.(check int)
          "prep build count" nfuncs
          (Mcmetrics.counter_value builds - before));
  ]

let product_tests =
  [
    t "product walk is identical on the corpus and golden protocols"
      `Quick (fun () ->
        match Fuzz_oracle.product_sweep () with
        | [] -> ()
        | fs ->
          Alcotest.failf "product sweep: %d disagreement(s), first: %s"
            (List.length fs)
            (match fs with f :: _ -> f.Fuzz_oracle.f_detail | [] -> ""));
  ]

let suite =
  ( "prep",
    build_once_tests @ product_tests
    @ [ QCheck_alcotest.to_alcotest prop_fused_identical ] )
