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

(* Schedulers may keep a staging past its run (each [Mcd.check_jobs]
   call stages per domain), so a staging must hold only what the spec
   builds — machines and closures — never the program it stages for. *)
let staging_tests =
  [
    t "a staging does not retain the program" `Quick (fun () ->
        let p = Option.get (Corpus.find (Corpus.generate ()) "bitvector") in
        let st =
          Registry.stage Registry.all ~spec:p.Corpus.spec
            (Registry.make_ctx p.Corpus.tus)
        in
        let staged = Obj.reachable_words (Obj.repr st) in
        let program = Obj.reachable_words (Obj.repr p.Corpus.tus) in
        if staged >= program / 4 then
          Alcotest.failf "staging reaches %d words, the program %d" staged
            program);
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

(* More machines than the packed visited key holds (6): the six built-in
   machine checkers plus a compiled in-tree metal spec.  The scan cannot
   run, so every machine re-runs — the per-checker result by
   construction, which the scan-off render pins down. *)
let overflow_tests =
  [
    t "seven machines: the scan is skipped and every machine re-runs"
      `Quick (fun () ->
        let dir =
          match Fuzz_metalc.find_spec_dir () with
          | Some d -> d
          | None -> Alcotest.fail "cannot locate metal/"
        in
        let spec_machine =
          match Mrun.load_file (Filename.concat dir "msglen_check.metal") with
          | Ok m -> m
          | Error _ -> Alcotest.fail "msglen_check.metal does not compile"
        in
        let checkers = Registry.all @ [ Registry.of_machine spec_machine ] in
        let fallbacks =
          Mcmetrics.counter "mcheck_product_pack_fallbacks_total"
        in
        List.iter
          (fun (p : Corpus.protocol) ->
            let machines =
              List.filter
                (fun (c : Registry.checker) ->
                  match c.Registry.phase with
                  | Registry.Per_function { product; _ } ->
                    Option.is_some (product ~spec:p.Corpus.spec)
                  | Registry.Whole_program _ -> false)
                checkers
            in
            Alcotest.(check bool)
              "more machines than the packed key holds" true
              (List.length machines > 6);
            let run ~scan =
              explain_render
                (Registry.run_checkers ~scan checkers ~spec:p.Corpus.spec
                   p.Corpus.tus)
            in
            let before = Mcmetrics.counter_value fallbacks in
            let scanned = run ~scan:true in
            Alcotest.(check bool)
              (p.Corpus.name ^ ": skipped scans counted") true
              (Mcmetrics.counter_value fallbacks > before);
            Alcotest.(check (list string))
              (p.Corpus.name ^ ": scan on = scan off") (run ~scan:false)
              scanned)
          (Corpus.generate ()).Corpus.protocols);
  ]

let suite =
  ( "prep",
    build_once_tests @ staging_tests @ product_tests @ overflow_tests
    @ [ QCheck_alcotest.to_alcotest prop_fused_identical ] )
