(** The Mcheck_api session facade: equivalence with the raw pipeline,
    selection, outcome classification, statistics, the whole-request
    memo, and the deprecated one-shot shim. *)

let t = Alcotest.test_case

let buggy_src =
  "void H(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; \
   NI_SEND(MSG_PUT, F_DATA, 0, W_NOWAIT, 1, 0); }"

let clean_src =
  "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); FREE_DB(); }"

let render report =
  String.concat ""
    (List.map
       (Mcheck_api.render_diag
          { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = false })
       (Mcheck_api.report_diags report))

let with_session ?config f =
  let s = Mcheck_api.Session.create ?config () in
  Fun.protect ~finally:(fun () -> Mcheck_api.Session.close s) (fun () -> f s)

(* how much each named registry series rose while [f] ran — sessions
   keep no tallies of their own *)
let registry_deltas names f =
  let read () = List.map (Mcmetrics.int_value (Mcmetrics.snapshot ())) names in
  let before = read () in
  f ();
  List.map2 ( - ) (read ()) before

let write_tmp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  Mcheck_api.write_file path contents;
  path

let session_cases =
  [
    t "check_buffer matches the raw fused pipeline" `Quick (fun () ->
        let tus =
          Frontend.of_strings [ ("b.c", Prelude.text ^ buggy_src) ]
        in
        let expected =
          Registry.run_all_fused ~spec:(Mcheck_api.default_spec tus) tus
        in
        with_session (fun s ->
            let r =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check string)
              "same diagnostics"
              (String.concat "\n"
                 (List.concat_map
                    (fun (n, ds) -> n :: List.map Diag.to_string ds)
                    (List.filter (fun (_, ds) -> ds <> []) expected)))
              (String.concat "\n"
                 (List.concat_map
                    (fun (n, ds) -> n :: List.map Diag.to_string ds)
                    (List.filter (fun (_, ds) -> ds <> [])
                       r.Mcheck_api.r_results)))));
    t "check_files equals check_buffer on the same bytes" `Quick (fun () ->
        let path = write_tmp "api_eq.c" buggy_src in
        with_session (fun s ->
            let from_file = Mcheck_api.Session.check_files s [ path ] in
            let from_buf =
              Mcheck_api.Session.check_buffer s ~name:path
                ~contents:buggy_src
            in
            Alcotest.(check string)
              "same render" (render from_file) (render from_buf);
            Alcotest.(check int)
              "same findings" from_file.Mcheck_api.r_findings
              from_buf.Mcheck_api.r_findings));
    t "outcomes: clean 0, findings 1, garbage partial, missing unusable"
      `Quick (fun () ->
        with_session (fun s ->
            let clean =
              Mcheck_api.Session.check_buffer s ~name:"c.c"
                ~contents:clean_src
            in
            Alcotest.(check int) "clean exit" 0
              (Robust.exit_code clean.Mcheck_api.r_outcome);
            let buggy =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check int) "findings exit" 1
              (Robust.exit_code buggy.Mcheck_api.r_outcome);
            (* recovered-garbage alongside an intact function: partial *)
            let partial =
              Mcheck_api.Session.check_buffer s ~name:"g.c"
                ~contents:(clean_src ^ " @#$ not C at all")
            in
            Alcotest.(check int) "partial exit" 2
              (Robust.exit_code partial.Mcheck_api.r_outcome);
            let missing =
              Mcheck_api.Session.check_files s [ "/nonexistent/nope.c" ]
            in
            Alcotest.(check int) "unusable exit" 3
              (Robust.exit_code missing.Mcheck_api.r_outcome)));
    t "selection filters findings but keeps internal entries" `Quick
      (fun () ->
        let config =
          { Mcheck_api.default_config with checkers = [ "buffer_race" ] }
        in
        with_session ~config (fun s ->
            let r =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check int) "msg_length filtered out" 0
              r.Mcheck_api.r_findings;
            List.iter
              (fun (name, _) ->
                Alcotest.(check bool)
                  (name ^ " allowed") true
                  (String.equal name "buffer_race"
                  || String.equal name "internal"))
              r.Mcheck_api.r_results));
    t "per-call checkers override beats the session default" `Quick
      (fun () ->
        with_session (fun s ->
            let all =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            let only =
              Mcheck_api.Session.check_buffer
                ~checkers:[ "buffer_race" ] s ~name:"b.c"
                ~contents:buggy_src
            in
            Alcotest.(check bool) "default finds the bug" true
              (all.Mcheck_api.r_findings > 0);
            Alcotest.(check int) "override filters it" 0
              only.Mcheck_api.r_findings));
    t "registry counts requests, files, findings" `Quick (fun () ->
        with_session (fun s ->
            match
              registry_deltas
                [
                  "mcheck_session_requests_total";
                  "mcheck_files_checked_total";
                  "mcheck_findings_total";
                ]
                (fun () ->
                  ignore
                    (Mcheck_api.Session.check_buffer s ~name:"b.c"
                       ~contents:buggy_src);
                  ignore
                    (Mcheck_api.Session.check_buffer s ~name:"c.c"
                       ~contents:clean_src))
            with
            | [ requests; files; findings ] ->
              Alcotest.(check int) "requests" 2 requests;
              Alcotest.(check int) "files" 2 files;
              Alcotest.(check bool) "findings counted" true (findings > 0)
            | _ -> assert false));
    t "incremental memo answers identical re-checks" `Quick (fun () ->
        let config =
          { Mcheck_api.default_config with incremental = true }
        in
        with_session ~config (fun s ->
            let r1 =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:buggy_src
            in
            let r2 = ref r1 in
            let hits =
              registry_deltas
                [ "mcheck_memo_hits_total"; "mcheck_unit_cache_hits_total" ]
                (fun () ->
                  r2 :=
                    Mcheck_api.Session.check_buffer s ~name:"b.c"
                      ~contents:buggy_src)
            in
            Alcotest.(check string) "identical" (render r1) (render !r2);
            (* a memo hit is not a unit-cache hit *)
            Alcotest.(check (list int)) "memo hit recorded" [ 1; 0 ] hits;
            (* different bytes must miss *)
            let r3 =
              Mcheck_api.Session.check_buffer s ~name:"b.c"
                ~contents:clean_src
            in
            Alcotest.(check bool) "distinct input, distinct report" true
              (r3.Mcheck_api.r_findings <> r1.Mcheck_api.r_findings)));
    t "check_jobs matches per-protocol fused runs" `Quick (fun () ->
        let corpus = Corpus.generate () in
        let jobs = Mcheck_api.corpus_jobs corpus in
        let expected =
          List.map
            (fun (j : Mcd.job) ->
              Registry.run_all_fused ~spec:j.Mcd.spec j.Mcd.tus)
            jobs
        in
        with_session (fun s ->
            let results, report = Mcheck_api.Session.check_jobs s jobs in
            Alcotest.(check string)
              "same rendering"
              (Mcheck_api.render_results expected)
              (Mcheck_api.render_results results);
            Alcotest.(check bool) "corpus has findings" true
              (report.Mcheck_api.r_findings > 0)));
    t "strict parse failure raises Robust_exit" `Quick (fun () ->
        let config = { Mcheck_api.default_config with strict = true } in
        with_session ~config (fun s ->
            match
              Mcheck_api.Session.check_buffer s ~name:"g.c"
                ~contents:"@#$ not C"
            with
            | _ -> Alcotest.fail "expected Robust_exit"
            | exception Mcheck_api.Robust_exit o ->
              Alcotest.(check int) "unusable" 3 (Robust.exit_code o)));
    t "default_spec takes void/no-arg functions as handlers" `Quick
      (fun () ->
        let tus =
          Frontend.of_strings
            [
              ( "s.c",
                Prelude.text
                ^ "void H(void) { } int helper(void) { return 1; } void \
                   takes_arg(int x) { x = x; }" );
            ]
        in
        let spec = Mcheck_api.default_spec tus in
        Alcotest.(check (list string))
          "handlers" [ "H" ]
          (List.map
             (fun h -> h.Flash_api.h_name)
             spec.Flash_api.p_handlers));
    t "one-shot session check of a clean file" `Quick (fun () ->
        let path = write_tmp "api_shim.c" clean_src in
        let s = Mcheck_api.Session.create () in
        let r =
          Fun.protect
            ~finally:(fun () -> Mcheck_api.Session.close s)
            (fun () -> Mcheck_api.Session.check_files s [ path ])
        in
        Alcotest.(check int) "clean" 0
          (Robust.exit_code r.Mcheck_api.r_outcome));
  ]

let suite = ("api", session_cases)
