(** O7 [metalc]: the compiled metal back end must equal the interpreter.

    The three in-tree specs are loaded twice — through {!Mrun.load_file}
    (parser → typed IR → transition tables → prebuilt engine dispatch)
    and through {!Mdsl.load_file}, the interpreter kept as the
    reference — and both are lifted into {!Registry.checker}s, so every
    run goes through the one checking kernel.  On every program the
    fuzzer produces, each compiled spec checked alone must render
    byte-identically (order included) to its interpreted reference, both
    with the product scan off; since {!Fuzz_oracle.keyset} is a
    projection of the same diagnostics, key sets are byte-identical a
    fortiori.  A second differential holds the production path — all
    compiled specs at once, product scan on, as [mcheck --metal A
    --metal B] runs them — to the concatenated references.

    [sweep] is the one-shot fixed-input pass — the five corpus
    protocols and both golden-protocol variants — run once per fuzz
    session before the seeded loop; [oracle] is the per-program hook
    shaped for {!Fuzz_driver.run}'s [extra_oracle]. *)

type t = {
  specs : (string * Registry.checker * Registry.checker) list;
      (** name, compiled back end, interpreter reference *)
}

let spec_names = [ "wait_for_db"; "msglen_check"; "refcount" ]

(* the test and bench binaries run from _build/default/<dir>; walk up
   until the in-tree metal/ directory appears *)
let find_spec_dir () =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "wait_for_db.metal"))
    [
      "metal";
      "../metal";
      "../../metal";
      "../../../metal";
      "../../../../metal";
    ]

let create () : (t, string) result =
  match find_spec_dir () with
  | None -> Error "metalc oracle: cannot locate the in-tree metal/ directory"
  | Some dir ->
    let load1 name =
      let path = Filename.concat dir (name ^ ".metal") in
      match Mrun.load_file path with
      | Ok c ->
        Ok
          ( name,
            Registry.of_machine c,
            Registry.of_machine (Engine.pack (Mdsl.load_file path)) )
      | Error es ->
        Error
          (Printf.sprintf "metalc oracle: %s: %s" path
             (String.concat "; " (List.map Mir.render_error es)))
    in
    let rec load acc = function
      | [] -> Ok { specs = List.rev acc }
      | n :: rest -> (
        match load1 n with
        | Ok s -> load (s :: acc) rest
        | Error e -> Error e)
    in
    load [] spec_names

(* compiled vs interpreted on one program, all three machines *)
let compare_on (t : t) ~(seed : int) ~(label : string) ~spec
    (tus : Ast.tunit list) : Fuzz_oracle.failure list =
  let render ~scan checkers =
    Fuzz_oracle.render (Registry.run_checkers ~scan checkers ~spec tus)
  in
  let diff oracle a b =
    if a <> b then
      Some
        {
          Fuzz_oracle.f_seed = seed;
          f_oracle = oracle;
          f_detail = label ^ ": " ^ Fuzz_oracle.first_diff a b;
        }
    else None
  in
  let refs = List.map (fun (_, _, i) -> render ~scan:false [ i ]) t.specs in
  let per_machine =
    List.map2
      (fun (name, c, _) ri ->
        diff ("metalc-" ^ name) (render ~scan:false [ c ]) ri)
      t.specs refs
  in
  (* the production path: every compiled spec at once, scan on *)
  let product =
    diff "metalc-product"
      (render ~scan:true (List.map (fun (_, c, _) -> c) t.specs))
      (List.concat refs)
  in
  List.filter_map Fun.id (per_machine @ [ product ])

(** the per-generated-program hook for {!Fuzz_driver.run}'s
    [extra_oracle] *)
let oracle (t : t) (p : Fuzz_gen.program) : Fuzz_oracle.failure list =
  compare_on t ~seed:p.Fuzz_gen.seed ~label:"fuzz program"
    ~spec:p.Fuzz_gen.spec p.Fuzz_gen.tus

(** the fixed-input pass: every corpus protocol plus both golden
    variants, reported under seed 0 *)
let sweep (t : t) : Fuzz_oracle.failure list =
  let corpus = Corpus.generate () in
  let corpus_fs =
    List.concat_map
      (fun (p : Corpus.protocol) ->
        compare_on t ~seed:0
          ~label:("corpus " ^ p.Corpus.name)
          ~spec:p.Corpus.spec p.Corpus.tus)
      corpus.Corpus.protocols
  in
  let golden_fs =
    List.concat_map
      (fun (v, lbl) ->
        compare_on t ~seed:0 ~label:lbl ~spec:Golden.spec (Golden.program v))
      [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ]
  in
  corpus_fs @ golden_fs
