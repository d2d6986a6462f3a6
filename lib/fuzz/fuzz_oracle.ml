(** Differential oracles over the checking pipeline.

    Every generated program (clean or mutated) is pushed through five
    pipelines that must agree:

    + O1 [mcd-jobs2]: {!Mcd.check_corpus} with two domains must equal the
      sequential {!Registry.run_all}, diagnostic for diagnostic,
      including order;
    + O2 [mcd-jobs4]: the same with four domains;
    + O3 [cache]: a cold-cache run, an immediately repeated warm-cache
      run, and runs against a long-lived cache shared across many
      programs (so entries from *other* programs — and from the clean
      sibling of a mutant — must never leak in) all equal the sequential
      results;
    + O4 [product]: {!Registry.run_all_product} — one product-automaton
      walk per function, re-running only the machines it flags dirty —
      must equal both {!Registry.run_all_fused} (every checker re-run
      over one shared {!Prep.t}) and the per-checker sequential path,
      so product ≡ fused ≡ per-checker;
    + O5 [roundtrip]: pretty-print, re-lex, re-parse, re-check: printing
      must reach a fixpoint, the AST must survive structurally, and the
      re-checked diagnostics must match modulo source locations. *)

type failure = {
  f_seed : int;
  f_oracle : string;
  f_detail : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "seed %d: oracle %s: %s" f.f_seed f.f_oracle f.f_detail

(* the order-sensitive rendering used for Mcd comparisons *)
let render (results : (string * Diag.t list) list) : string list =
  List.concat_map
    (fun (checker, ds) ->
      List.map (fun d -> checker ^ " | " ^ Diag.to_string d) ds)
    results

(* the location-free multiset used for roundtrip comparisons *)
let keyset (results : (string * Diag.t list) list) : string list =
  List.concat_map (fun (_, ds) -> List.map Diag.key ds) results
  |> List.sort String.compare

let first_diff (a : string list) (b : string list) : string =
  let rec go i a b =
    match (a, b) with
    | [], [] -> "lists equal?"
    | x :: _, [] -> Printf.sprintf "extra at %d: %s" i x
    | [], y :: _ -> Printf.sprintf "missing at %d: %s" i y
    | x :: a, y :: b ->
      if String.equal x y then go (i + 1) a b
      else Printf.sprintf "at %d: %S vs %S" i x y
  in
  go 0 a b

let seq_check ~spec tus = Registry.run_all ~spec tus

(* O4 on one program: product vs fused vs sequential.  [seq] is the
   sequential rendering when the caller already has it. *)
let product_diffs ?seq ~seed ~label ~spec tus : failure list =
  let rp = render (Registry.run_all_product ~spec tus)
  and rf = render (Registry.run_all_fused ~spec tus)
  and rs =
    match seq with Some rs -> rs | None -> render (seq_check ~spec tus)
  in
  let diff oracle a b =
    if a <> b then
      Some
        { f_seed = seed; f_oracle = oracle; f_detail = label ^ first_diff a b }
    else None
  in
  List.filter_map Fun.id
    [ diff "product-fused" rp rf; diff "product-seq" rp rs ]

(** O4's fixed-input pass: every corpus protocol plus both golden
    variants, reported under seed 0 — run once per fuzz session *)
let product_sweep () : failure list =
  let corpus_fs =
    List.concat_map
      (fun (p : Corpus.protocol) ->
        product_diffs ~seed:0
          ~label:("corpus " ^ p.Corpus.name ^ ": ")
          ~spec:p.Corpus.spec p.Corpus.tus)
      (Corpus.generate ()).Corpus.protocols
  in
  let golden_fs =
    List.concat_map
      (fun (v, lbl) ->
        product_diffs ~seed:0 ~label:(lbl ^ ": ") ~spec:Golden.spec
          (Golden.program v))
      [ (Golden.Clean, "golden-clean"); (Golden.Buggy, "golden-buggy") ]
  in
  corpus_fs @ golden_fs

(** [check ?shared_cache ~seed ~spec ~tus ()] runs all five oracles and
    returns the disagreements (empty = all pipelines agree).  Also
    returns the sequential results so callers can reuse them. *)
let check ?shared_cache ~seed ~(spec : Flash_api.spec) ~(tus : Ast.tunit list)
    () : (string * Diag.t list) list * failure list =
  let failures = ref [] in
  let fail oracle detail =
    failures := { f_seed = seed; f_oracle = oracle; f_detail = detail }
      :: !failures
  in
  let seq = seq_check ~spec tus in
  let seq_r = render seq in
  let compare_mcd oracle results =
    let r = render results in
    if r <> seq_r then fail oracle (first_diff r seq_r)
  in
  (* O1/O2: parallel must equal sequential *)
  compare_mcd "mcd-jobs2" (fst (Mcd.check_corpus ~jobs:2 ~spec tus));
  compare_mcd "mcd-jobs4" (fst (Mcd.check_corpus ~jobs:4 ~spec tus));
  (* O3: cold, warm, and shared caches *)
  let cache = Mcd_cache.create () in
  compare_mcd "cache-cold" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  compare_mcd "cache-warm" (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus));
  (match shared_cache with
  | Some cache ->
    compare_mcd "cache-shared"
      (fst (Mcd.check_corpus ~cache ~jobs:2 ~spec tus))
  | None -> ());
  (* O4: product ≡ fused ≡ per-checker *)
  failures :=
    List.rev_append
      (product_diffs ~seq:seq_r ~seed ~label:"" ~spec tus)
      !failures;
  (* O5: print -> re-lex -> re-parse -> re-check *)
  let printed = List.map Pp.tunit_to_string tus in
  (match
     List.map2
       (fun tu src -> Frontend.of_string ~file:tu.Ast.tu_file src)
       tus printed
   with
  | exception exn ->
    fail "roundtrip-parse" (Printexc.to_string exn)
  | tus2 ->
    let printed2 = List.map Pp.tunit_to_string tus2 in
    if not (List.for_all2 String.equal printed printed2) then
      fail "roundtrip-fixpoint"
        (first_diff
           (List.concat_map (String.split_on_char '\n') printed2)
           (List.concat_map (String.split_on_char '\n') printed));
    if not (List.for_all2 Ast.equal_tunit tus tus2) then
      fail "roundtrip-ast" "re-parsed unit differs structurally";
    let seq2 = seq_check ~spec tus2 in
    let k1 = keyset seq and k2 = keyset seq2 in
    if k1 <> k2 then fail "roundtrip-diags" (first_diff k2 k1));
  (seq, List.rev !failures)
