(* Everything a run feeds the programs, made from the seed: the corpus
   files, the editing session, and the reference outputs the programs'
   replies are checked against. *)

type file = {
  name : string;  (** file name, unique across the corpus *)
  src : string;
  proto : string;  (** the protocol the file belongs to *)
  loc : int;  (** non-blank lines, [Frontend.loc_count] *)
}

type t = {
  seed : int;
  corpus : Corpus.t;
  files : file array;
  loc : int;
  bytes : int;
}

let make seed =
  let corpus = Corpus.generate ~seed () in
  let files =
    Array.of_list
      (List.concat_map
         (fun (p : Corpus.protocol) ->
           List.map
             (fun (name, src) ->
               { name; src; proto = p.Corpus.name; loc = Frontend.loc_count src })
             p.Corpus.files)
         corpus.Corpus.protocols)
  in
  {
    seed;
    corpus;
    files;
    loc = Array.fold_left (fun n (f : file) -> n + f.loc) 0 files;
    bytes = Array.fold_left (fun n (f : file) -> n + String.length f.src) 0 files;
  }

let write_files t dir =
  Array.iter (fun f -> Mcheck_api.write_file (Filename.concat dir f.name) f.src) t.files

(* ------------------------------------------------------------------ *)
(* Reference outputs                                                   *)
(* ------------------------------------------------------------------ *)

(* what mcheck -q prints, and what the daemon streams, per diagnostic *)
let ropts = { Mcheck_api.ro_explain = false; ro_verbose = false; ro_quiet = true }

type expected = { text : string; exit : int }

(* The reference per-checker driver ([Registry.run_all]) on [srcs] —
   (name, text) pairs exactly as the program receives them — wired the
   way [Mcheck_api] wires a file-mode check: prelude prepended, the CLI
   default spec, parse diagnostics first. *)
let reference srcs =
  let srcs = List.map (fun (name, src) -> (name, Prelude.text ^ src)) srcs in
  let tus, parse_diags = Frontend.parse_strings srcs in
  let results = Registry.run_all ~spec:(Mcheck_api.default_spec tus) tus in
  let findings =
    List.fold_left
      (fun n (_, ds) -> n + List.length (List.filter (fun d -> not (Robust.is_internal d)) ds))
      0 results
  in
  let diags = parse_diags @ List.concat_map snd results in
  let survived = List.exists (fun tu -> Ast.functions tu <> []) tus in
  let outcome =
    Robust.classify
      ~usable:(survived || parse_diags = [])
      ~degraded:(parse_diags <> []) ~has_findings:(findings > 0)
  in
  {
    text = String.concat "" (List.map (Mcheck_api.render_diag ropts) diags);
    exit = Robust.exit_code outcome;
  }

(* ------------------------------------------------------------------ *)
(* Manifest recall                                                     *)
(* ------------------------------------------------------------------ *)

(* (file, checker, function) of one rendered diagnostic line:
   "FILE:L:C: SEVERITY: [CHECKER] MESSAGE (in FUNC)" *)
let diag_site line =
  match String.index_opt line ':', String.index_opt line '[', String.index_opt line ']' with
  | Some c, Some lb, Some rb when lb < rb -> (
    let file = Filename.basename (String.sub line 0 c) in
    let checker = String.sub line (lb + 1) (rb - lb - 1) in
    let tag = "(in " in
    let n = String.length line in
    let rec last_tag i =
      if i < 0 then None
      else if i + 4 <= n && String.sub line i 4 = tag then Some i
      else last_tag (i - 1)
    in
    match last_tag (n - 4) with
    | Some i when line.[n - 1] = ')' ->
      Some (file, checker, String.sub line (i + 4) (n - i - 5))
    | _ -> None)
  | _ -> None

(* Bug sites the CLI default spec cannot see: [lanes] compares sends
   against each handler's lane allowance, which the default spec sets to
   1 on every lane, so the manifest's lane overruns of allowance 2 are
   not errors in file mode. *)
let spec_blind checker = String.equal checker "lanes"

type recall = {
  found : int;  (** manifest [Bug] sites reported *)
  sites : int;
  missed_required : string list;  (** sites the default spec can see but were not reported *)
}

let recall t outputs =
  let proto_of = Hashtbl.create 32 in
  Array.iter (fun f -> Hashtbl.replace proto_of f.name f.proto) t.files;
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun text ->
      List.iter
        (fun line ->
          match diag_site line with
          | Some (file, checker, func) -> (
            match Hashtbl.find_opt proto_of file with
            | Some proto -> Hashtbl.replace seen (proto, checker, func) ()
            | None -> ())
          | None -> ())
        (String.split_on_char '\n' text))
    outputs;
  let bugs =
    List.concat_map
      (fun (p : Corpus.protocol) ->
        List.filter (fun (e : Manifest.entry) -> e.Manifest.kind = Manifest.Bug) p.Corpus.manifest)
      t.corpus.Corpus.protocols
  in
  let hit (e : Manifest.entry) = Hashtbl.mem seen (e.Manifest.protocol, e.checker, e.func) in
  {
    found = List.length (List.filter hit bugs);
    sites = List.length bugs;
    missed_required =
      List.filter_map
        (fun (e : Manifest.entry) ->
          if hit e || spec_blind e.Manifest.checker then None
          else Some (Printf.sprintf "%s/%s/%s" e.Manifest.protocol e.checker e.func))
        bugs;
  }

(* ------------------------------------------------------------------ *)
(* The editing session                                                 *)
(* ------------------------------------------------------------------ *)

(* Function bodies open on a line holding only "{" right after the
   header line, which ends in ")". *)
let body_opens lines =
  let acc = ref [] in
  Array.iteri
    (fun i l ->
      if i > 0 && String.equal l "{" then
        let h = lines.(i - 1) in
        let n = String.length h in
        if n > 0 && h.[n - 1] = ')' then acc := i :: !acc)
    lines;
  Array.of_list (List.rev !acc)

(* Edits come in rounds: a round touches every file once, in a seeded
   order, so a phase made of whole rounds sees the same mix of file sizes
   on every seed.  Where in its file an edit lands sets how much of the
   file the Mcd cache must re-check (every function below the edit moves,
   so it misses); a phase of [parts] rounds puts each file's [part]-th
   edit in the function body that opens last before the middle line of
   the [part]-th of [parts] equal slices of the file's lines, so every
   phase also re-checks the same share of each file, however the seed
   sized its functions.  Edit [k] adds one statement line at the top of
   that body, and edits accumulate on the file's current text, as in a
   real editing session.  The same seed and the same calls give the same
   sequence. *)
type editor = {
  texts : string array array;  (** each file's current lines *)
  rng : Random.State.t;
  mutable edits : int;
}

let editor t =
  {
    texts = Array.map (fun f -> Array.of_list (String.split_on_char '\n' f.src)) t.files;
    rng = Random.State.make [| t.seed; 0xed17 |];
    edits = 0;
  }

(* the next edit of file [fi], in slice [part] of [parts]: (file index,
   new contents) *)
let edit ed fi ~part ~parts =
  let lines = ed.texts.(fi) in
  let opens = body_opens lines in
  let target = truncate ((float_of_int part +. 0.5) /. float_of_int parts *. float_of_int (Array.length lines)) in
  let at = Array.fold_left (fun at o -> if o <= target then o else at) opens.(0) opens in
  let k = ed.edits in
  ed.edits <- k + 1;
  let stmt = Printf.sprintf "  int pb_edit_%d = %d;" k k in
  let lines =
    Array.concat
      [ Array.sub lines 0 (at + 1); [| stmt |]; Array.sub lines (at + 1) (Array.length lines - at - 1) ]
  in
  ed.texts.(fi) <- lines;
  (fi, String.concat "\n" (Array.to_list lines))

(* one round: every file once, in a seeded order, each edit in slice
   [part] of [parts] *)
let round ed ~part ~parts =
  let order = Array.init (Array.length ed.texts) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int ed.rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.map (fun fi -> edit ed fi ~part ~parts) order

(* An endless editing session for replays that do not come in phases:
   rounds one after another, each file's edits cycling over three
   slices. *)
type stream = { ed : editor; mutable buf : (int * string) array; mutable pos : int; mutable made : int }

let stream t = { ed = editor t; buf = [||]; pos = 0; made = 0 }

let next s =
  if s.pos >= Array.length s.buf then begin
    s.buf <- round s.ed ~part:(s.made mod 3) ~parts:3;
    s.made <- s.made + 1;
    s.pos <- 0
  end;
  s.pos <- s.pos + 1;
  s.buf.(s.pos - 1)
