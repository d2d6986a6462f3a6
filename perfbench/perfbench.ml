(* perfbench — the repository's end-to-end benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1
       one run; the last stdout line is the result JSON.  --trace 0
       drives the shipped binaries and reports the end-to-end metrics;
       --trace 1 replays the same inputs in-process, layer by layer, and
       reports the per-layer metrics and the waterfall.
     perfbench suite [--runs N] [--seed N] [--out FILE]
       every workload, N seeds each (seeds N, N+1, ...), plus one traced
       run per workload, each for BENCHMARK.json's run_seconds;
       prints each metric's median and quartiles and writes the runs to
       FILE (JSON lines) for [compare].
     perfbench compare OLD NEW
       per workload and metric: medians, quartiles and a verdict judged
       against the bounds in BENCHMARK.json.

   Run it from the repository root (perfbench/run.sh builds first). *)

let workloads = [ "cli_corpus"; "serve_edit" ]
let default_seed = 0xF1A54
let work_dir = "perfbench/_work"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | one :: _ -> Option.value ~default:nan (float_of_string_opt one)
  | [] -> nan
  | exception Sys_error _ -> nan

(* the commit checked out, read from .git without running git; a source
   tree that is not a repository reports "unknown" *)
let git_rev () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" r))
      with Sys_error _ -> (
        let packed = try read_file ".git/packed-refs" with Sys_error _ -> "" in
        match
          List.find_opt
            (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
            (String.split_on_char '\n' packed)
        with
        | Some l -> String.sub l 0 40
        | None -> "unknown")
    else head
  with Sys_error _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let metrics_json ms =
  Bjson.Obj
    (List.map
       (fun (name, (v, unit)) -> (name, Bjson.Obj [ ("value", Bjson.Num v); ("unit", Bjson.Str unit) ]))
       ms)

let run_one ~workload ~seed ~seconds ~trace =
  let root = Sys.getcwd () in
  let bin name = Filename.concat root (Filename.concat "_build/default/bin" name) in
  let mcheck = bin "mcheck.exe" and mcheckd = bin "mcheckd.exe" in
  if not (Sys.file_exists mcheck && Sys.file_exists mcheckd) then
    die "%s and mcheckd.exe not built; run perfbench/run.sh from the repository root" mcheck;
  let dir = Filename.concat work_dir (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () ->
      Procs.kill_all ();
      Sys.chdir root;
      rm_rf dir);
  let load_before = loadavg () and rev = git_rev () in
  let inp = Inputs.make seed in
  Sys.chdir dir;
  mkdir_p "src";
  Inputs.write_files inp "src";
  let env =
    {
      E2e.mcheck;
      mcheckd;
      inp;
      paths = Array.to_list (Array.map (fun (f : Inputs.file) -> "src/" ^ f.Inputs.name) inp.Inputs.files);
      seconds;
    }
  in
  let o =
    if trace then Layers.run ~workload env
    else
      match workload with
      | "cli_corpus" -> E2e.cli env
      | "serve_edit" -> E2e.serve_edit env
      | w -> die "unknown workload %s (one of %s)" w (String.concat ", " workloads)
  in
  let context =
    Bjson.Obj
      ([
         ("workload", Bjson.Str workload);
         ("seed", Bjson.Num (float_of_int seed));
         ("trace", Bjson.Bool trace);
         ("seconds", Bjson.Num seconds);
         ("git_rev", Bjson.Str rev);
         ("cores", Bjson.Num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml", Bjson.Str Sys.ocaml_version);
         ("loadavg_before", Bjson.Num load_before);
         ("loadavg_after", Bjson.Num (loadavg ()));
         ("corpus_files", Bjson.Num (float_of_int (Array.length inp.Inputs.files)));
         ("corpus_loc", Bjson.Num (float_of_int inp.Inputs.loc));
         ("corpus_bytes", Bjson.Num (float_of_int inp.Inputs.bytes));
         ("checks", Bjson.Obj (List.map (fun (k, ok) -> (k, Bjson.Bool ok)) o.E2e.checks));
       ]
      @ o.E2e.notes)
  in
  print_endline ("# context " ^ Bjson.to_string context);
  List.iter
    (fun (name, (v, unit)) -> Printf.printf "# %-26s %14.4f %s\n" name v unit)
    o.E2e.metrics;
  Printf.printf "# %-26s %14.4f ratio (%d failed of %d attempted)\n" "failed_ratio"
    (float_of_int o.E2e.failed /. float_of_int (max 1 o.E2e.attempted))
    o.E2e.failed o.E2e.attempted;
  let correct = o.E2e.failed = 0 && List.for_all snd o.E2e.checks in
  List.iter
    (fun (k, ok) -> if not ok then Printf.printf "# CHECK FAILED: %s\n" k)
    o.E2e.checks;
  print_endline
    (Bjson.to_string
       (Bjson.Obj
          [
            ("correct", Bjson.Bool correct);
            ("attempted", Bjson.Num (float_of_int o.E2e.attempted));
            ("failed", Bjson.Num (float_of_int o.E2e.failed));
            ("metrics", metrics_json o.E2e.metrics);
          ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Bounds, suite and compare                                           *)
(* ------------------------------------------------------------------ *)

type spec = { m_name : string; m_unit : string; m_better : Bstats.better; m_bound : float option }

(* every metric BENCHMARK.json declares, end-to-end ones first *)
let metric_specs () =
  let j = try Bjson.of_string (read_file "BENCHMARK.json") with Sys_error _ -> die "BENCHMARK.json not found" in
  let specs key =
    match Bjson.member key j with
    | Some (Bjson.Arr l) ->
      List.map
        (fun m ->
          let str k = Option.bind (Bjson.member k m) Bjson.to_str |> Option.value ~default:"" in
          {
            m_name = str "name";
            m_unit = str "unit";
            m_better = (if str "better" = "higher" then Bstats.Higher else Bstats.Lower);
            m_bound = Option.bind (Bjson.member "bound" m) Bjson.to_num;
          })
        l
    | _ -> []
  in
  (specs "end_to_end", specs "per_layer")

(* BENCHMARK.json's run length, the default of every run *)
let run_seconds () =
  match Bjson.member "run_seconds" (Bjson.of_string (read_file "BENCHMARK.json")) with
  | Some (Bjson.Num n) -> Printf.sprintf "%.0f" n
  | _ -> die "BENCHMARK.json has no run_seconds"
  | exception Sys_error _ -> die "BENCHMARK.json not found"

(* result lines: {"workload", "seed", "trace", "context", "result"} *)
let load_runs path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else Some (Bjson.of_string line))
    (String.split_on_char '\n' (read_file path))

let values runs ~workload ~trace name =
  List.filter_map
    (fun r ->
      if Bjson.member "workload" r = Some (Bjson.Str workload) && Bjson.member "trace" r = Some (Bjson.Bool trace)
      then
        Option.bind (Bjson.member "result" r) (fun res ->
            Option.bind (Bjson.member "metrics" res) (fun ms ->
                Option.bind (Bjson.member name ms) (fun m -> Option.bind (Bjson.member "value" m) Bjson.to_num)))
      else None)
    runs

let print_summary runs =
  let e2e, layers = metric_specs () in
  List.iter
    (fun (trace, specs) ->
      List.iter
        (fun w ->
          if List.exists (fun s -> values runs ~workload:w ~trace s.m_name <> []) specs then begin
            Printf.printf "\n%s (%s)\n" w (if trace then "traced, per layer" else "end to end");
            Printf.printf "  %-26s %-8s %4s %14s %14s %14s %8s %6s\n" "metric" "unit" "n" "median" "q1" "q3"
              "spread" "bound";
            List.iter
              (fun s ->
                let xs = values runs ~workload:w ~trace s.m_name in
                if xs <> [] then
                  let q1, _, q3 = Bstats.quartiles xs in
                  Printf.printf "  %-26s %-8s %4d %14.4f %14.4f %14.4f %7.1f%% %6s\n" s.m_name s.m_unit
                    (List.length xs) (Bstats.median xs) q1 q3
                    (100. *. Bstats.spread xs)
                    (match s.m_bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-"))
              specs;
            let count k =
              List.fold_left
                (fun acc r ->
                  if Bjson.member "workload" r = Some (Bjson.Str w) && Bjson.member "trace" r = Some (Bjson.Bool trace)
                  then
                    acc
                    +. Option.value ~default:0.
                         (Option.bind (Bjson.member "result" r) (fun res -> Option.bind (Bjson.member k res) Bjson.to_num))
                  else acc)
                0. runs
            in
            Printf.printf "  %-26s %-8s %4s %14.4f   (%.0f failed of %.0f attempted)\n" "failed_ratio" "ratio" ""
              (count "failed" /. Float.max 1. (count "attempted"))
              (count "failed") (count "attempted")
          end)
        workloads)
    [ (false, e2e); (true, layers) ]

(* run [args] as a child perfbench, echo its report lines, and return
   its result JSON and context *)
let run_child args =
  let self = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process self (Array.of_list (self :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> Procs.read_all r) in
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  let context = ref Bjson.Null in
  List.iter
    (fun l ->
      let pre = "# context " in
      let n = String.length pre in
      if String.length l > n && String.sub l 0 n = pre then
        context := Bjson.of_string (String.sub l n (String.length l - n))
      else if String.length l > 0 && l.[0] = '#' then print_endline ("  " ^ l))
    lines;
  let result =
    match List.rev lines with
    | last :: _ -> (try Bjson.of_string last with Bjson.Parse_error _ -> Bjson.Null)
    | [] -> Bjson.Null
  in
  (result, !context, status = Unix.WEXITED 0)

let suite ~runs ~seconds ~seed0 ~out =
  mkdir_p (Filename.dirname out);
  let oc = open_out out in
  let all_ok = ref true in
  let args w seed trace =
    [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; string_of_float seconds; "--trace"; trace ]
  in
  let record w seed trace (result, context, ok) =
    if not ok then all_ok := false;
    output_string oc
      (Bjson.to_string
         (Bjson.Obj
            [
              ("workload", Bjson.Str w);
              ("seed", Bjson.Num (float_of_int seed));
              ("trace", Bjson.Bool trace);
              ("context", context);
              ("result", result);
            ])
      ^ "\n");
    flush oc
  in
  List.iter
    (fun w ->
      for k = 0 to runs - 1 do
        let seed = seed0 + k in
        Printf.printf "== %s seed %d\n%!" w seed;
        record w seed false (run_child (args w seed "0"))
      done;
      Printf.printf "== %s seed %d traced\n%!" w seed0;
      record w seed0 true (run_child (args w seed0 "1")))
    workloads;
  close_out oc;
  print_summary (load_runs out);
  Printf.printf "\n%s: %s (%d seed%s per workload, from %d)\n" out
    (if !all_ok then "every run correct" else "SOME RUNS FAILED")
    runs (if runs = 1 then "" else "s") seed0;
  if not !all_ok then exit 1

let compare_files old_path new_path =
  let olds = load_runs old_path and news = load_runs new_path in
  let e2e, _ = metric_specs () in
  Printf.printf "%-14s %-24s %12s %12s %8s %8s  %s\n" "workload" "metric" "old median" "new median" "change"
    "spread" "verdict (change: positive is worse)";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let o = values olds ~workload:w ~trace:false s.m_name
          and n = values news ~workload:w ~trace:false s.m_name in
          if o = [] || n = [] then begin
            if o <> [] || n <> [] then
              Printf.printf "%-14s %-24s only in %s\n" w s.m_name (if o = [] then new_path else old_path)
          end
          else
            let bound = Option.value ~default:0.1 s.m_bound in
            let c = Bstats.compare ~better:s.m_better ~bound o n in
            let q1o, mo, q3o = c.Bstats.c_old and q1n, mn, q3n = c.Bstats.c_new in
            Printf.printf
              "%-14s %-24s %12.4f %12.4f %+7.1f%% %7.1f%%  %-10s [old q1..q3 %.4f..%.4f n=%d, new %.4f..%.4f n=%d, bound %.0f%%]\n"
              w s.m_name mo mn (100. *. c.Bstats.c_change) (100. *. c.Bstats.c_spread)
              (Bstats.verdict_to_string c.Bstats.c_verdict)
              q1o q3o (List.length o) q1n q3n (List.length n) (100. *. bound))
        e2e)
    workloads

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  Mcobs.set_enabled false;
  Mcobs.set_verbosity Mcobs.Quiet;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if not (Sys.file_exists "dune-project" && Sys.file_exists "bin/mcheck.ml") then
    die "run from the repository root";
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %s" a
  in
  let get o k default = Option.value ~default (List.assoc_opt k o) in
  let int_of k s = match int_of_string_opt s with Some n -> n | None -> die "%s wants an integer, got %s" k s in
  let float_of k s = match float_of_string_opt s with Some f when f > 0. -> f | _ -> die "%s wants a positive number, got %s" k s in
  match args with
  | "compare" :: [ a; b ] -> compare_files a b
  | "suite" :: rest ->
    let o = opts [] rest in
    suite
      ~runs:(int_of "--runs" (get o "--runs" "5"))
      ~seconds:(float_of "run_seconds" (run_seconds ()))
      ~seed0:(int_of "--seed" (get o "--seed" (string_of_int default_seed)))
      ~out:(get o "--out" (Filename.concat work_dir "results.jsonl"))
  | _ ->
    let o = opts [] args in
    let workload = match List.assoc_opt "--workload" o with Some w -> w | None -> die "--workload is required" in
    if not (List.mem workload workloads) then
      die "unknown workload %s (one of %s)" workload (String.concat ", " workloads);
    let trace = match get o "--trace" "0" with "0" -> false | "1" -> true | t -> die "--trace wants 0 or 1, got %s" t in
    run_one ~workload
      ~seed:(int_of "--seed" (get o "--seed" (string_of_int default_seed)))
      ~seconds:(float_of "--seconds" (get o "--seconds" (run_seconds ())))
      ~trace
