(* The end-to-end runs: the shipped binaries, spawned with their default
   flags, driven from outside.  Nothing here records spans. *)

type env = {
  mcheck : string;  (** absolute path of the mcheck binary *)
  mcheckd : string;
  inp : Inputs.t;
  paths : string list;  (** the corpus files as mcheck is given them *)
  seconds : float;
}

(* One run's outcome: metrics by name (value, unit), request counts, and
   notes for the result's context (tail percentiles, recall, ...). *)
type outcome = {
  metrics : (string * (float * string)) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks *)
  notes : (string * Bjson.t) list;
}

let ms_of xs = List.map Openloop.latency_ms xs
let median = Bstats.median

(* the latency pair a phase reports, and the tail percentile used *)
let latency_pair lat =
  let p, tail = Bstats.tail lat in
  (median lat, tail, p)

let phase_note name recs lat =
  let p50, tail, p = latency_pair lat in
  ( name,
    Bjson.Obj
      [
        ("n", Bjson.Num (float_of_int (List.length recs)));
        ("p50_ms", Bjson.Num p50);
        ("tail_pct", Bjson.Num p);
        ("tail_ms", Bjson.Num tail);
        ( "gen_late_p99_ms",
          Bjson.Num (Bstats.percentile (List.map Openloop.late_ms recs) 99.) );
      ] )

let failed_of recs = List.length (List.filter (fun r -> not r.Openloop.ok) recs)

let recall_notes (r : Inputs.recall) =
  [
    ("manifest_recall", Bjson.Num (float_of_int r.Inputs.found /. float_of_int r.Inputs.sites));
    ("manifest_bugs", Bjson.Str (Printf.sprintf "%d/%d" r.Inputs.found r.Inputs.sites));
    ("manifest_missed", Bjson.Arr (List.map (fun s -> Bjson.Str s) r.Inputs.missed_required));
  ]

(* ------------------------------------------------------------------ *)
(* cli_corpus                                                          *)
(* ------------------------------------------------------------------ *)

(* A one-function file: spawning mcheck on it is the CLI's fixed cost
   (process start, checker set-up), which is all the set-up a batch user
   pays.  A spawn takes a few milliseconds, so set-up time is the median
   of many. *)
let setup_file = "pb_setup.c"
let setup_src = "int pb_setup(int x)\n{\n  return x;\n}\n"
let setup_spawns = 21

(* Runs per phase at --seconds 40: 15 to 30 s each on a shared 2-core
   host, depending on how busy it is.  The single phase's 16 are too few
   for any percentile above the median to have ten samples beyond it, so
   its tail is its median ([Bstats.tail]); the loaded phase's 40 support
   p75. *)
let single_runs = 16
let loaded_runs = 40

let cli env =
  let srcs = Array.to_list (Array.map (fun (f : Inputs.file) -> f.Inputs.src) env.inp.Inputs.files) in
  let expected = Inputs.reference (List.combine env.paths srcs) in
  Mcheck_api.write_file setup_file setup_src;
  let setup_expected = Inputs.reference [ (setup_file, setup_src) ] in
  let setups =
    List.init setup_spawns (fun _ ->
        let r = Procs.run env.mcheck [ "-q"; setup_file ] in
        ( r.Procs.wall_s,
          r.Procs.exit = setup_expected.Inputs.exit && String.equal r.Procs.stdout setup_expected.Inputs.text ))
  in
  let outputs = ref [] and rss = ref [] and mu = Mutex.create () in
  let send _conn _i =
    let r = Procs.run env.mcheck ("-q" :: env.paths) in
    let ok = r.Procs.exit = expected.Inputs.exit && String.equal r.Procs.stdout expected.Inputs.text in
    Mutex.protect mu (fun () ->
        rss := float_of_int r.Procs.maxrss_kb /. 1024. :: !rss;
        if !outputs = [] then outputs := [ r.Procs.stdout ]);
    ok
  in
  (* closed loops of a fixed number of runs, scaled with --seconds, so
     the tail percentile a phase supports does not depend on host speed *)
  let closed ~conns runs =
    let count = max 3 (truncate (Float.round (float_of_int runs *. env.seconds /. 40.))) in
    let t0 = Unix.gettimeofday () in
    let recs = Openloop.run ~conns ~count ~due:(fun _ -> 0.) ~send () in
    (recs, Unix.gettimeofday () -. t0)
  in
  let single, single_s = closed ~conns:1 single_runs in
  let loaded, loaded_s = closed ~conns:2 loaded_runs in
  let lat = List.map Openloop.service_ms single in
  let llat = List.map Openloop.service_ms loaded in
  let p50, tail, _ = latency_pair lat and lp50, ltail, _ = latency_pair llat in
  let recall = Inputs.recall env.inp !outputs in
  (* the single phase's checked kLOC over its wall time, gaps between
     runs included *)
  let kloc = float_of_int (List.length single * env.inp.Inputs.loc) /. 1000. in
  {
    metrics =
      [
        ("setup_s", (median (List.map fst setups), "s"));
        ("latency_p50_ms", (p50, "ms"));
        ("latency_tail_ms", (tail, "ms"));
        ("loaded.latency_p50_ms", (lp50, "ms"));
        ("loaded.latency_tail_ms", (ltail, "ms"));
        ("max_rps", (float_of_int (List.length loaded) /. loaded_s, "req/s"));
        ("throughput_kloc_s", (kloc /. single_s, "kLOC/s"));
        ("peak_rss_mb", (median !rss, "MiB"));
      ];
    attempted = List.length setups + List.length single + List.length loaded;
    failed =
      List.length (List.filter (fun (_, ok) -> not ok) setups)
      + failed_of single + failed_of loaded;
    checks =
      [
        ("output_identical_to_reference", failed_of single + failed_of loaded = 0);
        ("manifest_bugs_reported", recall.Inputs.missed_required = []);
      ];
    notes =
      [
        phase_note "single" single lat;
        phase_note "loaded" loaded llat;
        ("single_phase_s", Bjson.Num single_s);
        ("diagnostics", Bjson.Num (float_of_int (List.length (String.split_on_char '\n' expected.Inputs.text) - 1)));
      ]
      @ recall_notes recall;
  }

(* ------------------------------------------------------------------ *)
(* serve_edit                                                         *)
(* ------------------------------------------------------------------ *)

(* Sized from the parent commit's capacity on a 2-core host (see
   README.md): the light and loaded offered rates, and the limit the tail
   must meet for a rate to count toward max_rps.  The loaded rate stays
   well under the capacity of a slow moment of the host, so host noise
   does not tip it into saturation. *)
let light_rps = 5.
let loaded_rps = 8.
let limit_ms = 400.

(* Phase lengths in rounds of the corpus files (see [Inputs.round]) at
   --seconds 40, scaled with it.  Every phase is made of whole rounds, so
   every phase of every seed sees the same mix of file sizes and edit
   depths, and the work a run does is fixed by them, not by how fast the
   host is: cache growth and memory do not depend on host speed. *)
let light_rounds = 3
let loaded_rounds = 4
let sat_rounds = 4
let probe_rounds = 2
let probes_per_run = 3

(* edit replies checked against the reference after the timed phases *)
let sample_size = 24

(* setups per run; set-up time is their median *)
let setup_rounds = 3

let reply_text (r : Serve.Client.check_result) =
  String.concat "" (List.map (fun (d : Serve.Proto.diag_frame) -> d.Serve.Proto.d_text) r.Serve.Client.cr_diags)

let serve_edit env =
  let inp = env.inp in
  let files = inp.Inputs.files in
  let refs = Array.map (fun (f : Inputs.file) -> Inputs.reference [ (f.Inputs.name, f.Inputs.src) ]) files in
  let log = "mcheckd.log" in
  let opts = Serve.Proto.default_opts in
  let check c ~name ~contents =
    match Serve.Client.check_buffer c opts ~name ~contents with
    | Ok (Serve.Client.Checked r) -> Some r
    | Ok (Serve.Client.Refused _ | Serve.Client.Overloaded _) | Error _ -> None
  in
  (* set-up: spawn, then open every file once; the replies are checked
     and give the manifest recall *)
  let open_outputs = ref [] and open_bad = ref 0 in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let d = match Procs.spawn_daemon ~log env.mcheckd with Ok d -> d | Error m -> failwith m in
    let c = match Procs.connect d.Procs.addr with Ok c -> c | Error e -> failwith (Serve.Client.err_to_string e) in
    let outs =
      Array.to_list
        (Array.mapi
           (fun i (f : Inputs.file) ->
             match check c ~name:f.Inputs.name ~contents:f.Inputs.src with
             | Some r ->
               let text = reply_text r in
               if not (String.equal text refs.(i).Inputs.text && r.Serve.Client.cr_exit = refs.(i).Inputs.exit)
               then incr open_bad;
               text
             | None -> incr open_bad; "")
           files)
    in
    Serve.Client.close c;
    open_outputs := outs;
    (d, Unix.gettimeofday () -. t0)
  in
  let drained = ref true in
  let rec setups k acc =
    let d, s = setup () in
    if k <= 1 then (d, List.rev (s :: acc))
    else begin
      if not (Procs.stop_daemon d) then drained := false;
      setups (k - 1) (s :: acc)
    end
  in
  let daemon, setup_times = setups setup_rounds [] in
  let secs = env.seconds in
  let scaled n = max 1 (truncate (Float.round (float_of_int n *. secs /. 40.))) in
  let n_light = scaled light_rounds and n_loaded = scaled loaded_rounds in
  let n_sat = scaled sat_rounds and n_probe = scaled probe_rounds in
  let total = Array.length files * (n_light + n_loaded + n_sat + (probes_per_run * n_probe)) in
  (* a seeded sample of request indices, whose contents and replies are
     kept and checked once the timed phases are over *)
  let sample =
    let rng = Random.State.make [| inp.Inputs.seed; 0x5a3e |] in
    List.sort_uniq compare (List.init sample_size (fun _ -> Random.State.int rng total))
  in
  let sampled : (int, int * string) Hashtbl.t = Hashtbl.create sample_size in
  let replies : (int, Serve.Client.check_result) Hashtbl.t = Hashtbl.create sample_size in
  let replies_mu = Mutex.create () in
  let editor = Inputs.editor inp in
  let next_req = ref 0 in
  (* One phase over two fresh connections: a round per (part, parts)
     slice, sent open loop at [rate], or closed loop without one.  Its
     requests are made before it starts; request indices continue across
     phases, so edits keep accumulating. *)
  let phase ?rate slices =
    let reqs = Array.concat (List.map (fun (part, parts) -> Inputs.round editor ~part ~parts) slices) in
    let base = !next_req in
    next_req := base + Array.length reqs;
    let keep = Array.init (Array.length reqs) (fun k -> List.mem (base + k) sample) in
    Array.iteri (fun k r -> if keep.(k) then Hashtbl.replace sampled (base + k) r) reqs;
    let clients =
      Array.init 2 (fun _ ->
          match Procs.connect daemon.Procs.addr with
          | Ok c -> c
          | Error e -> failwith (Serve.Client.err_to_string e))
    in
    let send conn k =
      let fi, contents = reqs.(k) in
      match check clients.(conn) ~name:files.(fi).Inputs.name ~contents with
      | None -> false
      | Some r ->
        if keep.(k) then Mutex.protect replies_mu (fun () -> Hashtbl.replace replies (base + k) r);
        r.Serve.Client.cr_exit = 0 || r.Serve.Client.cr_exit = 1
    in
    let due =
      match rate with
      | Some rate -> Openloop.schedule ~t0:(Unix.gettimeofday () +. 0.05) ~rate
      | None -> fun _ -> 0.
    in
    let recs =
      Fun.protect
        ~finally:(fun () -> Array.iter Serve.Client.close clients)
        (fun () -> Openloop.run ~conns:2 ~count:(Array.length reqs) ~due ~send ())
    in
    (reqs, recs)
  in
  let whole n = List.init n (fun part -> (part, n)) in
  (* the light and loaded phases alternate one round at a time, loaded
     first and last, so both sample the host over the whole run instead
     of one stretch of it each *)
  let rec alternate a b = match a with [] -> b | x :: a -> x :: alternate b a in
  let light = ref [] and loaded = ref [] in
  List.iter
    (fun (acc, rate, slice) -> acc := !acc @ snd (phase ~rate [ slice ]))
    (alternate
       (List.map (fun sl -> (loaded, loaded_rps, sl)) (whole n_loaded))
       (List.map (fun sl -> (light, light_rps, sl)) (whole n_light)));
  let light = !light and loaded = !loaded in
  (* saturation: both connections back to back; throughput counts the
     kLOC of the files it checked *)
  let t_sat = Unix.gettimeofday () in
  let sat_reqs, sat = phase (whole n_sat) in
  let sat_s = Unix.gettimeofday () -. t_sat in
  let sat_rps = float_of_int (List.length sat) /. sat_s in
  let sat_kloc =
    float_of_int (Array.fold_left (fun acc (fi, _) -> acc + files.(fi).Inputs.loc) 0 sat_reqs) /. 1000. /. sat_s
  in
  (* max_rps: bisect the offered rate between half and 1.1 x the
     saturation rate.  A rate passes when nothing fails, the tail meets
     the limit, and in the last third of the probe neither the median
     latency exceeds the limit nor the median send lag half of it (no
     growing backlog). *)
  let passes recs =
    let lat = ms_of recs in
    let _, tail = Bstats.tail lat in
    let n = List.length recs in
    let last = List.filteri (fun k _ -> k >= 2 * n / 3) recs in
    failed_of recs = 0
    && tail <= limit_ms
    && median (ms_of last) <= limit_ms
    && median (List.map (fun r -> (r.Openloop.sent -. r.Openloop.due) *. 1000.) last) <= limit_ms /. 2.
  in
  let probes = ref [] in
  let rec bisect lo hi k =
    if k > 0 then begin
      let mid = (lo +. hi) /. 2. in
      let recs = snd (phase ~rate:mid (whole n_probe)) in
      let ok = passes recs in
      probes := (mid, ok, recs) :: !probes;
      if ok then bisect mid hi (k - 1) else bisect lo mid (k - 1)
    end
  in
  let floor = 0.5 *. sat_rps in
  bisect floor (1.1 *. sat_rps) probes_per_run;
  (* Between the highest passing probe and the lowest failing one above
     it, the rate where the probes' tails cross the limit, so max_rps
     does not jump by a whole bisection step when one probe's tail lands
     just past the limit.  With no failing probe above, the highest pass;
     with no pass at all, the bracket's floor (the probes in the notes
     show it). *)
  let max_rps =
    let tail_of recs = snd (Bstats.tail (ms_of recs)) in
    let passing = List.filter (fun (_, ok, _) -> ok) !probes in
    match List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) passing with
    | [] -> floor
    | (rp, _, precs) :: _ -> (
      let above = List.filter (fun (r, ok, _) -> (not ok) && r > rp) !probes in
      match List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) above with
      | (rf, _, frecs) :: _ ->
        let tp = tail_of precs and tf = tail_of frecs in
        if tf > limit_ms && tf > tp then rp +. ((limit_ms -. tp) /. (tf -. tp) *. (rf -. rp)) else rp
      | [] -> rp)
  in
  let rss_kb = Procs.peak_rss_kb daemon.Procs.pid in
  if not (Procs.stop_daemon daemon) then drained := false;
  (* the sampled replies against the reference *)
  let sample_bad =
    List.fold_left
      (fun bad i ->
        let fi, contents = Hashtbl.find sampled i in
        let e = Inputs.reference [ (files.(fi).Inputs.name, contents) ] in
        match Hashtbl.find_opt replies i with
        | Some r when String.equal (reply_text r) e.Inputs.text && r.Serve.Client.cr_exit = e.Inputs.exit -> bad
        | _ -> bad + 1)
      0 sample
  in
  let all_recs = light @ loaded @ sat @ List.concat_map (fun (_, _, r) -> r) !probes in
  let p50, tail, _ = latency_pair (ms_of light) and lp50, ltail, _ = latency_pair (ms_of loaded) in
  let recall = Inputs.recall inp !open_outputs in
  {
    metrics =
      [
        ("setup_s", (median setup_times, "s"));
        ("latency_p50_ms", (p50, "ms"));
        ("latency_tail_ms", (tail, "ms"));
        ("loaded.latency_p50_ms", (lp50, "ms"));
        ("loaded.latency_tail_ms", (ltail, "ms"));
        ("max_rps", (max_rps, "req/s"));
        ("throughput_kloc_s", (sat_kloc, "kLOC/s"));
        ("peak_rss_mb", (float_of_int rss_kb /. 1024., "MiB"));
      ];
    attempted = List.length all_recs + (setup_rounds * Array.length files);
    failed = failed_of all_recs + !open_bad + sample_bad;
    checks =
      [
        ("open_replies_identical_to_reference", !open_bad = 0);
        ("replies_ok", failed_of all_recs = 0);
        ("edit_sample_identical_to_reference", sample_bad = 0);
        ("manifest_bugs_reported", recall.Inputs.missed_required = []);
        ("daemon_drained_cleanly", !drained);
      ];
    notes =
      [
        phase_note "light" light (ms_of light);
        phase_note "loaded" loaded (ms_of loaded);
        ("saturation_rps", Bjson.Num sat_rps);
        ( "max_rps_probes",
          Bjson.Arr
            (List.rev_map
               (fun (rate, ok, recs) ->
                 let _, tail, p = latency_pair (ms_of recs) in
                 Bjson.Obj
                   [
                     ("rate", Bjson.Num rate);
                     ("pass", Bjson.Bool ok);
                     ("tail_pct", Bjson.Num p);
                     ("tail_ms", Bjson.Num tail);
                   ])
               !probes) );
        ("requests", Bjson.Num (float_of_int !next_req));
      ]
      @ recall_notes recall;
  }
