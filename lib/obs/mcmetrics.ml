(* Mcmetrics — the one registry of counters, gauges and histograms.
   See the interface.  The hot path is an atomic add (counters, gauges)
   or a short critical section (histograms); the registry lock is only
   taken to register a name or list the registry. *)

type counter = int Atomic.t
type gauge = int Atomic.t

(* Log-scale latency histogram; bucket [i] counts samples <= bounds.(i),
   the last bucket is the overflow. *)
let hist_bounds_ms = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 |]

type hist = {
  h_mu : Mutex.t;
  mutable h_count : int;
  mutable h_sum_ms : float;
  mutable h_max_ms : float;
  h_buckets : int array;  (* length hist_bounds_ms + 1 *)
}

type metric = M_counter of counter | M_gauge of gauge | M_hist of hist

let registry : (string, string * metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let locked f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let register name help make match_kind =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, m) -> (
        match match_kind m with
        | Some h -> h
        | None ->
          invalid_arg
            (Printf.sprintf "Mcmetrics: %s registered as another kind" name))
      | None ->
        let m = make () in
        Hashtbl.add registry name (help, m);
        Option.get (match_kind m))

let counter ?(help = "") name =
  register name help
    (fun () -> M_counter (Atomic.make 0))
    (function M_counter c -> Some c | _ -> None)

let gauge ?(help = "") name =
  register name help
    (fun () -> M_gauge (Atomic.make 0))
    (function M_gauge g -> Some g | _ -> None)

let hist ?(help = "") name =
  register name help
    (fun () ->
      M_hist
        {
          h_mu = Mutex.create ();
          h_count = 0;
          h_sum_ms = 0.;
          h_max_ms = 0.;
          h_buckets = Array.make (Array.length hist_bounds_ms + 1) 0;
        })
    (function M_hist h -> Some h | _ -> None)

(* One series of a labeled family.  The registry key carries the
   rendered label pair (["name{key=\"value\"}"]); exposition groups
   HELP/TYPE lines under the family (base) name so Prometheus sees one
   family with several series. *)
let counter_labeled ?help name ~label:(k, v) =
  counter ?help (Printf.sprintf "%s{%s=%S}" name k v)

let base_of name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c
let set g v = Atomic.set g v
let add g by = ignore (Atomic.fetch_and_add g by)

let observe h ms =
  let rec bucket i =
    if i >= Array.length hist_bounds_ms || ms <= hist_bounds_ms.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  Mutex.lock h.h_mu;
  h.h_count <- h.h_count + 1;
  h.h_sum_ms <- h.h_sum_ms +. ms;
  if ms > h.h_max_ms then h.h_max_ms <- ms;
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  Mutex.unlock h.h_mu

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;
}

let hist_snapshot h =
  Mutex.lock h.h_mu;
  let s =
    {
      count = h.h_count;
      sum_ms = h.h_sum_ms;
      max_ms = h.h_max_ms;
      buckets = Array.copy h.h_buckets;
    }
  in
  Mutex.unlock h.h_mu;
  s

(* Walk the cumulative counts to the bucket holding the ceil(p*n)-th
   sample and interpolate linearly inside it.  Monotone in p by
   construction (the target rank is monotone, interpolation within a
   bucket is monotone, and consecutive buckets share their boundary). *)
let quantile (h : hist_snapshot) p =
  if h.count = 0 || Float.is_nan p || p < 0. || p > 1. then None
  else begin
    let target = p *. float_of_int h.count in
    let nb = Array.length h.buckets in
    let rec go i cum =
      if i >= nb then Some h.max_ms
      else
        let n = h.buckets.(i) in
        let cum' = cum + n in
        if n > 0 && float_of_int cum' >= target then begin
          let lo = if i = 0 then 0. else hist_bounds_ms.(i - 1) in
          let hi =
            if i < Array.length hist_bounds_ms then hist_bounds_ms.(i)
            else Float.max lo h.max_ms
          in
          let frac = (target -. float_of_int cum) /. float_of_int n in
          let frac = Float.min 1. (Float.max 0. frac) in
          Some (lo +. (frac *. (hi -. lo)))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value = Counter of int | Gauge of int | Histogram of hist_snapshot
type series = { name : string; help : string; value : value }
type snapshot = series list

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc)
        registry [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  |> List.map (fun (name, help, m) ->
         let value =
           match m with
           | M_counter c -> Counter (Atomic.get c)
           | M_gauge g -> Gauge (Atomic.get g)
           | M_hist h -> Histogram (hist_snapshot h)
         in
         { name; help; value })

let find snap name = List.find_opt (fun s -> String.equal s.name name) snap

let int_value snap name =
  match find snap name with
  | Some { value = Counter n | Gauge n; _ } -> n
  | _ -> 0

let hist_value snap name =
  match find snap name with
  | Some { value = Histogram h; _ } -> Some h
  | _ -> None

let counters snap =
  List.filter_map
    (function { name; value = Counter n; _ } -> Some (name, n) | _ -> None)
    snap

let counter_deltas ~before after =
  List.filter_map
    (fun (name, n) ->
      let d = n - Option.value ~default:0 (List.assoc_opt name before) in
      if d > 0 then Some (name, d) else None)
    after

let add_counters deltas =
  List.iter (fun (name, by) -> inc ~by (counter name)) deltas

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_prometheus () =
  let b = Buffer.create 1024 in
  let last_base = ref "" in
  List.iter
    (fun { name; help; value } ->
      let head kind =
        let base = base_of name in
        if !last_base <> base then begin
          if help <> "" then Printf.bprintf b "# HELP %s %s\n" base help;
          Printf.bprintf b "# TYPE %s %s\n" base kind;
          last_base := base
        end
      in
      match value with
      | Counter n ->
        head "counter";
        Printf.bprintf b "%s %d\n" name n
      | Gauge n ->
        head "gauge";
        Printf.bprintf b "%s %d\n" name n
      | Histogram s ->
        head "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i n ->
            cum := !cum + n;
            if i < Array.length hist_bounds_ms then
              Printf.bprintf b "%s_bucket{le=\"%g\"} %d\n" name
                hist_bounds_ms.(i) !cum)
          s.buckets;
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name s.count;
        Printf.bprintf b "%s_sum %.6f\n" name s.sum_ms;
        Printf.bprintf b "%s_count %d\n" name s.count)
    (snapshot ());
  Buffer.contents b

let q0 h p = Option.value ~default:0. (quantile h p)

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i { name; help; value } ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n  \"%s\": {" (Mcobs.json_escape name);
      if help <> "" then
        Printf.bprintf b "\"help\":\"%s\"," (Mcobs.json_escape help);
      (match value with
      | Counter n -> Printf.bprintf b "\"type\":\"counter\",\"value\":%d" n
      | Gauge n -> Printf.bprintf b "\"type\":\"gauge\",\"value\":%d" n
      | Histogram s ->
        Printf.bprintf b
          "\"type\":\"histogram\",\"count\":%d,\"sum_ms\":%.3f,\"max_ms\":%.3f,\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"buckets\":[%s]"
          s.count s.sum_ms s.max_ms (q0 s 0.5) (q0 s 0.9) (q0 s 0.99)
          (String.concat ","
             (Array.to_list (Array.map string_of_int s.buckets))));
      Buffer.add_char b '}')
    (snapshot ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let pp ppf (snap : snapshot) =
  Format.fprintf ppf "@[<v>== metrics ==";
  List.iter
    (fun { name; value; _ } ->
      match value with
      | Counter 0 | Gauge 0 -> ()
      | Counter n | Gauge n -> Format.fprintf ppf "@,  %-48s %10d" name n
      | Histogram s when s.count = 0 -> ()
      | Histogram s ->
        Format.fprintf ppf
          "@,  %-48s n=%-8d mean=%-8.3f p50=%-8.3f p90=%-8.3f p99=%-8.3f \
           max=%.2f"
          name s.count
          (s.sum_ms /. float_of_int s.count)
          (q0 s 0.5) (q0 s 0.9) (q0 s 0.99) s.max_ms)
    snap;
  Format.fprintf ppf "@]"

let reset_all () =
  locked (fun () -> Hashtbl.fold (fun _ (_, m) acc -> m :: acc) registry [])
  |> List.iter (function
       | M_counter c | M_gauge c -> Atomic.set c 0
       | M_hist h ->
         Mutex.lock h.h_mu;
         h.h_count <- 0;
         h.h_sum_ms <- 0.;
         h.h_max_ms <- 0.;
         Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
         Mutex.unlock h.h_mu)
