(** Mcobs — the tracing and logging layer.

    One structured-observability core shared by every stage of the
    checking pipeline (cfront, engine, mcd, sim); counts live in
    {!Mcmetrics}.  The design constraint is the [Mcd_pool]:
    instrumentation must be safe — and cheap — inside worker domains, so
    every span is written only to a *domain-local* buffer obtained
    through [Domain.DLS].  No lock is taken on the hot path; the global
    buffer-list mutex is touched exactly once per domain, when its
    buffer is first created.  Merging happens at {!snapshot} time, from
    the coordinating domain, after the workers have joined — which is
    the only moment the scheduler reads them anyway.

    Everything is gated on one atomic flag: with tracing disabled (the
    default) a span is a single boolean load around the traced thunk, so
    instrumented code paths cost nothing measurable (the bench harness
    asserts < 5% overhead even with tracing enabled).

    Three exporters read a snapshot:
    - {!pp_summary} — a human-readable span digest;
    - {!export_jsonl} — one JSON object per span per line, easy to
      post-process;
    - {!export_chrome} — Chrome [chrome://tracing] / Perfetto trace-event
      format ("X" complete events, per-domain tracks). *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* One process-wide origin so timestamps from every domain share a
   timeline.  [Unix.gettimeofday] is the only clock the vendored
   toolchain offers; sampling both ends of a span on the same domain
   keeps durations monotonic in practice. *)
let t_origin = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. t_origin) *. 1e6

(* ------------------------------------------------------------------ *)
(* Enable flag and verbosity                                           *)
(* ------------------------------------------------------------------ *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "OBS_TRACE" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type level = Quiet | Normal | Verbose | Debug

let level_rank = function Quiet -> 0 | Normal -> 1 | Verbose -> 2 | Debug -> 3

let level_of_rank = function
  | 0 -> Quiet
  | 1 -> Normal
  | 2 -> Verbose
  | _ -> Debug

let verbosity = Atomic.make (level_rank Normal)
let set_verbosity l = Atomic.set verbosity (level_rank l)
let get_verbosity () = level_of_rank (Atomic.get verbosity)

(* The log sink: where [logf] lines land.  Defaults to stderr so logs
   never pollute diagnostic output on stdout. *)
let sink : (level -> string -> unit) ref =
  ref (fun _ line ->
      prerr_string line;
      prerr_newline ())

let set_sink f = sink := f

let logf lvl fmt =
  Format.kasprintf
    (fun line ->
      if level_rank lvl <= Atomic.get verbosity && lvl <> Quiet then
        !sink lvl line)
    fmt

(* ------------------------------------------------------------------ *)
(* Domain-local buffers                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_tid : int;  (** domain id — one track per domain in the trace UI *)
  sp_trace : string;  (** request trace id; [""] = no trace context *)
  sp_begin_us : float;
  sp_dur_us : float;
  sp_depth : int;  (** nesting depth within its domain at record time *)
  sp_args : (string * string) list;
}

(* The ambient trace context.  One process-global cell rather than a
   DLS slot, deliberately: Mcd worker domains are spawned fresh for
   each scheduling pass, and a DLS value would not cross the spawn.
   The daemon serializes checks on its session mutex, so at most one
   traced request is in flight when workers run — the same discipline
   [snapshot] already leans on. *)
let ambient_trace = Atomic.make ""

let set_trace trace = Atomic.set ambient_trace trace
let current_trace () = Atomic.get ambient_trace

let with_trace trace f =
  let prev = Atomic.get ambient_trace in
  Atomic.set ambient_trace trace;
  Fun.protect ~finally:(fun () -> Atomic.set ambient_trace prev) f

type buffer = {
  b_tid : int;
  mutable b_spans : span list;  (* reverse completion order *)
  mutable b_nspans : int;
  mutable b_dropped : int;
  mutable b_depth : int;
}

(* Buffers stay registered after their domain joins; [snapshot] reads
   them from the coordinating domain once the workers are quiet. *)
let registry_mutex = Mutex.create ()
let registry : buffer list ref = ref []

(* A runaway tracer must not take the process down with it: each domain
   keeps at most this many spans and counts the rest as dropped. *)
let max_spans_per_domain = 500_000

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_spans = [];
          b_nspans = 0;
          b_dropped = 0;
          b_depth = 0;
        }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let buffer () = Domain.DLS.get buffer_key

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let push_span b sp =
  if b.b_nspans >= max_spans_per_domain then b.b_dropped <- b.b_dropped + 1
  else begin
    b.b_spans <- sp :: b.b_spans;
    b.b_nspans <- b.b_nspans + 1
  end

(** Record a span whose endpoints were measured by the caller (with
    {!now_us}) — used when one measurement must feed both a span and a
    derived statistic, so the wall time is sampled exactly once. *)
let record_span ?trace ?(args = []) ~name ~begin_us ~dur_us () =
  if enabled () then begin
    let b = buffer () in
    let sp_trace =
      match trace with Some tr -> tr | None -> Atomic.get ambient_trace
    in
    push_span b
      {
        sp_name = name;
        sp_tid = b.b_tid;
        sp_trace;
        sp_begin_us = begin_us;
        sp_dur_us = dur_us;
        sp_depth = b.b_depth;
        sp_args = args;
      }
  end

let with_span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let b = buffer () in
    let depth = b.b_depth in
    b.b_depth <- depth + 1;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur = now_us () -. t0 in
        b.b_depth <- depth;
        push_span b
          {
            sp_name = name;
            sp_tid = b.b_tid;
            (* read at completion: workers inherit whatever request
               context was ambient while they ran *)
            sp_trace = Atomic.get ambient_trace;
            sp_begin_us = t0;
            sp_dur_us = dur;
            sp_depth = depth;
            sp_args = args;
          })
      f
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  spans : span list;  (** every domain, ascending begin time *)
  dropped_spans : int;
}

let by_begin a b =
  let c = Float.compare a.sp_begin_us b.sp_begin_us in
  if c <> 0 then c else Int.compare a.sp_tid b.sp_tid

(** Merge every domain's buffer into one immutable snapshot.  Call from
    the coordinating domain while no instrumented worker is running —
    the same discipline [Mcd] already imposes on its result slots. *)
let snapshot () : snapshot =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  let spans =
    List.sort by_begin (List.concat_map (fun b -> List.rev b.b_spans) buffers)
  in
  let dropped =
    List.fold_left (fun acc b -> acc + b.b_dropped) 0 buffers
  in
  { spans; dropped_spans = dropped }

(** Clear every registered buffer.  Same calling discipline as
    {!snapshot}. *)
let reset () =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun b ->
      b.b_spans <- [];
      b.b_nspans <- 0;
      b.b_dropped <- 0;
      b.b_depth <- 0)
    buffers

(** Remove and return every span recorded under [trace], across all
    domains, leaving other traces' spans in place — unlike {!reset},
    this is safe to interleave with other requests.  Same calling discipline as
    {!snapshot}: no domain may be concurrently recording under this
    trace. *)
let drain_trace trace =
  Mutex.lock registry_mutex;
  let buffers = !registry in
  Mutex.unlock registry_mutex;
  let matched = ref [] in
  List.iter
    (fun b ->
      let mine, rest =
        List.partition (fun sp -> String.equal sp.sp_trace trace) b.b_spans
      in
      if mine <> [] then begin
        b.b_spans <- rest;
        b.b_nspans <- List.length rest;
        matched := List.rev_append mine !matched
      end)
    buffers;
  List.sort by_begin !matched

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_args args =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

(* Chrome trace-event format: one "X" (complete) event per span, one
   process, one track (tid) per domain.  Loadable in chrome://tracing
   and Perfetto. *)
let export_chrome ?(counters = []) oc (s : snapshot) =
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun sp ->
      if !first then first := false else output_string oc ",";
      let args =
        if sp.sp_trace = "" then sp.sp_args
        else ("trace", sp.sp_trace) :: sp.sp_args
      in
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"mcheck\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
        (json_escape sp.sp_name) sp.sp_begin_us sp.sp_dur_us sp.sp_tid
        (json_args args))
    s.spans;
  (* the caller's counters ride along as counter events at the end of
     the timeline so the numbers are visible in the UI too *)
  let t_end =
    List.fold_left
      (fun acc sp -> Float.max acc (sp.sp_begin_us +. sp.sp_dur_us))
      0. s.spans
  in
  List.iter
    (fun (name, v) ->
      if !first then first := false else output_string oc ",";
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"mcheck\",\"ph\":\"C\",\"ts\":%.1f,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}"
        (json_escape name) t_end v)
    counters;
  output_string oc "\n]}\n"

let export_chrome_file ?counters path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> export_chrome ?counters oc s)

(* JSON Lines: one self-describing span object per line. *)
let export_jsonl oc (s : snapshot) =
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"name\":\"%s\",\"tid\":%d,\"trace\":\"%s\",\"begin_us\":%.1f,\"dur_us\":%.1f,\"depth\":%d,\"args\":{%s}}\n"
        (json_escape sp.sp_name) sp.sp_tid (json_escape sp.sp_trace)
        sp.sp_begin_us sp.sp_dur_us sp.sp_depth (json_args sp.sp_args))
    s.spans

let export_jsonl_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_jsonl oc s)

(* Human-readable digest: spans aggregated by name (count / total /
   mean) — the Table 5/6-style timing breakdown. *)
let pp_summary ppf (s : snapshot) =
  Format.fprintf ppf "@[<v>== mcobs summary ==";
  if s.spans <> [] then begin
    let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some (n, total) ->
          incr n;
          total := !total +. sp.sp_dur_us
        | None -> Hashtbl.add tbl sp.sp_name (ref 1, ref sp.sp_dur_us))
      s.spans;
    Format.fprintf ppf "@,spans (by name):";
    Hashtbl.fold (fun name (n, total) acc -> (name, !n, !total) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> List.iter (fun (name, n, total_us) ->
           Format.fprintf ppf "@,  %-36s n=%-8d total=%8.2f ms  mean=%8.3f ms"
             name n (total_us /. 1000.)
             (total_us /. 1000. /. float_of_int n))
  end;
  if s.dropped_spans > 0 then
    Format.fprintf ppf "@,dropped spans: %d" s.dropped_spans;
  Format.fprintf ppf "@]"
