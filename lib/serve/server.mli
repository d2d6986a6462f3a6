(** The mcheckd daemon core: a listening socket, one thread per client
    connection, all check requests multiplexed onto one shared warm
    {!Mcheck_api.Session}.

    Containment mirrors the pipeline's own fault barriers: a request
    that fails inside the daemon (decode error, poisoned input, checker
    crash that escapes the engine's own barriers) becomes an
    {!Proto.R_error} frame — exit-code-2 semantics on the wire — and
    the daemon keeps serving.

    Lifecycle: {!run} accepts until a drain is initiated (a
    {!Proto.Drain} request, {!initiate_drain}, or a SIGINT/SIGTERM the
    driver routes there), then stops admitting new requests, finishes
    every admitted one, closes the listener, persists the session cache,
    and returns.  {!Proto.Reload} waits for in-flight requests, then
    swaps the session (metal specs re-read, cache rebuilt) without
    dropping connections. *)

type telemetry = {
  tel_tracing : bool;
      (** install each request's trace id as the ambient {!Mcobs}
          context and harvest its spans into the flight recorder.
          [true] turns span recording on; [false] never turns it off
          (the embedding harness may want it for its own ends). *)
  tel_access_log : string option;  (** JSONL path; [None] disables *)
  tel_sample : int;  (** write every n-th access-log line *)
  tel_flight_capacity : int;  (** entries per flight-recorder ring *)
  tel_flight_threshold_ms : float;
      (** requests at least this slow are always retained *)
  tel_metrics_addr : Proto.addr option;
      (** when set, serve the live metrics over HTTP on this address:
          [GET /metrics] (Prometheus text) and [GET /metrics.json] *)
}

val default_telemetry : telemetry
(** tracing on, no access log, flight ring of 64 with a 250 ms
    threshold, no HTTP exposition *)

type supervise = {
  sv_workers : int;  (** pool size (a hot spare rides on top) *)
  sv_mem_mb : int option;  (** per-worker RLIMIT_AS *)
  sv_cpu_s : int option;  (** per-worker RLIMIT_CPU *)
  sv_wall_ms : float option;  (** per-request wall deadline *)
  sv_cache_dir : string option;
      (** shared multi-writer cache directory (see {!Mcd_cache}) *)
  sv_allow_chaos : bool;
      (** let workers recognize [__chaos_*__] fault-injection buffer
          names — campaigns only, never production *)
}

val default_supervise : supervise
(** 2 workers, 1 GiB / 30 s limits, 30 s wall deadline, no shared
    cache dir, chaos off *)

type config = {
  addr : Proto.addr;
  api : Mcheck_api.config;
  metal_paths : string list;
      (** metal spec files, re-read on [Reload]; compiled into
          [api.metal] at session build time *)
  idle_timeout : float;
      (** per-connection receive timeout in seconds; an idle client is
          kept, but during a drain its connection is closed once the
          timeout fires *)
  telemetry : telemetry;
  supervise : supervise option;
      (** [Some _] dispatches every check into a {!Mcsup} pool of
          worker processes: a poisoned unit can kill a worker (one
          request pays one transparent retry) but never this daemon.
          [None] keeps the historical in-process path. *)
  max_inflight : int;
      (** admission bound: past this many in-flight checks new ones
          are shed with [R_overloaded] + Retry-After instead of
          queueing without bound *)
}

val default_config : config
(** unix socket ["mcheckd.sock"], incremental in-memory cache, 1 job,
    {!default_telemetry}, in-process dispatch, [max_inflight = 64] *)

type t

val create : config -> (t, string) result
(** bind and listen (stale unix-socket files are replaced); the session
    is built — and its cache loaded — here, so the daemon is warm
    before the first accept *)

val run : t -> unit
(** the blocking accept loop; returns after a completed drain *)

val warm : t -> unit
(** pre-warm the session before serving: run the builtin corpus
    through it once, so the Mcd cache, pattern tables, and code paths
    are hot when the first real request lands *)

val initiate_drain : t -> unit
(** same effect as a wire [Drain]: safe from a signal handler or
    another thread *)

val draining : t -> bool

val supervisor : t -> Mcsup.t option
(** the worker pool in supervised mode — chaos campaigns pick their
    kill victims here *)

val stats_text : t -> string
(** the [Stats S_text] reply: daemon and session counts, every one read
    from one {!Mcmetrics} snapshot — the numbers [/metrics] shows *)

val stats_json : t -> string
(** the [Stats S_json] reply: the same numbers as one JSON object *)

val flight_recorder : t -> Mctel.Flight.t

val reopen_access_log : t -> unit
(** close and reopen the access-log file — what the SIGHUP handler in
    [bin/mcheckd] routes here for log rotation *)
