(** Mcmetrics — the process's one store of counts.

    Every counter, gauge and latency histogram in the pipeline is a
    named handle here, registered at module initialisation by the module
    that owns the event.  Counters and gauges are single atomics, always
    on and safe from any domain or thread; a histogram takes a short
    mutex per sample.  [mcheckd]'s [/metrics] and [--stats],
    [mcheck --metrics] and the counter track of a [--trace] file all
    render a {!snapshot} of it. *)

type counter
type gauge
type hist

(** Registration is idempotent by name — an existing metric of the same
    kind comes back as the same handle, so modules declare handles in
    any order and readers can look a series up by name.
    @raise Invalid_argument if the name is registered as another kind *)

val counter : ?help:string -> string -> counter
val gauge : ?help:string -> string -> gauge

val hist : ?help:string -> string -> hist
(** log-scale latency histogram over {!hist_bounds_ms} (ms) *)

val counter_labeled : ?help:string -> string -> label:string * string -> counter
(** one series of a labeled family: [counter_labeled "kills_total"
    ~label:("sig", "term")] is the series [kills_total{sig="term"}];
    exposition emits HELP/TYPE once per family *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> int -> unit
val add : gauge -> int -> unit

val observe : hist -> float -> unit
(** add a sample in milliseconds *)

val hist_bounds_ms : float array
(** upper bounds of the histogram buckets; a last, overflow bucket
    follows *)

type hist_snapshot = {
  count : int;
  sum_ms : float;
  max_ms : float;
  buckets : int array;
}

val hist_snapshot : hist -> hist_snapshot

val quantile : hist_snapshot -> float -> float option
(** the [p]-quantile (p in [0,1]) by linear interpolation inside the
    bucket holding the target rank: monotone in [p], bracketed by that
    bucket's bounds (the overflow bucket is capped at the recorded max);
    [None] when empty or [p] is out of range *)

(** {1 Snapshots} *)

type value = Counter of int | Gauge of int | Histogram of hist_snapshot
type series = { name : string; help : string; value : value }

type snapshot = series list
(** every series, sorted by name; each value is read atomically *)

val snapshot : unit -> snapshot

val int_value : snapshot -> string -> int
(** a counter's or gauge's value; [0] for an unknown name *)

val hist_value : snapshot -> string -> hist_snapshot option

val counters : snapshot -> (string * int) list

val counter_deltas :
  before:(string * int) list -> (string * int) list -> (string * int) list
(** the counters that rose since [before], with how much *)

val add_counters : (string * int) list -> unit
(** bump each named counter, registering unknown names — how a daemon
    folds in the deltas its worker processes report *)

(** {1 Rendering} *)

val to_prometheus : unit -> string
(** Prometheus text exposition 0.0.4: HELP/TYPE comments, cumulative
    [_bucket{le=...}] series plus [_sum]/[_count] for histograms *)

val to_json : unit -> string
(** one JSON object keyed by series name; histograms carry count, sum,
    max, buckets, and p50/p90/p99 *)

val pp : Format.formatter -> snapshot -> unit
(** the non-zero series, one per line *)

val reset_all : unit -> unit
(** zero every metric (benchmarks isolate phases with this; a serving
    daemon never calls it) *)
