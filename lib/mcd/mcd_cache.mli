(** The incremental result cache: content-hash keys (checker set x spec x
    function text) to per-checker diagnostic slices.  Invalidation is
    automatic — editing a function changes its key.  Persistable with
    [save]/[load] for warm re-checks across process runs
    ([mcheck --incremental]). *)

type t

val create : unit -> t

val find : t -> string -> Diag.t list array option
(** a hit returns the unit's per-checker slices: one slice per
    per-function checker for a function-batched unit, a single-element
    array for a whole-program unit *)

val add : t -> string -> Diag.t list array -> unit
val size : t -> int

val copy : t -> t
(** an independent snapshot (used by tests to replay warm runs) *)

val save : t -> string -> unit
(** atomic: the marshalled table plus a magic / length / digest footer is
    written to a temp file in the destination directory and renamed into
    place, so a crash mid-save leaves the previous cache file intact *)

val load : string -> t
(** a missing, truncated, corrupt, or stale-format file yields an empty
    cache — the footer is validated before any unmarshalling runs, and
    the outcome is counted in [mcheck_cache_loads_total{result=...}]
    ([ok] / [missing] / [partial] / [corrupt] / [stale] / [error]) *)

(** {2 Multi-writer cache directories}

    Concurrent worker processes share warm results through a directory
    of content-addressed segments ([seg-<md5>.mc]), each a complete
    footer-validated container.  Writers never take a lock: identical
    content races to the same name (the loser skips), a lock-free claim
    file ([O_CREAT|O_EXCL]) suppresses duplicate publication work, and
    the segment itself lands by temp-file + [rename], so readers never
    observe a torn write.  Corrupt, partial, or stale segments are
    classified and skipped at load
    ([mcheck_cache_segments_total{result=...}]). *)

val merge : into:t -> t -> unit
(** fold [src]'s entries into [into]; existing keys win (results are
    content-addressed, so a duplicate key carries identical value) *)

val publish_dir : t -> string -> (string, string) result
(** atomically publish this cache's entries as one segment in [dir];
    returns the segment path (which may already have existed — identical
    content is deduplicated, a concurrent identical publish is skipped) *)

val load_dir : string -> t
(** merge every valid segment in [dir] into a fresh cache; a missing
    directory or invalid segment is cold data, never an error *)
