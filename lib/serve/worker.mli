(** Worker — the serve tier's instantiation of {!Mcsup}.

    [Mcsup] is protocol-agnostic; this module supplies the [Proto]
    codec, the worker-process main loop, and the init-frame
    configuration record the supervisor ships to each fresh worker.
    Worker and {!Server} build their replies with the one
    {!check_replies}, so the supervisor can forward a worker's frames to
    the client verbatim and stay byte-identical to in-process dispatch.
    Before its final frame a worker sends [R_counters]: the registry
    counters that rose while it served the request, which the daemon
    adds to its own registry instead of forwarding. *)

val env_key : string
(** the environment gate ([MCSUP_WORKER]) that turns a re-exec of the
    hosting binary into a worker *)

type wconfig = {
  wc_jobs : int;
  wc_incremental : bool;
  wc_strict : bool;
  wc_fuel : int option;
  wc_deadline_ms : float option;  (** per-unit engine deadline *)
  wc_checkers : string list;
  wc_metal_paths : string list;  (** workers re-load specs by path —
                                     closures cannot cross [exec] *)
  wc_cache_dir : string option;  (** shared multi-writer cache dir *)
  wc_mem_mb : int option;  (** RLIMIT_AS, set by the worker at birth *)
  wc_cpu_s : int option;  (** RLIMIT_CPU *)
  wc_allow_chaos : bool;
      (** recognize [__chaos_*__] buffer names as fault injections
          (spin / oom / stack / exit / kill / sleep); a production
          worker treats them as ordinary file names *)
}

val default_wconfig : wconfig
(** jobs 1, incremental, non-strict, no budget, no limits, no chaos *)

val codec : Mcsup.codec
(** [Proto] framing: [R_diag] and [R_counters] are [More], every other
    response is [Final], an undecodable payload is [Garbage] *)

val check_replies :
  Proto.check_opts ->
  (Mcheck_api.report, exn) result ->
  Proto.response list * Proto.response
(** the reply to a check — one [R_diag] per diagnostic, then the final
    frame: [R_done] for a report or a strict-mode [Robust_exit],
    [R_error] for any other exception (the fault barrier).  Both
    dispatch modes send exactly this. *)

val pool_config :
  ?name:string -> size:int -> wall_ms:float option -> wconfig -> Mcsup.config
(** a ready {!Mcsup.config}: [Proto] codec, {!env_key}, the encoded
    init frame for [wconfig] *)

val encode_init : wconfig -> string
(** the init-frame payload (shipped to a fresh worker as its first
    frame); [pool_config] calls this — exposed for [retire_all ~init]
    config swaps *)

val exit_if_worker : unit -> unit
(** the hosting binary's first statement: when the environment gate is
    set, run the worker main loop on fd 0 and [exit] — never returns
    in a worker process, a no-op otherwise *)
