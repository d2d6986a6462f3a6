(** The mcheckd wire protocol: length-prefixed binary frames.

    Frame layout (network byte order throughout):

    {v
    +------+------+------+------+------+------+----------+-----------+
    | 'M'  | 'C'  | 'H'  | 'K'  |  version   | payload length (u32)  |
    +------+------+------+------+------+------+----------+-----------+
    | tag (u8) | tag-specific body ...                               |
    +---------------------------------------------------------------+
    v}

    — the 4-byte big-endian length-header idiom (the exact framing
    discipline our own [msg_length] checker polices on FLASH sends: the
    header's length claim and the payload the peer reads must agree).

    Decoding is total and strict: any magic/version mismatch, oversized
    length, truncated frame, unknown tag, out-of-bounds string, or
    trailing garbage yields [Error _] — never an exception, never a
    hang, and [decode (encode m) = Ok m] for every message. *)

val magic : string  (** ["MCHK"] *)

val version : int
(** [2] — v2 added the trace id to {!check_opts}, the {!Stats} format
    byte, and the {!Metrics}/{!Flight} requests.  Version mismatches
    are rejected at the frame layer; there is no cross-version
    negotiation (client and daemon ship together). *)

val header_len : int  (** bytes before the payload: 4 + 2 + 4 *)

val max_payload : int
(** frames claiming more than this many payload bytes are rejected
    before any allocation ([16 MiB]) *)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type check_opts = {
  co_checkers : string list;  (** report only these ([] = all) *)
  co_explain : bool;
  co_verbose : bool;
  co_quiet : bool;
  co_strict : bool;
  co_trace : string;
      (** client-minted request trace id ([""] = none; the daemon mints
          one).  Arbitrary bytes round-trip on the wire; the daemon
          sanitizes before use ({!Mctel.Trace.sanitize}). *)
}

val default_opts : check_opts

type stats_format = S_text | S_json
type metrics_format = M_prom  (** Prometheus text exposition *) | M_json

type request =
  | Check_files of check_opts * string list
      (** check server-side paths (daemon and client share a
          filesystem) *)
  | Check_buffer of check_opts * string * string
      (** [(opts, name, contents)] — check an in-memory buffer *)
  | Stats of stats_format
      (** one {!R_text} frame of daemon/session statistics *)
  | Metrics of metrics_format
      (** one {!R_text} frame of the live metrics registry *)
  | Flight
      (** one {!R_text} frame: the flight recorder's JSON dump *)
  | Drain
      (** finish in-flight requests, refuse new ones, shut down *)
  | Reload
      (** finish in-flight requests, then rebuild the session (re-read
          metal specs, fresh or re-loaded cache) *)
  | Ping

type diag_frame = {
  d_checker : string;
  d_severity : string;
  d_internal : bool;  (** containment-layer, not a protocol finding *)
  d_text : string;
      (** the rendered diagnostic, byte-identical to local [mcheck]
          output for the request's render options *)
}

type response =
  | R_diag of diag_frame  (** streamed, one per diagnostic *)
  | R_done of { rd_exit : int; rd_findings : int; rd_diags : int }
      (** terminates a check: the {!Robust} exit code, the non-internal
          finding count, and how many [R_diag] frames preceded *)
  | R_text of string  (** stats / info payload *)
  | R_ok
  | R_error of string
      (** the per-request fault barrier: the request failed inside the
          daemon, the daemon survives, the client applies exit-code-2
          (partial) semantics *)
  | R_overloaded of { ro_retry_after_ms : int }
      (** admission control shed the request before any work (or any
          output) happened; retry after the hinted delay — never sent
          after an [R_diag], so a client that sees it knows nothing
          partial was written *)
  | R_counters of (string * int) list
      (** a supervised worker's metrics-registry counter deltas for the
          request, sent just before its final frame; the daemon adds
          them to its own registry and never forwards the frame *)

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool
val pp_request : Format.formatter -> request -> unit

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

val frame : string -> string
(** wrap a payload in the magic/version/length header *)

val write_frame : Unix.file_descr -> string -> unit
(** write one framed payload, handling short writes
    @raise Unix.Unix_error on transport failure *)

val read_frame : Unix.file_descr -> (string, string) result
(** read exactly one frame; [Error _] on EOF, bad magic/version, a
    length over {!max_payload}, or truncation.  Blocks only as long as
    the descriptor does (honours [SO_RCVTIMEO]). *)

val split_frame :
  Bytes.t -> int -> int -> [ `Frame of string * int | `Need | `Bad of string ]
(** [split_frame buf off len] parses one frame from the byte window
    [buf.\[off .. off+len)]: [`Frame (payload, consumed)] on success,
    [`Need] when the window holds only a frame prefix, [`Bad _] on the
    same malformations {!read_frame} rejects.  The incremental face of
    the codec — a reader can drain a burst of frames from one bulk
    [read] instead of paying two syscalls per frame. *)

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type addr =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"], ["HOST:PORT"], or a bare socket path (anything
    without a colon — a TCP host alone is never a valid address) *)

val addr_to_string : addr -> string
