(* The mcheckd wire protocol.  Hand-rolled binary codec: every read is
   bounds-checked, every decode is total, and a decoded message must
   consume its payload exactly — the strictness the protocol fuzz
   oracle (and the decode∘encode = id law) leans on. *)

let magic = "MCHK"

(* v2: check_opts carries a client-minted trace id; Stats takes a
   format byte; Metrics and Flight expose the live telemetry.
   v3: R_overloaded — admission-control shed with a Retry-After hint.
   R_counters (worker to daemon only, never forwarded to a client)
   needs no bump: no client ever receives it. *)
let version = 3
let header_len = 4 + 2 + 4
let max_payload = 16 * 1024 * 1024

type check_opts = {
  co_checkers : string list;
  co_explain : bool;
  co_verbose : bool;
  co_quiet : bool;
  co_strict : bool;
  co_trace : string;
}

let default_opts =
  {
    co_checkers = [];
    co_explain = false;
    co_verbose = false;
    co_quiet = false;
    co_strict = false;
    co_trace = "";
  }

type stats_format = S_text | S_json
type metrics_format = M_prom | M_json

type request =
  | Check_files of check_opts * string list
  | Check_buffer of check_opts * string * string
  | Stats of stats_format
  | Metrics of metrics_format
  | Flight
  | Drain
  | Reload
  | Ping

type diag_frame = {
  d_checker : string;
  d_severity : string;
  d_internal : bool;
  d_text : string;
}

type response =
  | R_diag of diag_frame
  | R_done of { rd_exit : int; rd_findings : int; rd_diags : int }
  | R_text of string
  | R_ok
  | R_error of string
  | R_overloaded of { ro_retry_after_ms : int }
  | R_counters of (string * int) list

(* messages are trees of strings / ints / bools: structural equality is
   exactly message equality *)
let equal_request (a : request) (b : request) = a = b
let equal_response (a : response) (b : response) = a = b

let pp_request ppf = function
  | Check_files (_, paths) ->
    Format.fprintf ppf "check-files [%s]" (String.concat "; " paths)
  | Check_buffer (_, name, contents) ->
    Format.fprintf ppf "check-buffer %s (%d bytes)" name
      (String.length contents)
  | Stats S_text -> Format.pp_print_string ppf "stats"
  | Stats S_json -> Format.pp_print_string ppf "stats-json"
  | Metrics M_prom -> Format.pp_print_string ppf "metrics"
  | Metrics M_json -> Format.pp_print_string ppf "metrics-json"
  | Flight -> Format.pp_print_string ppf "flight"
  | Drain -> Format.pp_print_string ppf "drain"
  | Reload -> Format.pp_print_string ppf "reload"
  | Ping -> Format.pp_print_string ppf "ping"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u32 b v =
  w_u8 b (v lsr 24);
  w_u8 b (v lsr 16);
  w_u8 b (v lsr 8);
  w_u8 b v

let w_u63 b v =
  w_u32 b (v lsr 32);
  w_u32 b v

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_list w b xs =
  w_u32 b (List.length xs);
  List.iter (w b) xs

let w_opts b o =
  let flags =
    (if o.co_explain then 1 else 0)
    lor (if o.co_verbose then 2 else 0)
    lor (if o.co_quiet then 4 else 0)
    lor if o.co_strict then 8 else 0
  in
  w_u8 b flags;
  w_list w_str b o.co_checkers;
  w_str b o.co_trace

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type reader = { buf : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.buf then
    raise (Bad "truncated payload")

let r_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v =
    (Char.code r.buf.[r.pos] lsl 24)
    lor (Char.code r.buf.[r.pos + 1] lsl 16)
    lor (Char.code r.buf.[r.pos + 2] lsl 8)
    lor Char.code r.buf.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let r_u63 r =
  let hi = r_u32 r in
  let lo = r_u32 r in
  (hi lsl 32) lor lo

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Bad (Printf.sprintf "bad bool byte %d" n))

let r_str r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_list rd r =
  let n = r_u32 r in
  (* each element costs at least one byte; reject absurd counts before
     allocating *)
  need r n;
  List.init n (fun _ -> rd r)

let r_opts r =
  let flags = r_u8 r in
  if flags land lnot 0xf <> 0 then
    raise (Bad (Printf.sprintf "unknown option flags 0x%x" flags));
  let co_checkers = r_list r_str r in
  let co_trace = r_str r in
  {
    co_checkers;
    co_explain = flags land 1 <> 0;
    co_verbose = flags land 2 <> 0;
    co_quiet = flags land 4 <> 0;
    co_strict = flags land 8 <> 0;
    co_trace;
  }

(* a decode must consume the payload exactly *)
let finish r v =
  if r.pos <> String.length r.buf then
    raise (Bad "trailing garbage after message")
  else v

let run_decode f s =
  match f { buf = s; pos = 0 } with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Message codecs                                                      *)
(* ------------------------------------------------------------------ *)

(* request tags *)
let t_check_files = 1
let t_check_buffer = 2
let t_stats = 3
let t_drain = 4
let t_reload = 5
let t_ping = 6
let t_metrics = 7
let t_flight = 8

(* response tags *)
let t_diag = 0x81
let t_done = 0x82
let t_text = 0x83
let t_ok = 0x84
let t_error = 0x85
let t_overloaded = 0x86
let t_counters = 0x87

let encode_request req =
  let b = Buffer.create 64 in
  (match req with
  | Check_files (opts, paths) ->
    w_u8 b t_check_files;
    w_opts b opts;
    w_list w_str b paths
  | Check_buffer (opts, name, contents) ->
    w_u8 b t_check_buffer;
    w_opts b opts;
    w_str b name;
    w_str b contents
  | Stats fmt ->
    w_u8 b t_stats;
    w_u8 b (match fmt with S_text -> 0 | S_json -> 1)
  | Metrics fmt ->
    w_u8 b t_metrics;
    w_u8 b (match fmt with M_prom -> 0 | M_json -> 1)
  | Flight -> w_u8 b t_flight
  | Drain -> w_u8 b t_drain
  | Reload -> w_u8 b t_reload
  | Ping -> w_u8 b t_ping);
  Buffer.contents b

let decode_request s =
  run_decode
    (fun r ->
      let tag = r_u8 r in
      let req =
        if tag = t_check_files then
          let opts = r_opts r in
          let paths = r_list r_str r in
          Check_files (opts, paths)
        else if tag = t_check_buffer then
          let opts = r_opts r in
          let name = r_str r in
          let contents = r_str r in
          Check_buffer (opts, name, contents)
        else if tag = t_stats then
          Stats
            (match r_u8 r with
            | 0 -> S_text
            | 1 -> S_json
            | n -> raise (Bad (Printf.sprintf "bad stats format %d" n)))
        else if tag = t_metrics then
          Metrics
            (match r_u8 r with
            | 0 -> M_prom
            | 1 -> M_json
            | n -> raise (Bad (Printf.sprintf "bad metrics format %d" n)))
        else if tag = t_flight then Flight
        else if tag = t_drain then Drain
        else if tag = t_reload then Reload
        else if tag = t_ping then Ping
        else raise (Bad (Printf.sprintf "unknown request tag %d" tag))
      in
      finish r req)
    s

let encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | R_diag d ->
    w_u8 b t_diag;
    w_str b d.d_checker;
    w_str b d.d_severity;
    w_bool b d.d_internal;
    w_str b d.d_text
  | R_done { rd_exit; rd_findings; rd_diags } ->
    w_u8 b t_done;
    w_u8 b rd_exit;
    w_u32 b rd_findings;
    w_u32 b rd_diags
  | R_text s ->
    w_u8 b t_text;
    w_str b s
  | R_ok -> w_u8 b t_ok
  | R_error msg ->
    w_u8 b t_error;
    w_str b msg
  | R_overloaded { ro_retry_after_ms } ->
    w_u8 b t_overloaded;
    w_u32 b ro_retry_after_ms
  | R_counters deltas ->
    w_u8 b t_counters;
    w_list
      (fun b (name, v) ->
        w_str b name;
        w_u63 b v)
      b deltas);
  Buffer.contents b

let decode_response s =
  run_decode
    (fun r ->
      let tag = r_u8 r in
      let resp =
        if tag = t_diag then
          let d_checker = r_str r in
          let d_severity = r_str r in
          let d_internal = r_bool r in
          let d_text = r_str r in
          R_diag { d_checker; d_severity; d_internal; d_text }
        else if tag = t_done then
          let rd_exit = r_u8 r in
          let rd_findings = r_u32 r in
          let rd_diags = r_u32 r in
          if rd_exit > 3 then
            raise (Bad (Printf.sprintf "bad exit code %d" rd_exit));
          R_done { rd_exit; rd_findings; rd_diags }
        else if tag = t_text then R_text (r_str r)
        else if tag = t_ok then R_ok
        else if tag = t_error then R_error (r_str r)
        else if tag = t_overloaded then
          R_overloaded { ro_retry_after_ms = r_u32 r }
        else if tag = t_counters then
          R_counters
            (r_list
               (fun r ->
                 let name = r_str r in
                 (name, r_u63 r))
               r)
        else raise (Bad (Printf.sprintf "unknown response tag %d" tag))
      in
      finish r resp)
    s

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  w_u8 b (version lsr 8);
  w_u8 b version;
  w_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  write_all fd f 0 (String.length f)

(* read exactly [n] bytes; [Error] on EOF mid-read *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Error (if off = 0 then "eof" else "truncated frame")
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd =
  match read_exact fd header_len with
  | Error _ as e -> e
  | Ok hdr ->
    if String.sub hdr 0 4 <> magic then Error "bad magic"
    else
      let v = (Char.code hdr.[4] lsl 8) lor Char.code hdr.[5] in
      if v <> version then Error (Printf.sprintf "bad version %d" v)
      else
        let len =
          (Char.code hdr.[6] lsl 24)
          lor (Char.code hdr.[7] lsl 16)
          lor (Char.code hdr.[8] lsl 8)
          lor Char.code hdr.[9]
        in
        if len > max_payload then
          Error (Printf.sprintf "oversized frame (%d bytes)" len)
        else if len = 0 then Ok ""
        else (
          match read_exact fd len with
          | Ok _ as ok -> ok
          | Error _ -> Error "truncated frame")

(* incremental splitter over a byte window — lets a reader drain a
   whole burst of frames with one bulk [read] instead of two syscalls
   per frame.  Validation matches [read_frame] exactly. *)
let split_frame buf off len =
  if len < header_len then `Need
  else if Bytes.sub_string buf off 4 <> magic then `Bad "bad magic"
  else
    let b i = Char.code (Bytes.get buf (off + i)) in
    let v = (b 4 lsl 8) lor b 5 in
    if v <> version then `Bad (Printf.sprintf "bad version %d" v)
    else
      let plen = (b 6 lsl 24) lor (b 7 lsl 16) lor (b 8 lsl 8) lor b 9 in
      if plen > max_payload then
        `Bad (Printf.sprintf "oversized frame (%d bytes)" plen)
      else if len < header_len + plen then `Need
      else
        `Frame
          (Bytes.sub_string buf (off + header_len) plen, header_len + plen)

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  if String.length s = 0 then Error "empty address"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
        Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad port %S" port))
    | None ->
      (* no colon, no slash: a TCP host without a port is never valid,
         so a bare token like "mcheckd.sock" is a socket path *)
      Ok (Unix_sock s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
