(* The mcheckd client library.  Synchronous: write one request frame,
   read frames until the terminator.  All transport and protocol
   failures surface as typed [err]s — callers map them onto Robust
   exit semantics, and [with_retry] maps them onto retry policy. *)

type error_kind = E_refused | E_timeout | E_transport | E_proto
type err = { e_kind : error_kind; e_msg : string }

let err kind msg = Error { e_kind = kind; e_msg = msg }

let err_to_string e =
  let k =
    match e.e_kind with
    | E_refused -> "refused"
    | E_timeout -> "timeout"
    | E_transport -> "transport"
    | E_proto -> "protocol"
  in
  Printf.sprintf "%s (%s)" e.e_msg k

type t = { fd : Unix.file_descr; mutable open_ : bool }

let m_retries =
  Mctel.Metrics.counter ~help:"client request attempts retried"
    "mcheck_client_retries_total"

let m_timeouts =
  Mctel.Metrics.counter ~help:"client connect/read timeouts"
    "mcheck_client_timeouts_total"

let m_breaker_opens =
  Mctel.Metrics.counter ~help:"circuit breaker open transitions"
    "mcheck_client_breaker_opens_total"

let m_breaker_open =
  Mctel.Metrics.gauge ~help:"1 while any endpoint breaker is open"
    "mcheck_client_breaker_open"

(* ------------------------------------------------------------------ *)
(* Connecting                                                          *)
(* ------------------------------------------------------------------ *)

let sockaddr_of = function
  | Proto.Unix_sock path ->
    (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
  | Proto.Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (ip, port))

(* a daemon that is not there answers instantly (ECONNREFUSED/ENOENT);
   one that is unreachable or wedged answers never — the non-blocking
   connect + select distinguishes the two, which is what lets retry
   policy treat them differently *)
let connect ?(connect_timeout = 10.) ?(read_timeout = 60.) addr =
  match sockaddr_of addr with
  | exception e ->
    err E_refused
      (Printf.sprintf "cannot resolve %s: %s"
         (Proto.addr_to_string addr)
         (Printexc.to_string e))
  | sock, sockaddr -> (
    let fail kind msg =
      (try Unix.close sock with _ -> ());
      err kind
        (Printf.sprintf "cannot connect to %s: %s"
           (Proto.addr_to_string addr)
           msg)
    in
    let finish () =
      (try Unix.clear_nonblock sock with _ -> ());
      (try Unix.setsockopt_float sock Unix.SO_RCVTIMEO read_timeout
       with _ -> ());
      Ok { fd = sock; open_ = true }
    in
    Unix.set_nonblock sock;
    match Unix.connect sock sockaddr with
    | () -> finish ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      -> (
      match Unix.select [] [ sock ] [] connect_timeout with
      | _, [], _ ->
        Mctel.Metrics.inc m_timeouts;
        fail E_timeout
          (Printf.sprintf "timed out after %.1fs" connect_timeout)
      | _, _ :: _, _ -> (
        match Unix.getsockopt_error sock with
        | None -> finish ()
        | Some (Unix.ECONNREFUSED | Unix.ENOENT) ->
          fail E_refused "connection refused"
        | Some e -> fail E_transport (Unix.error_message e))
      | exception Unix.Unix_error (e, _, _) ->
        fail E_transport (Unix.error_message e))
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      fail E_refused "connection refused"
    | exception Unix.Unix_error (e, _, _) ->
      fail E_transport (Unix.error_message e))

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Request / response                                                  *)
(* ------------------------------------------------------------------ *)

let send t req =
  match Proto.write_frame t.fd (Proto.encode_request req) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    err E_transport ("send failed: " ^ Unix.error_message e)

let read_response t =
  match Proto.read_frame t.fd with
  | Error msg -> err E_transport ("read failed: " ^ msg)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Mctel.Metrics.inc m_timeouts;
    err E_timeout "read timed out"
  | exception Unix.Unix_error (e, _, _) ->
    err E_transport ("read failed: " ^ Unix.error_message e)
  | Ok payload -> (
    match Proto.decode_response payload with
    | Error msg -> err E_proto msg
    | Ok _ as ok -> ok)

let request t req =
  match send t req with Error _ as e -> e | Ok () -> read_response t

type check_result = {
  cr_exit : int;
  cr_findings : int;
  cr_diags : Proto.diag_frame list;
}

type check_outcome =
  | Checked of check_result
  | Refused of string
  | Overloaded of int

let run_check ?(on_diag = fun _ -> ()) t req =
  match send t req with
  | Error _ as e -> e
  | Ok () ->
    let rec collect acc =
      match read_response t with
      | Error _ as e -> e
      | Ok (Proto.R_diag d) ->
        on_diag d;
        collect (d :: acc)
      | Ok (Proto.R_done { rd_exit; rd_findings; rd_diags }) ->
        let diags = List.rev acc in
        if List.length diags <> rd_diags then
          err E_proto
            (Printf.sprintf
               "stream out of sync: %d diagnostic frame(s), trailer \
                claims %d"
               (List.length diags) rd_diags)
        else
          Ok
            (Checked
               {
                 cr_exit = rd_exit;
                 cr_findings = rd_findings;
                 cr_diags = diags;
               })
      | Ok (Proto.R_error msg) -> Ok (Refused msg)
      | Ok (Proto.R_overloaded { ro_retry_after_ms }) ->
        (* a shed after diagnostics started would mean partial output
           got written — the server never does that, so treat it as a
           protocol violation rather than mask it *)
        if acc <> [] then err E_proto "overloaded after diagnostics began"
        else Ok (Overloaded ro_retry_after_ms)
      | Ok (Proto.R_ok | Proto.R_text _ | Proto.R_counters _) ->
        err E_proto "unexpected response kind mid-check"
    in
    collect []

let check_files ?on_diag t opts paths =
  run_check ?on_diag t (Proto.Check_files (opts, paths))

let check_buffer ?on_diag t opts ~name ~contents =
  run_check ?on_diag t (Proto.Check_buffer (opts, name, contents))

let expect_ok = function
  | Error _ as e -> e
  | Ok Proto.R_ok -> Ok ()
  | Ok (Proto.R_error msg) -> err E_proto msg
  | Ok _ -> err E_proto "unexpected response kind"

let expect_text = function
  | Error _ as e -> e
  | Ok (Proto.R_text s) -> Ok s
  | Ok (Proto.R_error msg) -> err E_proto msg
  | Ok _ -> err E_proto "unexpected response kind"

let stats t = expect_text (request t (Proto.Stats Proto.S_text))
let stats_json t = expect_text (request t (Proto.Stats Proto.S_json))
let metrics t fmt = expect_text (request t (Proto.Metrics fmt))
let flight t = expect_text (request t Proto.Flight)
let ping t = expect_ok (request t Proto.Ping)
let drain t = expect_ok (request t Proto.Drain)
let reload t = expect_ok (request t Proto.Reload)

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-endpoint, process-wide: consecutive transport failures open the
   breaker; while open, calls fail fast instead of stacking connect
   timeouts against a dead daemon.  After the cooldown one half-open
   probe is allowed through and its outcome decides. *)
module Breaker = struct
  type state = {
    mutable fails : int;
    mutable opened_until : float;  (* 0. = closed *)
    mutable probing : bool;
  }

  let mu = Mutex.create ()
  let table : (string, state) Hashtbl.t = Hashtbl.create 8
  let threshold = ref 5
  let cooldown_ms = ref 2000

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let state_of key =
    match Hashtbl.find_opt table key with
    | Some s -> s
    | None ->
      let s = { fails = 0; opened_until = 0.; probing = false } in
      Hashtbl.add table key s;
      s

  let any_open () =
    let now = Unix.gettimeofday () in
    Hashtbl.fold (fun _ s acc -> acc || s.opened_until > now) table false

  let sync_gauge () =
    Mctel.Metrics.set m_breaker_open (if any_open () then 1 else 0)

  (* [`Pass] = go ahead (closed, or the half-open probe slot);
     [`Fail_fast ms] = open, come back in ms *)
  let admit key =
    locked (fun () ->
        let s = state_of key in
        let now = Unix.gettimeofday () in
        if s.opened_until = 0. then `Pass
        else if now >= s.opened_until then
          if s.probing then
            `Fail_fast !cooldown_ms (* someone else holds the probe slot *)
          else begin
            s.probing <- true;
            `Pass
          end
        else `Fail_fast (int_of_float ((s.opened_until -. now) *. 1000.)))

  let on_success key =
    locked (fun () ->
        let s = state_of key in
        s.fails <- 0;
        s.opened_until <- 0.;
        s.probing <- false;
        sync_gauge ())

  let on_failure key =
    locked (fun () ->
        let s = state_of key in
        s.fails <- s.fails + 1;
        s.probing <- false;
        if s.fails >= !threshold then begin
          if s.opened_until = 0. then Mctel.Metrics.inc m_breaker_opens;
          s.opened_until <-
            Unix.gettimeofday () +. (float_of_int !cooldown_ms /. 1000.)
        end;
        sync_gauge ())

  let reset () =
    locked (fun () ->
        Hashtbl.reset table;
        sync_gauge ())
end

let set_breaker ?threshold ?cooldown_ms () =
  Option.iter (fun v -> Breaker.threshold := v) threshold;
  Option.iter (fun v -> Breaker.cooldown_ms := v) cooldown_ms

let breaker_state addr =
  let key = Proto.addr_to_string addr in
  Breaker.locked (fun () ->
      let s = Breaker.state_of key in
      if s.Breaker.opened_until > Unix.gettimeofday () then `Open else `Closed)

let breaker_reset () = Breaker.reset ()

(* ------------------------------------------------------------------ *)
(* Retry with backoff                                                  *)
(* ------------------------------------------------------------------ *)

let rng = lazy (Random.State.make_self_init ())
let rng_mu = Mutex.create ()

let jitter ms =
  Mutex.lock rng_mu;
  let j = Random.State.int (Lazy.force rng) (max 1 (ms / 2)) in
  Mutex.unlock rng_mu;
  (ms / 2) + j

let retryable = function
  | E_refused | E_timeout | E_transport -> true
  | E_proto -> false

let with_retry ?(attempts = 4) ?(base_backoff_ms = 50) ?connect_timeout
    ?read_timeout ?(classify = fun _ -> None) addr f =
  let key = Proto.addr_to_string addr in
  let sleep_ms ms = if ms > 0 then Thread.delay (float_of_int ms /. 1000.) in
  let rec go i last =
    if i >= attempts then last
    else begin
      if i > 0 then Mctel.Metrics.inc m_retries;
      let backoff () = jitter (base_backoff_ms * (1 lsl i)) in
      let attempt_result =
        match Breaker.admit key with
        | `Fail_fast ms ->
          `Failed
            ( { e_kind = E_refused;
                e_msg =
                  Printf.sprintf "circuit open for %s (retry in ~%dms)" key
                    ms
              },
              ms )
        | `Pass -> (
          match connect ?connect_timeout ?read_timeout addr with
          | Error e ->
            Breaker.on_failure key;
            `Failed (e, 0)
          | Ok c -> (
            let r =
              Fun.protect ~finally:(fun () -> close c) (fun () -> f c)
            in
            match r with
            | Ok v -> (
              Breaker.on_success key;
              match classify v with
              | None -> `Done (Ok v)
              | Some retry_after_ms ->
                (* the daemon is alive but shedding: honour its floor *)
                `Shed (Ok v, retry_after_ms))
            | Error e ->
              if retryable e.e_kind then Breaker.on_failure key
              else Breaker.on_success key;
              if retryable e.e_kind then `Failed (e, 0)
              else `Done (Error e)))
      in
      match attempt_result with
      | `Done r -> r
      | `Shed (r, floor_ms) ->
        if i + 1 >= attempts then r
        else begin
          sleep_ms (max floor_ms (backoff ()));
          go (i + 1) r
        end
      | `Failed (e, floor_ms) ->
        if i + 1 >= attempts then Error e
        else begin
          sleep_ms (max floor_ms (backoff ()));
          go (i + 1) (Error e)
        end
    end
  in
  go 0 (err E_refused "no attempts made")
