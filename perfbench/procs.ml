(* Child processes: the spawned mcheck runs and the mcheckd daemon.
   Every child is tracked until it has been reaped, and [kill_all] (run
   at exit) stops whatever a failed run left behind. *)

external wait4 : int -> int * int = "pb_wait4"

let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_mu = Mutex.create ()

let track pid =
  Mutex.protect live_mu (fun () -> Hashtbl.replace live pid ())

let untrack pid = Mutex.protect live_mu (fun () -> Hashtbl.remove live pid)

let kill_all () =
  let pids = Mutex.protect live_mu (fun () -> Hashtbl.fold (fun p () acc -> p :: acc) live []) in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      untrack pid)
    pids

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let read_all fd =
  let b = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes b chunk 0 n; go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

type run = {
  exit : int;
  stdout : string;
  wall_s : float;
  maxrss_kb : int;
}

(* run [prog args] to completion with stdout captured and stderr
   discarded *)
let run prog args =
  let null = devnull () in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null w null in
  track pid;
  Unix.close w;
  Unix.close null;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let exit, maxrss_kb = wait4 pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  untrack pid;
  { exit; stdout = out; wall_s; maxrss_kb }

(* VmHWM of [pid] and of its direct children (supervised workers), in
   KiB; 0 when the process is gone *)
let peak_rss_kb pid =
  let read_file path =
    match open_in path with
    | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
    | exception Sys_error _ -> ""
  in
  let hwm p =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" p)))
  in
  let children =
    List.filter_map int_of_string_opt
      (String.split_on_char ' '
         (String.trim (read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid))))
  in
  List.fold_left (fun acc c -> acc + hwm c) (hwm pid) children

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; addr : Serve.Proto.addr }

(* the socket mcheckd binds when given no flags, in its working
   directory — which is ours *)
let default_socket = "mcheckd.sock"

let connect addr = Serve.Client.connect ~connect_timeout:5. ~read_timeout:60. addr

(* spawn [mcheckd] with no flags, stdout to /dev/null and stderr to
   [log], and wait until it answers a ping *)
let spawn_daemon ~log bin =
  (try Sys.remove default_socket with Sys_error _ -> ());
  let null = devnull () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process bin [| bin |] null null err in
  track pid;
  Unix.close null;
  Unix.close err;
  let addr = Serve.Proto.Unix_sock default_socket in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_ready () =
    let ready =
      Sys.file_exists default_socket
      &&
      match connect addr with
      | Ok c ->
        let ok = Serve.Client.ping c = Ok () in
        Serve.Client.close c;
        ok
      | Error _ -> false
    in
    if ready then Ok { pid; addr }
    else if Unix.gettimeofday () > deadline then Error "mcheckd did not come up within 30 s"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> untrack pid; failwith "mcheckd exited before accepting");
      Thread.delay 0.005;
      wait_ready ()
    end
  in
  wait_ready ()

(* drain the daemon and reap it; a daemon that has not exited 10 s after
   the drain is killed *)
let stop_daemon d =
  (match connect d.addr with
  | Ok c ->
    ignore (Serve.Client.drain c);
    Serve.Client.close c
  | Error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Thread.delay 0.01; reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = reap () in
  untrack d.pid;
  clean
