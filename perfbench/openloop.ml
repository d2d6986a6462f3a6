(* The load generator.  [run] hands request indices, in order, to [conns]
   connection workers; each worker sleeps until its request is due, sends
   it, and waits for the reply.

   Open loop: request [i] is due at a fixed time whatever happened before
   it, and its latency runs from that due time, not from when it was
   sent — so a stall that holds later requests back is charged to them,
   as their users would see it.  Closed loop: every request is due at
   once ([due] in the past) and the next goes out only when a worker is
   free; latency is then [done - sent].

   The clock is a parameter so tests can drive the accounting with a
   fake one. *)

type clock = { now : unit -> float; sleep_until : float -> unit }

let real_clock =
  {
    now = Unix.gettimeofday;
    sleep_until =
      (fun t ->
        let d = t -. Unix.gettimeofday () in
        if d > 0. then Thread.delay d);
  }

type record = {
  due : float;
  picked : float;  (** when a free worker took the request *)
  sent : float;
  done_ : float;
  ok : bool;
}

(* latency from the due time *)
let latency_ms r = (r.done_ -. r.due) *. 1000.

(* latency from the send, the closed-loop measure *)
let service_ms r = (r.done_ -. r.sent) *. 1000.

(* How late the generator itself sent: the gap between the moment the
   request could have gone (due, with a worker free) and the send.  Time
   a request waited for a busy worker is queueing, not lateness. *)
let late_ms r = (r.sent -. Float.max r.due r.picked) *. 1000.

(* [run ~conns ~count ~due ~send ()] runs requests [0 .. count-1];
   [send conn i] performs request [i] on worker [conn]'s connection and
   says whether it succeeded.  Returns the records of the requests that
   ran, in index order. *)
let run ?(clock = real_clock) ~conns ~count ~due ~send () =
  let out = Array.make count None in
  let next = ref 0 in
  let mu = Mutex.create () in
  let take () =
    Mutex.lock mu;
    let i = !next in
    if i < count then incr next;
    Mutex.unlock mu;
    if i < count then Some i else None
  in
  let worker conn =
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
        let picked = clock.now () in
        let due = due i in
        clock.sleep_until due;
        let sent = clock.now () in
        let ok = send conn i in
        let done_ = clock.now () in
        out.(i) <- Some { due; picked; sent; done_; ok };
        loop ()
    in
    loop ()
  in
  if conns <= 1 then worker 0
  else
    List.iter Thread.join (List.init conns (fun c -> Thread.create worker c));
  List.filter_map Fun.id (Array.to_list out)

(* the due times of [count] requests offered at [rate] per second from
   [t0] *)
let schedule ~t0 ~rate i = t0 +. (float_of_int i /. rate)
