(** A hand-rolled OCaml 5 domain work pool.

    [Domain] + [Atomic] and nothing else: tasks live in an array and
    workers claim contiguous chunks with a single [Atomic.fetch_and_add]
    on a shared cursor.  Claiming is wait-free — no mutex, no condition
    variable, no per-task wakeup — so with one worker the pool degrades
    to a plain [for] loop plus one atomic add per chunk, and oversubscribed
    configurations (more domains than cores) never pay lock-convoy costs.
    Determinism is the *caller's* job — tasks write their results into
    pre-assigned slots, so the order in which domains happen to execute
    them never shows in the output.

    {2 Failure containment}

    A task that raises does not bring the pool down: the first exception
    is remembered (atomically) and re-raised from {!run} after every
    domain has joined, so no work unit is silently dropped mid-queue.

    A *worker* that dies — an exception escaping the claim loop itself
    rather than a task (in practice only the test kill hook, or a
    runtime failure like [Stack_overflow] outside the per-task guard) —
    is contained too: the crash is recorded in that worker's stats, the
    surviving workers keep draining the cursor, and after the join the
    coordinating domain re-claims every task the dead worker had claimed
    but not completed.  Per-task completion flags are what make the
    orphans identifiable; they are plain [bool]s because each slot has a
    single writer and the reader only looks after [Domain.join]'s
    happens-before edge (the coordinator's own re-claim writes are
    trivially safe). *)

type worker_stats = {
  tasks_done : int;  (** work units this domain executed *)
  wall_ms : float;
      (** wall-clock time this domain spent alive — derived from the
          same single [Mcobs] clock measurement that backs the domain's
          [mcd.worker] span *)
  crashed : bool;
      (** the claim loop died (not a mere task exception); any tasks it
          had claimed were re-run by the coordinator *)
}

exception Killed of string
(** what the test kill hook raises — deliberately *outside* the
    per-task guard, so it models a dying worker, not a failing task *)

(* Test-only: the fault-injection harness installs a predicate and a
   worker about to start the matching task dies instead.  Installed
   before [run], cleared after. *)
let kill_hook : (worker:int -> task:int -> bool) option ref = ref None

let set_test_kill h = kill_hook := h

let m_workers_crashed =
  Mcmetrics.counter ~help:"pool workers whose claim loop died"
    "mcheck_pool_workers_crashed_total"

let m_reclaimed =
  Mcmetrics.counter ~help:"tasks re-run by the coordinator after a crash"
    "mcheck_pool_tasks_reclaimed_total"

(** Execute every task of [tasks] exactly once across [domains] worker
    domains (clamped to at least 1).  Workers claim [chunk] consecutive
    tasks at a time (default 1); a larger chunk amortises the shared
    cursor when tasks are small and plentiful.  Returns per-domain
    statistics, in domain order.  Re-raises the first task exception
    after joining (and after re-claiming crashed workers' tasks, so the
    result slots are complete either way).

    Each worker's lifetime is measured exactly once (with the [Mcobs]
    clock): the measurement is recorded as an [mcd.worker] span — the
    per-domain timeline in the Chrome trace — and the same numbers back
    the returned {!worker_stats}, so the two can never disagree. *)
let run ?(chunk = 1) ~domains (tasks : (unit -> unit) array) :
    worker_stats array =
  let domains = max 1 domains in
  let chunk = max 1 chunk in
  let n = Array.length tasks in
  let next = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let completed = Array.make n false in
  let run_task i =
    (try tasks.(i) () with
    | exn -> ignore (Atomic.compare_and_set failure None (Some exn)));
    completed.(i) <- true
  in
  let worker wid () =
    let t0 = Mcobs.now_us () in
    let count = ref 0 in
    let crashed = ref false in
    (try
       let rec loop () =
         let start = Atomic.fetch_and_add next chunk in
         if start < n then begin
           let stop = min n (start + chunk) in
           for i = start to stop - 1 do
             (match !kill_hook with
             | Some k when k ~worker:wid ~task:i ->
               raise (Killed (Printf.sprintf "worker %d at task %d" wid i))
             | _ -> ());
             run_task i;
             incr count
           done;
           loop ()
         end
       in
       loop ()
     with _ ->
       crashed := true;
       Mcmetrics.inc m_workers_crashed);
    let dur = Mcobs.now_us () -. t0 in
    Mcobs.record_span ~name:"mcd.worker"
      ~args:[ ("tasks", string_of_int !count) ]
      ~begin_us:t0 ~dur_us:dur ();
    { tasks_done = !count; wall_ms = dur /. 1000.; crashed = !crashed }
  in
  let spawned =
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1) ()))
  in
  (* the calling domain is worker 0: with [~domains:1] the pool degrades
     to a plain sequential loop with no spawn at all *)
  let mine = worker 0 () in
  let others = Array.map Domain.join spawned in
  (* re-claim: any task a dead worker claimed but never ran.  The kill
     hook is not consulted here, so the sweep always terminates. *)
  let orphans = ref 0 in
  Array.iteri
    (fun i done_ ->
      if not done_ then begin
        incr orphans;
        run_task i
      end)
    completed;
  Mcmetrics.inc ~by:!orphans m_reclaimed;
  (match Atomic.get failure with Some exn -> raise exn | None -> ());
  Array.append [| mine |] others
