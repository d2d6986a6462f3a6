(** The FlashLite substitute: a multi-node protocol simulator.

    Drives processor reads, writes and uncached reads through the
    {!Golden} protocol handlers running on {!Interp} nodes, with a
    directory, per-node caches and main memory, NAK/retry, random fill
    latency on incoming data buffers, random reply-queue pressure, and
    silent cache evictions — the machinery needed to make the paper's
    rare corner paths (dirty-remote, queue-full, replacement races)
    reachable, occasionally.

    The simulator both *executes* the protocol and *watches* it: data
    integrity is checked against a write oracle, and the machine model
    records buffer/lane/length faults.  [run] reports when (in
    transaction count) each fault class first manifested, which is the
    number the static-vs-dynamic comparison needs. *)

type config = {
  n_nodes : int;
  n_lines : int;
  transactions : int;
  seed : int;
  variant : Golden.variant;
  directory : Directory.packed;
      (** which of the five directory organisations backs the home state;
          handlers see the same bit-vector view either way *)
  fill_delay_pct : int;  (** chance an arriving body is still streaming *)
  corner_flag_pct : int;  (** chance header.nh.misc is set (corner paths) *)
  queue_pressure_pct : int;  (** chance the home reply lane looks full *)
  evict_pct : int;  (** chance a cached line was silently replaced *)
  write_pct : int;
  uncached_pct : int;
}

let default_config =
  {
    n_nodes = 4;
    n_lines = 8;
    transactions = 10_000;
    seed = 42;
    variant = Golden.Clean;
    directory = (module Directory.Bitvector);
    fill_delay_pct = 10;
    corner_flag_pct = 3;
    queue_pressure_pct = 3;
    evict_pct = 2;
    write_pct = 30;
    uncached_pct = 10;
  }

type op = Read of int * int | Write of int * int * int | Uncached of int * int
(* node, line (, value) *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable uncached : int;
  mutable messages : int;
  mutable naks : int;
  mutable handler_runs : int;
  mutable corruptions : int;
  mutable stalled : int;
}

type result = {
  config : config;
  stats : stats;
  faults : (string * Interp.fault) list;  (** handler name, fault *)
  first_detection : (string * int) list;
      (** fault class -> 1-based transaction index of first manifestation *)
  leaked_buffers : int;  (** buffers lost across the whole run *)
  directory_ok : bool;  (** the directory's own invariant at the end *)
}

(* the directory organisation, packed with its state *)
type dir_state =
  | Dir : (module Directory.S with type t = 'd) * 'd -> dir_state

type t = {
  cfg : config;
  program : Callgraph.t;
  consts : (string, int) Hashtbl.t;
  nodes : Interp.node array;
  memory : int array array;  (** authoritative line data, by line *)
  caches : (int * int, int array) Hashtbl.t;  (** (node, line) -> copy *)
  dir : dir_state;
  rng : Rng.t;
  network : Message.t Queue.t;
  stats : stats;
  mutable faults : (string * Interp.fault) list;
  mutable first_detection : (string * int) list;
  mutable current_transaction : int;
  expected : int array;  (** oracle: last value written to word 0 *)
}

let words = Buffers.words_per_buffer

let home t line = line mod t.cfg.n_nodes

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let fault_class (f : Interp.fault) : string =
  match f with
  | Interp.F_buffer (Buffers.Double_free _) -> "double free"
  | Interp.F_buffer (Buffers.Use_after_free _) -> "use after free"
  | Interp.F_buffer (Buffers.Read_before_fill _) -> "fill race"
  | Interp.F_buffer Buffers.Pool_exhausted -> "pool exhausted"
  | Interp.F_lane _ -> "lane overflow"
  | Interp.F_len_mismatch _ -> "length mismatch"
  | Interp.F_fatal _ -> "fatal"

let record_fault t ~handler (f : Interp.fault) =
  t.faults <- (handler, f) :: t.faults;
  let cls = fault_class f in
  if not (List.mem_assoc cls t.first_detection) then
    t.first_detection <- (cls, t.current_transaction) :: t.first_detection

let install_services t (node : Interp.node) =
  let copy_to_buffer data =
    match node.Interp.current_buffer with
    | Some b ->
      Array.iteri
        (fun i v -> Buffers.write node.Interp.buffers b ~word:i ~value:v)
        data;
      Buffers.mark_full b
    | None -> ()
  in
  let copy_from_buffer target =
    match node.Interp.current_buffer with
    | Some b ->
      Array.iteri
        (fun i _ ->
          target.(i) <-
            Buffers.read node.Interp.buffers b ~synchronized:true ~word:i)
        target
    | None -> ()
  in
  node.Interp.custom <-
    (fun name args ->
      let line addr = ((addr :> int) / words) mod t.cfg.n_lines in
      match (name, args) with
      | "MEMORY_READ_LINE", addr :: _ ->
        copy_to_buffer t.memory.(line addr);
        Some 0
      | "MEMORY_WRITE_LINE", addr :: _ ->
        copy_from_buffer t.memory.(line addr);
        Some 0
      | "CACHE_READ_LINE", addr :: _ -> (
        match Hashtbl.find_opt t.caches (node.Interp.id, line addr) with
        | Some data ->
          copy_to_buffer data;
          Some 0
        | None ->
          copy_to_buffer (Array.make words 0);
          Some 0)
      | "CACHE_WRITE_LINE", addr :: _ ->
        let data = Array.make words 0 in
        copy_from_buffer data;
        Hashtbl.replace t.caches (node.Interp.id, line addr) data;
        Some 0
      | "CACHE_INVALIDATE", addr :: _ ->
        Hashtbl.remove t.caches (node.Interp.id, line addr);
        Some 0
      | "CACHE_PRESENT", addr :: _ ->
        Some
          (if Hashtbl.mem t.caches (node.Interp.id, line addr) then 1 else 0)
      | "WAIT_FOR_OUTPUT_SPACE", lane :: _ ->
        (* the hardware suspends the handler until the lane drains; we
           model the drain by moving queued messages onto the network *)
        while Lanes.space node.Interp.lanes lane = 0 do
          List.iter
            (fun (m : Message.t) ->
              if
                (not
                   (List.mem m.Message.opcode [ "PI_REPLY"; "IO_REPLY" ]))
                && (m.Message.opcode <> "MSG_NAK"
                   || m.Message.dst <> m.Message.src)
              then Queue.add m t.network)
            (Lanes.drain node.Interp.lanes)
        done;
        Some 0
      | _ -> None)

let create (cfg : config) : t =
  let program = Callgraph.build (Golden.program cfg.variant) in
  let consts = Interp.consts_of_program (Golden.program cfg.variant) in
  let rng = Rng.create ~seed:cfg.seed in
  let t =
    {
      cfg;
      program;
      consts;
      nodes =
        Array.init cfg.n_nodes (fun id ->
            Interp.create_node ~n_nodes:cfg.n_nodes id);
      memory =
        Array.init cfg.n_lines (fun line ->
            Array.init words (fun w -> (line * 97) + w));
      caches = Hashtbl.create 64;
      dir =
        (let (module D) = cfg.directory in
         Dir ((module D), D.create ~n_nodes:cfg.n_nodes ~n_lines:cfg.n_lines));
      rng;
      network = Queue.create ();
      stats =
        {
          reads = 0;
          writes = 0;
          uncached = 0;
          messages = 0;
          naks = 0;
          handler_runs = 0;
          corruptions = 0;
          stalled = 0;
        };
      faults = [];
      first_detection = [];
      current_transaction = 0;
      expected = Array.init cfg.n_lines (fun line -> line * 97);
    }
  in
  Array.iter
    (fun node ->
      install_services t node;
      Interp.set_global node "numNodes" cfg.n_nodes;
      Interp.set_global node "nodeId" node.Interp.id)
    t.nodes;
  t

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let line_of_addr t addr = (addr / words) mod t.cfg.n_lines
let addr_of_line line = line * words

(* the handlers' bit-vector view of the directory entry *)
let dir_view t line : int * bool * int =
  let (Dir ((module D), d)) = t.dir in
  let vector =
    List.fold_left (fun acc n -> acc lor (1 lsl n)) 0 (D.sharers d ~line)
  in
  let dirty = D.is_dirty d ~line in
  let owner = Option.value ~default:(-1) (D.owner d ~line) in
  (vector, dirty, owner)

(* apply a written-back bit-vector view to the directory organisation *)
let dir_apply t line ~vector ~dirty ~owner =
  let (Dir ((module D), d)) = t.dir in
  for node = 0 to t.cfg.n_nodes - 1 do
    let want = vector land (1 lsl node) <> 0 in
    if want && not (D.is_sharer d ~line ~node) then D.add_sharer d ~line ~node
    else if (not want) && D.is_sharer d ~line ~node then
      D.remove_sharer d ~line ~node
  done;
  if dirty && owner >= 0 then D.set_dirty d ~line ~owner
  else if (not dirty) && D.is_dirty d ~line then D.clear_dirty d ~line

let dir_dirty t line =
  let _, dirty, _ = dir_view t line in
  dirty

let dir_owner_of t line =
  let _, _, owner = dir_view t line in
  owner

let directory_well_formed t =
  let (Dir ((module D), d)) = t.dir in
  D.well_formed d

(* deliver one message: run the destination handler, drain its lanes *)
let deliver t (msg : Message.t) : int option =
  let node = t.nodes.(msg.Message.dst) in
  let line = line_of_addr t msg.Message.addr in
  t.stats.messages <- t.stats.messages + 1;
  if String.equal msg.Message.opcode "MSG_NAK" then
    t.stats.naks <- t.stats.naks + 1;
  (* hardware: allocate the buffer and stream the body in *)
  let filling =
    msg.Message.has_data && Rng.percent t.rng t.cfg.fill_delay_pct
  in
  (match Buffers.allocate ~filling node.Interp.buffers with
  | Some b ->
    (* the payload is in the buffer, but an unsynchronised read while the
       body is still streaming sees zeros (modelled by the pool) *)
    Array.iteri
      (fun i v -> b.Buffers.words.(i mod words) <- v)
      msg.Message.data;
    node.Interp.current_buffer <- Some b
  | None -> ());
  node.Interp.db_synchronized <- not filling;
  (* set up handler globals from the header *)
  Interp.set_global node "header.nh.address" msg.Message.addr;
  Interp.set_global node "header.nh.src" msg.Message.src;
  Interp.set_global node "header.nh.dest" msg.Message.src;
  Interp.set_global node "header.nh.type" 0;
  Interp.set_global node "header.nh.len"
    (match msg.Message.len with
    | Message.Len_nodata -> 0
    | Message.Len_word -> 1
    | Message.Len_cacheline -> 16);
  Interp.set_global node "header.nh.misc"
    (if Rng.percent t.rng t.cfg.corner_flag_pct then 1 else 0);
  (* the home's directory entry copy *)
  let vector, dirty, owner = dir_view t line in
  Interp.set_global node "dirEntry.vector" vector;
  Interp.set_global node "dirEntry.dirty" (if dirty then 1 else 0);
  Interp.set_global node "dirEntry.owner" owner;
  Interp.set_global node "dirEntry.written_back" 0;
  (* occasional reply-lane pressure so OUTPUT_QUEUE_FULL paths run *)
  let pressure =
    Rng.percent t.rng t.cfg.queue_pressure_pct
    && List.mem msg.Message.opcode [ "MSG_UNCACHED_READ" ]
  in
  let dummy =
    {
      Message.opcode = "MSG_NAK";
      src = node.Interp.id;
      dst = node.Interp.id;
      addr = 0;
      len = Message.Len_nodata;
      has_data = false;
      data = [||];
      lane = Flash_api.lane_net_reply;
    }
  in
  if pressure then
    while Lanes.space node.Interp.lanes Flash_api.lane_net_reply > 0 do
      ignore (Lanes.send node.Interp.lanes dummy)
    done;
  (* dispatch *)
  let result = ref None in
  (match List.assoc_opt msg.Message.opcode Golden.handler_map with
  | None -> ()
  | Some handler_name -> (
    match Callgraph.find_func t.program handler_name with
    | None -> ()
    | Some handler ->
      t.stats.handler_runs <- t.stats.handler_runs + 1;
      let faults, sent =
        Interp.run_handler ~node ~program:t.program ~consts:t.consts handler
      in
      List.iter (fun f -> record_fault t ~handler:handler_name f) faults;
      (* apply a written-back directory entry *)
      if Interp.global node "dirEntry.written_back" = 1 then
        dir_apply t line
          ~vector:(Interp.global node "dirEntry.vector")
          ~dirty:(Interp.global node "dirEntry.dirty" <> 0)
          ~owner:(Interp.global node "dirEntry.owner");
      (* the processor interface completes the transaction *)
      List.iter
        (fun (m : Message.t) ->
          if String.equal m.Message.opcode "PI_REPLY" then
            result :=
              Some
                (if Array.length m.Message.data > 0 then m.Message.data.(0)
                 else 0))
        sent));
  (* drain the node's output lanes onto the network *)
  if pressure then begin
    (* release the artificial pressure before collecting real output *)
    let real =
      List.filter
        (fun (m : Message.t) -> not (m == dummy))
        (let rec drain acc =
           match Lanes.drain node.Interp.lanes with
           | [] -> List.rev acc
           | ms -> drain (List.rev_append ms acc)
         in
         drain [])
    in
    List.iter
      (fun (m : Message.t) ->
        if
          (m.Message.opcode <> "MSG_NAK" || m.Message.dst <> m.Message.src)
          && not
               (List.mem m.Message.opcode [ "PI_REPLY"; "IO_REPLY" ])
        then Queue.add m t.network)
      real
  end
  else begin
    let rec drain () =
      match Lanes.drain node.Interp.lanes with
      | [] -> ()
      | ms ->
        List.iter
          (fun (m : Message.t) ->
            (* PI/IO replies complete locally; they never hit the wire *)
            if not (List.mem m.Message.opcode [ "PI_REPLY"; "IO_REPLY" ])
            then Queue.add m t.network)
          ms;
        drain ()
    in
    drain ()
  end;
  !result

(* run the network to quiescence; returns the PI data delivered, if any *)
let quiesce t : int option =
  let delivered = ref None in
  let budget = ref 200 in
  while (not (Queue.is_empty t.network)) && !budget > 0 do
    decr budget;
    let msg = Queue.pop t.network in
    match deliver t msg with
    | Some v -> delivered := Some v
    | None -> ()
  done;
  !delivered

(* ------------------------------------------------------------------ *)
(* Processor operations                                                *)
(* ------------------------------------------------------------------ *)

let send_request t ~src ~line ~opcode =
  Queue.add
    {
      Message.opcode;
      src;
      dst = home t line;
      addr = addr_of_line line;
      len = Message.Len_nodata;
      has_data = false;
      data = [||];
      lane = Flash_api.lane_net_request;
    }
    t.network

let maybe_evict t node line =
  if
    Hashtbl.mem t.caches (node, line)
    && Rng.percent t.rng t.cfg.evict_pct
    && not (dir_dirty t line && dir_owner_of t line = node)
  then
    (* silent replacement: the home still believes this node shares the
       line — the replacement-hint-free design FLASH actually used *)
    Hashtbl.remove t.caches (node, line)

let rec do_op t ?(retries = 6) (op : op) : unit =
  if retries = 0 then t.stats.stalled <- t.stats.stalled + 1
  else
    match op with
    | Read (node, line) -> (
      maybe_evict t node line;
      match Hashtbl.find_opt t.caches (node, line) with
      | Some data ->
        if data.(0) <> t.expected.(line) then
          t.stats.corruptions <- t.stats.corruptions + 1
      | None -> (
        send_request t ~src:node ~line ~opcode:"MSG_GET";
        match quiesce t with
        | Some v ->
          if v <> t.expected.(line) then
            t.stats.corruptions <- t.stats.corruptions + 1
        | None ->
          (* NAKed: the owner is writing back; retry *)
          do_op t ~retries:(retries - 1) op))
    | Write (node, line, value) -> (
      let exclusive =
        dir_dirty t line
        && dir_owner_of t line = node
        && Hashtbl.mem t.caches (node, line)
      in
      if exclusive then begin
        let data = Hashtbl.find t.caches (node, line) in
        data.(0) <- value;
        t.expected.(line) <- value
      end
      else begin
        send_request t ~src:node ~line ~opcode:"MSG_GETX";
        match quiesce t with
        | Some _ -> (
          (* exclusive copy arrived; perform the store *)
          match Hashtbl.find_opt t.caches (node, line) with
          | Some data ->
            data.(0) <- value;
            t.expected.(line) <- value
          | None -> t.stats.stalled <- t.stats.stalled + 1)
        | None -> do_op t ~retries:(retries - 1) op
      end)
    | Uncached (node, line) -> (
      send_request t ~src:node ~line ~opcode:"MSG_UNCACHED_READ";
      match quiesce t with
      | Some v ->
        if v <> t.expected.(line) then
          t.stats.corruptions <- t.stats.corruptions + 1
      | None -> do_op t ~retries:(retries - 1) op)

let random_op t : op =
  let node = Rng.int t.rng t.cfg.n_nodes in
  let line = Rng.int t.rng t.cfg.n_lines in
  if Rng.percent t.rng t.cfg.uncached_pct then Uncached (node, line)
  else if Rng.percent t.rng t.cfg.write_pct then
    Write (node, line, Rng.int t.rng 1_000_000)
  else Read (node, line)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* buffers still held while the machine is quiescent are leaks *)
let leaked_buffers t =
  Array.fold_left
    (fun acc (node : Interp.node) ->
      acc + (16 - Buffers.free_count node.Interp.buffers))
    0 t.nodes

(** Run the configured number of transactions. *)
let run (cfg : config) : result =
  Mcobs.with_span "sim.run"
    ~args:[ ("transactions", string_of_int cfg.transactions) ]
    (fun () ->
      let t = create cfg in
      for i = 1 to cfg.transactions do
        t.current_transaction <- i;
        let op = random_op t in
        (match op with
        | Read _ -> t.stats.reads <- t.stats.reads + 1
        | Write _ -> t.stats.writes <- t.stats.writes + 1
        | Uncached _ -> t.stats.uncached <- t.stats.uncached + 1);
        do_op t op;
        (* detect slow leaks as they cross the "node wedged" threshold *)
        Array.iter
          (fun (node : Interp.node) ->
            if Buffers.free_count node.Interp.buffers = 0 then
              record_fault t ~handler:"<pool>"
                (Interp.F_buffer Buffers.Pool_exhausted))
          t.nodes
      done;
      {
        config = cfg;
        stats = t.stats;
        faults = List.rev t.faults;
        first_detection = List.rev t.first_detection;
        leaked_buffers = leaked_buffers t;
        directory_ok = directory_well_formed t;
      })

let pp_result ppf (r : result) =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "transactions: %d (reads %d, writes %d, uncached %d)@,\
     messages: %d  handler runs: %d  NAK retries: %d@,\
     corruptions detected: %d  stalled ops: %d  leaked buffers: %d@,\
     fault classes first manifested:"
    r.config.transactions r.stats.reads r.stats.writes r.stats.uncached
    r.stats.messages r.stats.handler_runs r.stats.naks r.stats.corruptions
    r.stats.stalled r.leaked_buffers;
  if r.first_detection = [] then Format.fprintf ppf "@,  (none)"
  else
    List.iter
      (fun (cls, at) ->
        Format.fprintf ppf "@,  %-16s first at transaction %d" cls at)
      r.first_detection;
  Format.fprintf ppf "@]" 
