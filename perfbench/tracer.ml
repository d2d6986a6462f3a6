(* The traced run's span store.  Spans live in memory while the run goes
   and are written once at the end; nothing here is touched on the
   untraced (end-to-end) path.

   A span records where the benchmark called into a layer: name, start,
   end, the span that caused it, and the request it belongs to. *)

type span = {
  id : int;
  name : string;
  start_us : float;
  stop_us : float;
  parent : int;  (** [-1] for a root *)
  req : int;  (** request id shared by every span of one request *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : int;
  origin : float;
}

let create () =
  { spans = []; next_id = 0; stack = []; req = -1; origin = Unix.gettimeofday () }

let now_us t = (Unix.gettimeofday () -. t.origin) *. 1e6

(* run [f] as request [req]: its spans share the id *)
let with_request t req f =
  let saved = t.req in
  t.req <- req;
  Fun.protect ~finally:(fun () -> t.req <- saved) f

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_us = now_us t in
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; start_us; stop_us = now_us t; parent; req = t.req } :: t.spans
  in
  Fun.protect ~finally:finish f

(* in start order: ids are taken when a span starts, and the clock can
   give two starts the same microsecond *)
let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.spans
let duration_ms s = (s.stop_us -. s.start_us) /. 1000.

(* A span's self time: its duration minus what its direct children
   cover.  Children of one span never overlap (the run is sequential),
   so their durations add. *)
let self_ms spans =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (duration_ms s
          +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration_ms s
        -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) ))
    spans

type row = { r_name : string; r_self_ms : float; r_count : int }

(* The waterfall of every tree rooted at a span named [root]: one row
   per span name below the roots, valued by total self time, plus
   [unattributed] — the roots' own self time, the part of the wall no
   layer span covers.  Rows plus [unattributed] add up to [wall_ms]
   exactly. *)
type waterfall = {
  w_wall_ms : float;
  w_rows : row list;  (** in first-started order *)
  w_unattributed_ms : float;
  w_requests : int;
}

let waterfall ~root spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with
      | Some p -> root_of p
      | None -> s
  in
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  let wall = ref 0. and unattr = ref 0. and reqs = ref 0 in
  List.iter
    (fun (s, self) ->
      if (root_of s).name = root then
        if s.parent < 0 then begin
          wall := !wall +. duration_ms s;
          unattr := !unattr +. self;
          incr reqs
        end
        else begin
          (match Hashtbl.find_opt acc s.name with
          | None ->
            order := s.name :: !order;
            Hashtbl.replace acc s.name (self, 1)
          | Some (ms, n) -> Hashtbl.replace acc s.name (ms +. self, n + 1))
        end)
    (self_ms spans);
  {
    w_wall_ms = !wall;
    w_rows =
      List.rev_map
        (fun name ->
          let ms, n = Hashtbl.find acc name in
          { r_name = name; r_self_ms = ms; r_count = n })
        !order;
    w_unattributed_ms = !unattr;
    w_requests = !reqs;
  }

let pp_waterfall oc w =
  let pct ms = if w.w_wall_ms > 0. then 100. *. ms /. w.w_wall_ms else 0. in
  Printf.fprintf oc "#   %-22s %12s %7s %7s\n" "layer" "self ms" "share" "spans";
  List.iter
    (fun r ->
      Printf.fprintf oc "#   %-22s %12.3f %6.1f%% %7d\n" r.r_name r.r_self_ms
        (pct r.r_self_ms) r.r_count)
    w.w_rows;
  Printf.fprintf oc "#   %-22s %12.3f %6.1f%%\n" "unattributed"
    w.w_unattributed_ms (pct w.w_unattributed_ms);
  Printf.fprintf oc "#   %-22s %12.3f %6.1f%% %7d requests\n" "wall" w.w_wall_ms
    100. w.w_requests

(* Chrome trace-event JSON, one complete event per span *)
let write_chrome path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc
            (Bjson.to_string
               (Bjson.Obj
                  [
                    ("name", Bjson.Str s.name);
                    ("ph", Bjson.Str "X");
                    ("ts", Bjson.Num s.start_us);
                    ("dur", Bjson.Num (s.stop_us -. s.start_us));
                    ("pid", Bjson.Num 1.);
                    ("tid", Bjson.Num 1.);
                    ( "args",
                      Bjson.Obj
                        [
                          ("id", Bjson.Num (float_of_int s.id));
                          ("parent", Bjson.Num (float_of_int s.parent));
                          ("req", Bjson.Num (float_of_int s.req));
                        ] );
                  ])))
        spans;
      output_string oc "\n]}\n")
