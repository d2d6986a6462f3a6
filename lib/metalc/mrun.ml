(** Running compiled metal checkers.

    A {!t} is a loaded metal checker: the codegen tables lowered onto a
    packed {!Engine.table} — an [int Sm.t] whose per-state rule lists
    are precomputed arrays of single-branch rules and whose root-dispatch
    index is prebuilt once per machine ({!Engine.prebuild}) instead of
    once per checked function.  Actions have {!Mdsl.to_sm}'s semantics
    ([Sm.err ~checker:name] then the outcome) and compiled state ids
    render back to their metal names, so diagnostics — messages,
    locations, witnesses — are byte-identical to the {!Mdsl}
    interpreter's; the seventh Mcfuzz oracle holds the two to that.
    [Registry.of_machine] lifts a loaded spec into a registry checker, so
    it runs through the same kernel as the built-in checkers. *)

type t = Engine.pmachine

(* ------------------------------------------------------------------ *)
(* Lowering tables onto the engine                                     *)
(* ------------------------------------------------------------------ *)

let sm_of_tables (g : Mcodegen.t) : int Sm.t =
  let msgs = g.Mcodegen.g_msgs in
  let branch_rule (i : int) : int Sm.rule =
    let next = g.Mcodegen.g_next.(i) in
    let err =
      let e = g.Mcodegen.g_err.(i) in
      if e >= 0 then Some msgs.(e) else None
    in
    Sm.rule g.Mcodegen.g_pats.(i) (fun ctx ->
        (match err with
        | Some msg -> Sm.err ~checker:g.Mcodegen.g_name ctx "%s" msg
        | None -> ());
        if next = Mcodegen.stay then Sm.Stay
        else if next = Mcodegen.stop then Sm.Stop
        else Sm.Goto next)
  in
  (* per-state rule lists, precomputed once: state rules' branches then
     the [all] branches, already in priority order in the tables *)
  let per_state =
    Array.map
      (fun ids -> List.map branch_rule (Array.to_list ids))
      g.Mcodegen.g_state_branches
  in
  Sm.make ~name:g.Mcodegen.g_name
    ~start:(fun _ -> Some g.Mcodegen.g_start)
    ~rules:(fun s -> per_state.(s))
    ~state_to_string:(fun s -> g.Mcodegen.g_states.(s))
    ()

let of_tables (g : Mcodegen.t) : t =
  Engine.pack_table
    (Engine.prebuild ~n_states:(Array.length g.Mcodegen.g_states)
       (sm_of_tables g))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let compile ?file (src : string) : (t, Mir.error list) result =
  match Mparse.parse ?file src with
  | exception Mdsl.Parse_error (e_msg, e_loc) ->
    Error [ { Mir.e_class = "parse error"; e_msg; e_loc } ]
  | surface -> (
    match Mir.of_surface surface with
    | Error es -> Error es
    | Ok ir -> Ok (of_tables (Mcodegen.of_ir ir)))

let load_file (path : string) : (t, Mir.error list) result =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  compile ~file:path src
