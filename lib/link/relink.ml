module Pid = Digestkit.Pid
module Diag = Support.Diag

type unit_src = {
  u_name : string;
  u_static_pid : Pid.t;
  u_cu : Codeunit.t;
  u_fingerprint : string;
}

type kind = Null | Epoch_bump

type outcome = { o_kind : kind; o_epoch : int }
type failure = Raised of Dynamics.Value.t | Exited of int

exception Swap_aborted of string
exception Program_failed of { output : string; cause : failure }

(* what an epoch remembers about each linked unit: enough to detect a
   null swap and to diff the unit's exported surface *)
type view = {
  v_name : string;
  v_static_pid : Pid.t;
  v_exports : Pid.t list;
  v_fingerprint : string;
}

(* an epoch keeps what the clean restart printed, not its dynenv:
   nothing reads the values between swaps, and every swap stages from
   the empty dynenv.  Retiring an epoch drops its views and output. *)
type epoch = {
  ep_id : int;
  ep_cause : string;
  ep_units : int;
  mutable ep_views : view list;  (** link order *)
  mutable ep_output : string;  (** what the clean restart printed *)
}

(* retired epoch records kept for inspection *)
let history = 4

type t = {
  mutable epochs : epoch list;  (** newest first; the head is current *)
  mutable swaps_null : int;
  mutable swaps_epoch : int;
  mutable rollbacks : int;
}

type epoch_info = {
  ei_id : int;
  ei_state : string;
  ei_units : int;
  ei_cause : string;
}

type counters = { c_null : int; c_epoch : int; c_rollbacks : int }

let m_swaps = Obs.Metrics.counter "relink.swaps"
let m_rollbacks = Obs.Metrics.counter "relink.rollbacks"

let create () =
  {
    epochs = [];
    swaps_null = 0;
    swaps_epoch = 0;
    rollbacks = 0;
  }

let live t = t.epochs <> []

let current t =
  match t.epochs with
  | ep :: _ -> ep
  | [] -> invalid_arg "Relink: no epoch yet"

let current_epoch t = (current t).ep_id
let replay t ~output = output (current t).ep_output

let epochs t =
  List.mapi
    (fun i ep ->
      {
        ei_id = ep.ep_id;
        ei_state = (if i = 0 then "current" else "retired");
        ei_units = ep.ep_units;
        ei_cause = ep.ep_cause;
      })
    t.epochs

let counters t =
  { c_null = t.swaps_null; c_epoch = t.swaps_epoch; c_rollbacks = t.rollbacks }

(* ------------------------------------------------------------------ *)
(* The swap transaction                                                *)
(* ------------------------------------------------------------------ *)

let seal_error ~unit_name fmt =
  Format.kasprintf
    (fun message ->
      raise
        (Diag.Error
           (Diag.make ~code:"E0801" ~unit_name Diag.Link Support.Loc.dummy
              ("seal-violation: " ^ message))))
    fmt

let exports u = List.map snd u.u_cu.Codeunit.cu_exports

let pid_set pids = List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty pids

(* the staged surface must be exactly the union of the declared export
   interfaces: anything else is an internal binding leaking across the
   swap boundary *)
let check_surface units env =
  let declared = pid_set (List.concat_map exports units) in
  let surface = Pid.Map.fold (fun p _ s -> Pid.Set.add p s) env Pid.Set.empty in
  let leaked = Pid.Set.diff surface declared in
  if not (Pid.Set.is_empty leaked) then
    seal_error
      ~unit_name:(match units with u :: _ -> u.u_name | [] -> "")
      "%d binding(s) beyond the declared export interfaces would leak into \
       the dynenv surface: %s"
      (Pid.Set.cardinal leaked)
      (String.concat ", " (List.map Pid.short (Pid.Set.elements leaked)))

(* a unit whose interface pid did not change must present the same
   exported surface — opaque ascription seals its internals *)
let check_seal ~old_view u =
  let old_set = pid_set old_view.v_exports in
  let new_set = pid_set (exports u) in
  if not (Pid.Set.equal old_set new_set) then
    seal_error ~unit_name:u.u_name
      "interface pid %s is unchanged but the exported surface differs \
       (old: %s; new: %s)"
      (Pid.short u.u_static_pid)
      (String.concat ", " (List.map Pid.short (Pid.Set.elements old_set)))
      (String.concat ", " (List.map Pid.short (Pid.Set.elements new_set)))

(* the clean restart: every unit in link order from the empty dynenv,
   capturing what the program prints *)
let stage units =
  let buf = Buffer.create 256 in
  let failed cause = Program_failed { output = Buffer.contents buf; cause } in
  let env =
    try
      List.fold_left
        (fun env u ->
          Linker.execute ~output:(Buffer.add_string buf) ~unit_name:u.u_name
            u.u_cu env)
        Linker.empty units
    with
    | Dynamics.Eval.Sml_raise packet -> raise (failed (Raised packet))
    | Dynamics.Eval.Sml_exit code -> raise (failed (Exited code))
  in
  (env, Buffer.contents buf)

(* the same units with the same bins in the same link order *)
let unchanged ep units =
  List.compare_lengths ep.ep_views units = 0
  && List.for_all2
       (fun v u ->
         String.equal v.v_name u.u_name
         && String.equal v.v_fingerprint u.u_fingerprint)
       ep.ep_views units

let swap ?on_step ?budget_s ?abort_check t ~units =
  match t.epochs with
  | cur :: _ when unchanged cur units ->
    t.swaps_null <- t.swaps_null + 1;
    Obs.Metrics.incr m_swaps;
    { o_kind = Null; o_epoch = cur.ep_id }
  | prior -> (
    let deadline =
      Option.map (fun b -> (b, Unix.gettimeofday () +. b)) budget_s
    in
    let step name =
      (match abort_check with
      | Some check -> (
        match check () with
        | Some reason -> raise (Swap_aborted reason)
        | None -> ())
      | None -> ());
      (match deadline with
      | Some (budget, at) when Unix.gettimeofday () > at ->
        raise
          (Swap_aborted
             (Printf.sprintf "watchdog: swap exceeded its %.1fs budget" budget))
      | _ -> ());
      match on_step with Some f -> f name | None -> ()
    in
    let old_views = Hashtbl.create 16 in
    (match prior with
    | cur :: _ ->
      List.iter (fun v -> Hashtbl.replace old_views v.v_name v) cur.ep_views
    | [] -> ());
    match
      step "begin";
      step "stage";
      let env, output = stage units in
      step "verify";
      check_surface units env;
      step "seal";
      List.iter
        (fun u ->
          match Hashtbl.find_opt old_views u.u_name with
          | Some v when Pid.equal v.v_static_pid u.u_static_pid ->
            check_seal ~old_view:v u
          | _ -> ())
        units;
      step "commit";
      (* every mutation lives below this line: an abort at any step
         above observes the old epoch untouched *)
      let cause =
        match prior with
        | [] -> "baseline"
        | cur :: _ ->
          let rebuilt =
            List.filter_map
              (fun u ->
                match Hashtbl.find_opt old_views u.u_name with
                | Some v when String.equal v.v_fingerprint u.u_fingerprint ->
                  None
                | _ -> Some u.u_name)
              units
          in
          let removed =
            List.filter_map
              (fun v ->
                if List.exists (fun u -> String.equal u.u_name v.v_name) units
                then None
                else Some v.v_name)
              cur.ep_views
          in
          Printf.sprintf "rebuilt [%s]%s"
            (String.concat ", " rebuilt)
            (if removed = [] then ""
             else Printf.sprintf "; removed [%s]" (String.concat ", " removed))
      in
      let next =
        {
          ep_id = (match prior with cur :: _ -> cur.ep_id + 1 | [] -> 0);
          ep_cause = cause;
          ep_units = List.length units;
          ep_views =
            List.map
              (fun u ->
                {
                  v_name = u.u_name;
                  v_static_pid = u.u_static_pid;
                  v_exports = exports u;
                  v_fingerprint = u.u_fingerprint;
                })
              units;
          ep_output = output;
        }
      in
      List.iter
        (fun ep ->
          ep.ep_views <- [];
          ep.ep_output <- "")
        prior;
      t.epochs <- next :: List.filteri (fun i _ -> i < history) prior;
      t.swaps_epoch <- t.swaps_epoch + 1;
      { o_kind = Epoch_bump; o_epoch = next.ep_id }
    with
    | outcome ->
      Obs.Metrics.incr m_swaps;
      outcome
    | exception exn ->
      t.rollbacks <- t.rollbacks + 1;
      Obs.Metrics.incr m_rollbacks;
      raise exn)
