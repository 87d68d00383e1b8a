module Driver = Irm.Driver
module Diag = Support.Diag

type env = {
  fs : Vfs.fs;
  profile : Obs.Profile.t option;
  cache : Cache.ops option;
  backend : Driver.backend option;
}

type built = { sources : string list; stats : Driver.stats }
type kind = Build | Run of (built -> Protocol.response)

let defaults group =
  {
    Protocol.b_group = group;
    b_policy = Driver.policy_name Driver.Cutoff;
    b_jobs = Sched.default_jobs ();
    b_cache = false;
    b_keep_going = false;
    b_werror = false;
    b_max_errors = None;
    b_error_json = false;
    b_schedule = "auto";
  }

let policy name =
  List.find_opt
    (fun p -> Driver.policy_name p = name)
    [ Driver.Cutoff; Driver.Timestamp; Driver.Selective ]

(* [auto]: critical-path once the profile store has a recorded build to
   estimate from, wavefront otherwise (and always without a profile) *)
let schedule profile = function
  | "auto" -> (
    match profile with
    | Some p when Obs.Profile.builds p <> [] -> Some Driver.Critical_path
    | Some _ | None -> Some Driver.Wavefront)
  | name ->
    List.find_opt
      (fun s -> Driver.schedule_name s = name)
      [ Driver.Wavefront; Driver.Critical_path ]

let answer r_code r_out r_err = { Protocol.r_code; r_out; r_err }

let sources fs group =
  let sources = Irm.Group.load fs group in
  if sources = [] then
    Diag.error Diag.Manager Support.Loc.dummy "group file %s lists no sources"
      group;
  sources

let serve ~dir ~env mgr kind (opts : Protocol.build_opts) ~on_diag =
  Lock.with_lock ~dir @@ fun () ->
  let env = env () in
  match (policy opts.b_policy, schedule env.profile opts.b_schedule) with
  | None, _ ->
    (None, answer 2 "" (Printf.sprintf "unknown policy %S\n" opts.b_policy))
  | _, None ->
    (None, answer 2 "" (Printf.sprintf "unknown schedule %S\n" opts.b_schedule))
  | Some policy, Some schedule -> (
    let sources = sources env.fs opts.b_group in
    let backend =
      match env.backend with
      | Some b -> b
      | None -> if opts.b_jobs <= 1 then Driver.Serial else Driver.Parallel opts.b_jobs
    in
    let stats =
      Driver.build ~backend ~schedule ?cache:env.cache ?profile:env.profile
        ~keep_going:opts.b_keep_going ~werror:opts.b_werror
        ?max_errors:opts.b_max_errors mgr ~policy ~sources
    in
    let built = { sources; stats } in
    let diag =
      Irm.Introspect.report_diagnostics ~source_of:env.fs.Vfs.fs_read
        ~json:opts.b_error_json stats
    in
    if opts.b_error_json then on_diag diag.r_out;
    match kind with
    | Build ->
      let listing =
        if opts.b_error_json then "" else Irm.Introspect.build_listing mgr stats
      in
      (Some built, { diag with r_out = listing })
    (* failed or skipped units have no bin to execute *)
    | Run execute when diag.r_code = 0 -> (Some built, execute built)
    | Run _ -> (Some built, { diag with r_out = "" }))

(* a program's own failure: what a one-shot run exits with *)
let program_failure = function
  | Dynamics.Eval.Sml_raise packet ->
    Some
      (answer 1 ""
         (Printf.sprintf "uncaught exception: %s\n"
            (Dynamics.Value.to_string packet)))
  | Dynamics.Eval.Sml_exit code -> Some (answer code "" "")
  | _ -> None

let execute ~output mgr sources =
  match Driver.run ~output mgr ~sources with
  | _ -> answer 0 "" ""
  | exception exn -> (
    match program_failure exn with Some r -> r | None -> raise exn)

let diagnostics ~json ~on_diag ds =
  if json then begin
    on_diag
      (Obs.Json.to_string (Irm.Introspect.diagnostics_envelope ds) ^ "\n");
    answer 1 "" ""
  end
  else
    answer 1 "" (String.concat "" (List.map (fun d -> Diag.to_string d ^ "\n") ds))

let rec of_exn ~diagnostics exn =
  let fail code fmt = Printf.ksprintf (answer code "") fmt in
  match program_failure exn with
  | Some r -> r
  | None -> (
    match exn with
    (* a failing cleanup, such as writing --trace's file *)
    | Fun.Finally_raised exn -> of_exn ~diagnostics exn
    | Diag.Error d -> diagnostics [ d ]
    | Diag.Errors ds -> diagnostics ds
    | Pickle.Buf.Corrupt msg ->
      diagnostics [ Diag.make Diag.Pickle Support.Loc.dummy msg ]
    | Lock.Held { lock_path; holder } ->
      fail 1
        "the build lock %s is held by pid %s — another build (or the daemon) \
         is running in this directory; retry when it finishes\n"
        lock_path holder
    | Vfs.Crash { crash_op; crash_path } ->
      fail 3
        "simulated crash during %s of %s — on-disk state is safe; rerun \
         (optionally `irm recover`) to converge\n"
        crash_op crash_path
    | Vfs.Fault { fault_op; fault_path; _ } ->
      fail 1 "injected fault persisted: %s of %s failed\n" fault_op fault_path
    | Sys_error msg -> fail 1 "%s\n" msg
    | Remote.Pool.Pool_down msg ->
      fail 4 "build aborted: the compile worker pool died entirely (%s)\n" msg
    | _ -> raise exn)

let guard ~json ~on_diag f =
  match f () with
  | r -> r
  | exception exn -> of_exn ~diagnostics:(diagnostics ~json ~on_diag) exn
