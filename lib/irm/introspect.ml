module P = Obs.Profile

type rendered = { r_code : int; r_out : string; r_err : string }

let no_builds =
  {
    r_out = "";
    r_err = "no recorded builds: run `irm build` (without --no-profile) first\n";
    r_code = 1;
  }

(* units of the last build that [unit_] dragged along: dependents whose
   recorded cause blames it, and units skipped because it failed *)
let poisoned_by b unit_ =
  List.filter_map
    (fun v ->
      if String.equal v.P.up_unit unit_ then None
      else if List.exists (String.equal unit_) v.P.up_culprits then
        Some
          ( v.P.up_unit,
            if String.equal v.P.up_outcome "skipped" then "skipped"
            else Option.value ~default:"rebuilt" v.P.up_cause )
      else None)
    b.P.bp_units

let opt_json of_value = function
  | Some v -> of_value v
  | None -> Obs.Json.Null

let history_json = function
  | None -> Obs.Json.Null
  | Some a ->
    Obs.Json.Obj
      [
        ("builds", Obs.Json.Int a.P.ag_builds);
        ("ewma_s", Obs.Json.Float a.P.ag_ewma_s);
        ("max_s", Obs.Json.Float a.P.ag_max_s);
        ("last_s", Obs.Json.Float a.P.ag_last_s);
        ( "phases",
          Obs.Json.Obj
            (List.map (fun (n, s) -> (n, Obs.Json.Float s)) a.P.ag_phases) );
      ]

let diagnostics_envelope ?(failed = []) ?(skipped = []) diags =
  Obs.Json.Obj
    [
      ("version", Obs.Json.String "smlsep-diag/1");
      ("failed", Obs.Json.List (List.map (fun f -> Obs.Json.String f) failed));
      ("skipped", Obs.Json.List (List.map (fun f -> Obs.Json.String f) skipped));
      ("diagnostics", Obs.Json.List (List.map Driver.diag_json diags));
    ]

let build_listing mgr stats =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun file ->
      match Driver.outcome_of stats file with
      | ("failed" | "skipped") as outcome ->
        pr "%-24s %s  [%s]\n" file (String.make 8 '-') outcome
      | outcome ->
        let unit_ = Driver.interface_of mgr file in
        let tag =
          match outcome with
          | "cutoff" -> "recompiled (interface unchanged)"
          | "loaded" -> "up to date"
          | "cache" -> "from cache"
          | other -> other
        in
        pr "%-24s %s  [%s]\n" file
          (Digestkit.Pid.short unit_.Pickle.Binfile.uf_static_pid)
          tag)
    stats.Driver.st_order;
  pr "%s\n" (Driver.summary_line stats);
  Buffer.contents buf

let report_diagnostics ~source_of ~json stats =
  let failed = stats.Driver.st_failed in
  let skipped = stats.Driver.st_skipped in
  let code = if failed = [] && skipped = [] then 0 else 1 in
  if json then
    {
      r_out =
        Obs.Json.to_string
          (diagnostics_envelope ~failed:(List.map fst failed)
             ~skipped:(List.map fst skipped)
             (List.concat_map snd failed))
        ^ "\n";
      r_err = "";
      r_code = code;
    }
  else
    let buf = Buffer.create 256 in
    List.iter
      (fun (_, ds) ->
        List.iter
          (fun d ->
            Buffer.add_string buf
              (Format.asprintf "%a" (Support.Diag.render ~source_of) d))
          ds)
      failed;
    List.iter
      (fun (file, culprit) ->
        Buffer.add_string buf
          (Printf.sprintf "%s: skipped: dependency %s failed\n" file culprit))
      skipped;
    { r_code = code; r_out = ""; r_err = Buffer.contents buf }

let explain p ~unit_name ~json =
  match P.last p with
  | None -> no_builds
  | Some b -> (
    match P.find_unit b unit_name with
    | None ->
      {
        r_out = "";
        r_err =
          Printf.sprintf
            "unit %s is not part of the last recorded build (build %d)\n"
            unit_name b.P.bp_id;
        r_code = 1;
      }
    | Some u ->
      let poisoned = poisoned_by b unit_name in
      let agg = P.aggregate p unit_name in
      if json then
        {
          r_out =
            Obs.Json.to_canonical_string
              (Obs.Json.Obj
                 [
                   ("version", Obs.Json.String "smlsep-profile/1");
                   ("unit", Obs.Json.String unit_name);
                   ("build", Obs.Json.Int b.P.bp_id);
                   ("policy", Obs.Json.String b.P.bp_policy);
                   ("outcome", Obs.Json.String u.P.up_outcome);
                   ("cause", opt_json (fun c -> Obs.Json.String c) u.P.up_cause);
                   ( "culprits",
                     Obs.Json.List
                       (List.map (fun c -> Obs.Json.String c) u.P.up_culprits)
                   );
                   ("wall_s", Obs.Json.Float u.P.up_wall_s);
                   ( "phases",
                     Obs.Json.Obj
                       (List.map
                          (fun (n, s) -> (n, Obs.Json.Float s))
                          u.P.up_phases) );
                   ( "imports",
                     Obs.Json.Obj
                       (List.map
                          (fun (d, pid) -> (d, Obs.Json.String pid))
                          u.P.up_imports) );
                   ( "poisoned",
                     Obs.Json.List
                       (List.map
                          (fun (n, via) ->
                            Obs.Json.Obj
                              [
                                ("unit", Obs.Json.String n);
                                ("via", Obs.Json.String via);
                              ])
                          poisoned) );
                   ("history", history_json agg);
                 ])
            ^ "\n";
          r_err = "";
          r_code = 0;
        }
      else begin
        let buf = Buffer.create 256 in
        let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        pr "%s  (build %d, %s policy, %s)\n" unit_name b.P.bp_id b.P.bp_policy
          b.P.bp_backend;
        pr "  outcome   %s\n" u.P.up_outcome;
        (match u.P.up_cause with
        | Some c ->
          pr "  cause     %s%s\n" c
            (match u.P.up_culprits with
            | [] -> ""
            | cs -> "  (" ^ String.concat ", " cs ^ ")")
        | None -> pr "  cause     up to date\n");
        pr "  wall      %.2f ms\n" (1000. *. u.P.up_wall_s);
        (match u.P.up_phases with
        | [] -> ()
        | phases ->
          pr "  phases    %s\n"
            (String.concat ", "
               (List.map
                  (fun (n, s) -> Printf.sprintf "%s %.2f ms" n (1000. *. s))
                  phases)));
        (match agg with
        | Some a ->
          pr "  history   %d compiles, ewma %.2f ms, max %.2f ms\n"
            a.P.ag_builds
            (1000. *. a.P.ag_ewma_s)
            (1000. *. a.P.ag_max_s)
        | None -> ());
        (match poisoned with
        | [] -> pr "  poisoned  nothing\n"
        | ps ->
          pr "  poisoned  %s\n"
            (String.concat ", "
               (List.map (fun (n, via) -> Printf.sprintf "%s (%s)" n via) ps)));
        { r_out = Buffer.contents buf; r_err = ""; r_code = 0 }
      end)

let profile_envelope p b ~top =
  let open Obs.Json in
  let count outcome =
    List.length
      (List.filter (fun u -> String.equal u.P.up_outcome outcome) b.P.bp_units)
  in
  let causes =
    List.fold_left
      (fun acc u ->
        match u.P.up_cause with
        | None -> acc
        | Some c -> (
          match List.assoc_opt c acc with
          | Some n -> (c, n + 1) :: List.remove_assoc c acc
          | None -> (c, 1) :: acc))
      [] b.P.bp_units
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let compiled =
    List.filter
      (fun u ->
        String.equal u.P.up_outcome "recompiled"
        || String.equal u.P.up_outcome "cutoff")
      b.P.bp_units
  in
  let top_units =
    List.filteri
      (fun i _ -> i < top)
      (List.sort (fun a b -> compare b.P.up_wall_s a.P.up_wall_s) compiled)
  in
  let unit_brief u =
    Obj [ ("unit", String u.P.up_unit); ("wall_s", Float u.P.up_wall_s) ]
  in
  let unit_json u =
    Obj
      [
        ("unit", String u.P.up_unit);
        ("outcome", String u.P.up_outcome);
        ("cause", opt_json (fun c -> String c) u.P.up_cause);
        ("culprits", List (List.map (fun c -> String c) u.P.up_culprits));
        ("wall_s", Float u.P.up_wall_s);
        ("priority", Float u.P.up_priority);
        ("phases", Obj (List.map (fun (n, s) -> (n, Float s)) u.P.up_phases));
      ]
  in
  ( causes,
    top_units,
    Obj
      [
        ("version", String "smlsep-profile/1");
        ( "build",
          Obj
            [
              ("id", Int b.P.bp_id);
              ("policy", String b.P.bp_policy);
              ("backend", String b.P.bp_backend);
              ("wall_s", Float b.P.bp_wall_s);
              ("jobs", Int b.P.bp_jobs);
              ("schedule", String b.P.bp_schedule);
              ("efficiency", opt_json (fun e -> Float e) (P.efficiency b));
              ( "counts",
                Obj
                  [
                    ("recompiled", Int (count "recompiled"));
                    ("cutoff", Int (count "cutoff"));
                    ("cache", Int (count "cache"));
                    ("loaded", Int (count "loaded"));
                    ("failed", Int (count "failed"));
                    ("skipped", Int (count "skipped"));
                  ] );
            ] );
        ("causes", Obj (List.map (fun (c, n) -> (c, Int n)) causes));
        ("critical_path", List (List.map unit_brief (P.critical_path b)));
        ("top", List (List.map unit_brief top_units));
        ("units", List (List.map unit_json b.P.bp_units));
        ( "store",
          Obj
            [
              ("builds", Int (List.length (P.builds p)));
              ("bytes", Int (P.store_bytes p));
            ] );
      ] )

let profile_report p ~json ~top =
  match P.last p with
  | None -> no_builds
  | Some b ->
    let causes, top_units, envelope = profile_envelope p b ~top in
    if json then
      { r_out = Obs.Json.to_canonical_string envelope ^ "\n"; r_err = ""; r_code = 0 }
    else begin
      let buf = Buffer.create 256 in
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pr "build %d  (%s policy, %s, %.1f ms wall, %d jobs, %s schedule)\n"
        b.P.bp_id b.P.bp_policy b.P.bp_backend
        (1000. *. b.P.bp_wall_s)
        b.P.bp_jobs b.P.bp_schedule;
      (match P.efficiency b with
      | Some e -> pr "  efficiency     %.0f%% of slot time busy\n" (100. *. e)
      | None -> ());
      (match causes with
      | [] -> pr "  causes         nothing rebuilt\n"
      | cs ->
        pr "  causes         %s\n"
          (String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) cs)));
      (match P.critical_path b with
      | [] -> ()
      | path ->
        pr "  critical path  %s  (%.2f ms)\n"
          (String.concat " -> " (List.map (fun u -> u.P.up_unit) path))
          (1000. *. List.fold_left (fun acc u -> acc +. u.P.up_wall_s) 0. path));
      if top_units <> [] then begin
        pr "  slowest units:\n";
        List.iter
          (fun u ->
            pr "    %-28s %8.2f ms\n" u.P.up_unit (1000. *. u.P.up_wall_s))
          top_units
      end;
      pr "  store          %d builds retained, %d bytes\n"
        (List.length (P.builds p))
        (P.store_bytes p);
      { r_out = Buffer.contents buf; r_err = ""; r_code = 0 }
    end
