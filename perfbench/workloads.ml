(* The four workloads.  Each drives the program from outside, through
   its public entry points, in a closed loop with one caller; each has a
   timed mode (end-to-end metrics, no tracing) and a traced mode
   (per-layer metrics from the span recorder and the replay). *)

module Driver = Irm.Driver
module Gen = Workload.Gen

type metric = { name : string; unit_ : string; value : float; samples : int }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** the end-to-end or the per-layer metrics *)
  report : metric list;  (** the workload's own named metrics, for people *)
}

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }
let now = Unix.gettimeofday
let ms s = 1000. *. s

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)
(* ------------------------------------------------------------------ *)

(* every file the benchmark writes lives under this directory of the
   checkout *)
let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* one operation: it fails if it raises or any of its checks is false *)
let attempt t ~what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | true -> ()
  | false ->
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: wrong output: %s\n%!" what
  | exception e ->
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e)

(* Repeat [f] until [seconds] have passed and at least [min_samples]
   ran, but for no more than [cap_s] in all, so a slow commit still
   exits in time. *)
let loop ~seconds ~min_samples f =
  let cap_s = 120. in
  let t0 = now () in
  let n = ref 0 in
  while
    let elapsed = now () -. t0 in
    elapsed < cap_s && (elapsed < seconds || !n < min_samples)
  do
    f !n;
    incr n
  done

(* peak resident set of a process, from /proc *)
let peak_rss_mb pid =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
      | exception End_of_file -> Float.nan
    in
    scan ()

(* Reset this process's peak resident set to its current one, so that
   [peak_rss_mb None] covers what runs after; a no-op where /proc does
   not allow it. *)
let reset_peak_rss () =
  Gc.full_major ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let read_exn (fs : Vfs.fs) path =
  match fs.Vfs.fs_read path with
  | Some s -> s
  | None -> failwith ("perfbench: missing " ^ path)

let install sources =
  let fs = Vfs.memory () in
  List.iter (fun (f, c) -> fs.Vfs.fs_write f c) sources;
  fs

let total_lines sources =
  List.fold_left (fun acc (_, c) -> acc + Replay.count_lines c) 0 sources

let bin_bytes fs files = List.map (fun f -> (f, read_exn fs (f ^ ".bin"))) files

let bin_kib bins =
  float_of_int (List.fold_left (fun acc (_, b) -> acc + String.length b) 0 bins)
  /. 1024.

let clean (st : Driver.stats) = st.Driver.st_failed = [] && st.Driver.st_skipped = []

let build m files = Driver.build m ~policy:Driver.Cutoff ~sources:files

(* [n] set-ups, each timed into [series] with a fresh reference
   measurement before it.  Only the last one's state is kept: each
   earlier state is [release]d and collected before the next set-up
   starts, so no two are alive at once. *)
let timed_setups ?(release = ignore) cal series n f =
  let rec go k =
    Calib.tick ~force:true cal;
    let t0 = now () in
    let v = f k in
    let t1 = now () in
    Calib.record series ~start:t0 ~stop:t1 (t1 -. t0);
    if k + 1 >= n then v
    else begin
      release v;
      Gc.full_major ();
      go (k + 1)
    end
  in
  go 0

(* one timed sample of the workload's operation, in milliseconds;
   [before] runs untimed, after any reference measurement *)
let timed_sample ?(before = ignore) cal series f =
  Calib.tick cal;
  before ();
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  Calib.record series ~start:t0 ~stop:t1 (ms (t1 -. t0));
  v

let tail_report name latency =
  let n = List.length latency in
  [
    metric (name ^ "_p50_ms") "ms" (Stats.percentile latency 50.) ~samples:n;
    metric (name ^ "_p90_ms") "ms" (Stats.percentile latency 90.) ~samples:n;
  ]

(* The end-to-end metrics every workload reports, from the calibrated
   set-up times and operation times; the report gets the raw wall
   times under the workload's own [name] and the reference time. *)
let end_to_end cal ~name ~setups ~latency ~bins ~rss =
  Calib.finish cal;
  let setup_s = Calib.calibrated cal setups in
  let lat = Calib.calibrated cal latency in
  let n = List.length lat in
  ( [
      metric "setup_s" "s" (Stats.median setup_s) ~samples:(List.length setup_s);
      metric "latency_p50_cal_ms" "ms" (Stats.percentile lat 50.) ~samples:n;
      metric "latency_p90_cal_ms" "ms" (Stats.percentile lat 90.) ~samples:n;
      metric "bin_kb" "KiB" bins;
      metric "peak_rss_mb" "MiB" rss;
    ],
    tail_report name (Calib.raw latency)
    @ [
        metric "setup_wall_s" "s" (Stats.median (Calib.raw setups))
          ~samples:(List.length setup_s);
        metric "reference_ms" "ms" (Calib.reference_ms cal)
          ~samples:(List.length cal.Calib.refs);
      ] )

(* ------------------------------------------------------------------ *)
(* Traced mode                                                         *)
(* ------------------------------------------------------------------ *)

(* program counters read around each traced operation *)
let counters =
  [
    "pickle.rehydrations";
    "compile.units";
    "pickle.bytes_read";
    "pickle.bytes_written";
    "build.cutoff_hits";
    "build.recompiled";
  ]

let counter name = Option.value ~default:0 (Obs.Metrics.find name)

type tracer = {
  sp : Spans.t;
  mutable on : bool;  (** the wrapping fs records only inside [traced_op] *)
  rp : Replay.t;
  mutable ops : int;
  deltas : (string, int) Hashtbl.t;
  mutable op_rehydrations : int;  (** bins the last traced operation rehydrated *)
  mutable traced_s : float list;  (** traced operation walls *)
  mutable untraced_s : float list;  (** the same operation, untraced *)
  mutable daemon_server_ms : float list;
  mutable daemon_overhead_ms : float list;
}

let tracer () =
  let sp = Spans.create () in
  {
    sp;
    on = false;
    rp = Replay.create sp;
    ops = 0;
    deltas = Hashtbl.create 8;
    op_rehydrations = 0;
    traced_s = [];
    untraced_s = [];
    daemon_server_ms = [];
    daemon_overhead_ms = [];
  }

(* The wrapping fs record: every operation is a span.  Reads of state
   (read, mtime, list) are [vfs.read]; mutations are [vfs.write].
   Outside a traced operation it only passes calls through. *)
let traced_fs tr (fs : Vfs.fs) =
  let r f x = if tr.on then Spans.with_span tr.sp "vfs.read" (fun () -> f x) else f x in
  let w f x = if tr.on then Spans.with_span tr.sp "vfs.write" (fun () -> f x) else f x in
  {
    Vfs.fs_read = r fs.Vfs.fs_read;
    fs_write = (fun p c -> w (fun () -> fs.Vfs.fs_write p c) ());
    fs_mtime = r fs.Vfs.fs_mtime;
    fs_remove = w fs.Vfs.fs_remove;
    fs_rename = (fun a b -> w (fun () -> fs.Vfs.fs_rename a b) ());
    fs_list = r fs.Vfs.fs_list;
  }

(* One traced operation: a new operation id, the wrapping fs switched
   on, and the program counters read around [f], which runs inside a
   [root] span.  With [paired] its wall time is the traced half of the
   tracing-overhead comparison; an [untraced] call of the same work is
   the other half. *)
let traced_op ?(paired = true) tr ~root f =
  tr.ops <- tr.ops + 1;
  Spans.set_op tr.sp tr.ops;
  let before = List.map counter counters in
  let t0 = now () in
  tr.on <- true;
  let v =
    Fun.protect
      ~finally:(fun () -> tr.on <- false)
      (fun () -> Spans.with_span tr.sp root f)
  in
  if paired then tr.traced_s <- (now () -. t0) :: tr.traced_s;
  List.iter2
    (fun name b ->
      let d = counter name - b in
      if name = "pickle.rehydrations" then tr.op_rehydrations <- d;
      Hashtbl.replace tr.deltas name
        (d + Option.value ~default:0 (Hashtbl.find_opt tr.deltas name)))
    counters before;
  v

(* Replay the traced build just run (see [Replay.build]).  False if a
   replayed compile wrote other bytes than the build manager, or the
   replay rehydrated another number of bins than the manager did: then
   the per-layer figures would not describe the program's work. *)
let replay tr ~manager ~sources ~stats ~bin =
  let reads = tr.rp.Replay.reads and mismatches = tr.rp.Replay.mismatches in
  Replay.build tr.rp ~manager ~sources ~stats ~bin;
  let ok_bytes = tr.rp.Replay.mismatches = mismatches in
  let ok_reads = tr.rp.Replay.reads - reads = tr.op_rehydrations in
  if not ok_bytes then prerr_endline "perfbench: a replayed compile wrote other bytes";
  if not ok_reads then
    Printf.eprintf "perfbench: replay rehydrated %d bins, the build manager %d\n%!"
      (tr.rp.Replay.reads - reads) tr.op_rehydrations;
  ok_bytes && ok_reads

(* The traced half of an overhead pair whose work is no traced
   operation: its spans go to operation 0, which no layer counts. *)
let traced_probe tr f =
  let op = tr.ops in
  Spans.set_op tr.sp 0;
  let t0 = now () in
  tr.on <- true;
  let v =
    Fun.protect
      ~finally:(fun () ->
        tr.on <- false;
        Spans.set_op tr.sp op)
      (fun () -> Spans.with_span tr.sp "probe" f)
  in
  tr.traced_s <- (now () -. t0) :: tr.traced_s;
  v

let untraced tr f =
  let t0 = now () in
  let v = f () in
  tr.untraced_s <- (now () -. t0) :: tr.untraced_s;
  v

let build_layers =
  [
    "depend.scan";
    "lang.parse";
    "statics.elaborate";
    "pickle.hash";
    "lambda.translate";
    "lambda.simplify";
    "pickle.write";
    "pickle.read";
    "vfs.read";
    "vfs.write";
  ]

(** Per-layer metrics of a traced run.  [root] names the span whose
    wall time is the operation's (for [link.execute_share]); [scratch]
    is the replay of the workload's scratch build (IR sizes). *)
let layer_metrics tr ~root ~(scratch : Replay.t) ~spans_path =
  let spans = Spans.spans tr.sp in
  Spans.write spans_path spans;
  let ops = max tr.ops 1 in
  let per_op = float_of_int ops in
  let self = Spans.self_by_name spans in
  let sum = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (op, name) v ->
      if op > 0 then
        Hashtbl.replace sum name (v +. Option.value ~default:0. (Hashtbl.find_opt sum name)))
    self;
  let total name =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.op > 0 && String.equal s.name name then acc +. Spans.duration s else acc)
      0. spans
  in
  let builds = total "irm.build" and roots = total root in
  let vfs_ops =
    List.length
      (List.filter
         (fun (s : Spans.span) -> s.op > 0 && (s.name = "vfs.read" || s.name = "vfs.write"))
         spans)
  in
  let layer name = Option.value ~default:0. (Hashtbl.find_opt sum name) in
  let delta name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tr.deltas name)) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let build_ms = ms builds /. per_op in
  let layers_ms = List.map (fun l -> ms (layer l) /. per_op) build_layers in
  let other_ms = Spans.remainder ~wall:build_ms layers_ms in
  Printf.printf
    "coverage: %d traced builds, wall %.3f ms = layers %.3f ms + irm.build_other %.3f ms\n"
    ops build_ms (List.fold_left ( +. ) 0. layers_ms) other_ms;
  let overhead =
    match (tr.traced_s, tr.untraced_s) with
    | [], _ | _, [] -> 0.
    | t, u -> (Stats.median t /. Stats.median u) -. 1.
  in
  let mean = function [] -> 0. | xs -> Stats.mean xs in
  let m name unit_ v = metric ~samples:ops name unit_ v in
  let layer_ms name = m (name ^ "_ms") "ms" (ms (layer name) /. per_op) in
  [
    layer_ms "lang.parse";
    m "lang.parse_lines_per_s" "lines/s"
      (ratio (float_of_int tr.rp.Replay.lines) (layer "lang.parse"));
    layer_ms "statics.elaborate";
    layer_ms "pickle.hash";
    layer_ms "lambda.translate";
    layer_ms "lambda.simplify";
    layer_ms "pickle.write";
    layer_ms "pickle.read";
    m "pickle.rehydrations_per_compile" "ratio"
      (ratio (delta "pickle.rehydrations") (delta "compile.units"));
    m "pickle.bytes_read_per_build" "bytes" (delta "pickle.bytes_read" /. per_op);
    m "pickle.bytes_written_per_build" "bytes" (delta "pickle.bytes_written" /. per_op);
    m "lambda.ir_nodes" "count" (float_of_int scratch.Replay.ir_after);
    m "lambda.simplify_shrink" "ratio"
      (ratio (float_of_int scratch.Replay.ir_after) (float_of_int scratch.Replay.ir_before));
    layer_ms "depend.scan";
    m "irm.cutoff_hit_rate" "ratio"
      (ratio (delta "build.cutoff_hits") (delta "build.recompiled"));
    m "irm.recompiled_per_build" "count" (delta "build.recompiled" /. per_op);
    m "irm.build_other_ms" "ms" other_ms;
    layer_ms "vfs.read";
    layer_ms "vfs.write";
    m "vfs.ops_per_build" "count" (float_of_int vfs_ops /. per_op);
    layer_ms "link.verify";
    layer_ms "link.execute";
    m "link.execute_share" "ratio" (ratio (total "irm.run") roots);
    metric "daemon.server_ms" "ms" (mean tr.daemon_server_ms)
      ~samples:(List.length tr.daemon_server_ms);
    metric "daemon.overhead_ms" "ms" (mean tr.daemon_overhead_ms)
      ~samples:(List.length tr.daemon_overhead_ms);
    metric "trace.overhead_frac" "ratio" overhead ~samples:(List.length tr.traced_s);
  ]

(* the replay of a scratch build of [sources], for the IR sizes *)
let scratch_replay sources =
  let sp = Spans.create () in
  let rp = Replay.create sp in
  let fs = install sources in
  let m = Driver.create fs in
  let files = List.map fst sources in
  let st = Driver.build m ~policy:Driver.Cutoff ~sources:files in
  Replay.build rp ~manager:Replay.Cold ~sources ~stats:st ~bin:(fun f -> read_exn fs (f ^ ".bin"));
  rp

let spans_path ~workload ~seed =
  mkdir_p work_dir;
  Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)

(* ------------------------------------------------------------------ *)
(* cold-build                                                          *)
(* ------------------------------------------------------------------ *)

let cold_units = 120
let unit_lines = 60

let cold_build ~seed ~seconds ~trace =
  let t = tally () in
  let cal = Calib.create () and setup_times = Calib.series () in
  let dag_seed = Inputs.dag_seed ~seed ~units:cold_units in
  (* set-up: generate the project, then one scratch build, whose bins
     every sample must reproduce byte for byte *)
  let setup _ =
    let gen_fs = Vfs.memory () in
    let g = Inputs.project ~dag_seed ~units:cold_units ~lines:unit_lines gen_fs in
    let files = Gen.sources g in
    let sources = List.map (fun f -> (f, read_exn gen_fs f)) files in
    let fs = install sources in
    ignore (build (Driver.create fs) files);
    (sources, bin_bytes fs files)
  in
  let sources, reference = timed_setups cal setup_times (if trace then 1 else 3) setup in
  let files = List.map fst sources in
  let lines = float_of_int (total_lines sources) in
  (* a real cold build runs in a fresh process: start every sample from
     a collected heap *)
  let cold_sample () =
    let fs = install sources in
    let m = Driver.create fs in
    Gc.full_major ();
    let t0 = now () in
    let st = build m files in
    (t0, now (), st, fs)
  in
  let check (st : Driver.stats) fs =
    clean st
    && List.length st.Driver.st_recompiled = cold_units
    && bin_bytes fs files = reference
  in
  if not trace then begin
    reset_peak_rss ();
    let unit_jobs = Calib.series () and rates = ref [] in
    loop ~seconds ~min_samples:3 (fun _ ->
        attempt t ~what:"cold build" (fun () ->
            Calib.tick cal;
            let start, stop, st, fs = cold_sample () in
            rates := (lines /. (stop -. start)) :: !rates;
            List.iter
              (fun (_, s) -> Calib.record unit_jobs ~start ~stop (ms s))
              st.Driver.st_unit_times;
            check st fs));
    let metrics, report =
      end_to_end cal ~name:"unit_job" ~setups:setup_times ~latency:unit_jobs
        ~bins:(bin_kib reference) ~rss:(peak_rss_mb None)
    in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics;
      report =
        metric "compile_lines_per_s" "lines/s" (Stats.median !rates)
          ~samples:(List.length !rates)
        :: report;
    }
  end
  else begin
    let tr = tracer () in
    let scratch = scratch_replay sources in
    loop ~seconds ~min_samples:2 (fun _ ->
        attempt t ~what:"untraced cold build" (fun () ->
            let fs = install sources in
            let m = Driver.create (traced_fs tr fs) in
            Gc.full_major ();
            let st = untraced tr (fun () -> build m files) in
            check st fs);
        attempt t ~what:"traced cold build" (fun () ->
            let fs = install sources in
            let m = Driver.create (traced_fs tr fs) in
            Gc.full_major ();
            let st = traced_op tr ~root:"irm.build" (fun () -> build m files) in
            let replayed =
              replay tr ~manager:Replay.Cold ~sources ~stats:st
                ~bin:(fun f -> read_exn fs (f ^ ".bin"))
            in
            check st fs && replayed));
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        layer_metrics tr ~root:"irm.build" ~scratch
          ~spans_path:(spans_path ~workload:"cold-build" ~seed);
      report = [];
    }
  end

(* ------------------------------------------------------------------ *)
(* edit-loop                                                           *)
(* ------------------------------------------------------------------ *)

let gen_edit = function
  | Inputs.Null -> None
  | Inputs.Touch -> Some Gen.Touch
  | Inputs.Impl -> Some Gen.Impl_change
  | Inputs.Iface -> Some Gen.Iface_change

let edit_loop ~seed ~seconds ~trace =
  let t = tally () in
  let tr = tracer () in
  (* set-up: generate the project and warm one manager with a scratch
     build; in traced mode the manager sees the store through the
     wrapping fs *)
  let cal = Calib.create () and setup_times = Calib.series () in
  let dag_seed = Inputs.dag_seed ~seed ~units:cold_units in
  let setup _ =
    let fs = Vfs.memory () in
    let g = Inputs.project ~dag_seed ~units:cold_units ~lines:unit_lines fs in
    let files = Gen.sources g in
    let m = Driver.create (if trace then traced_fs tr fs else fs) in
    if not (clean (build m files)) then failwith "perfbench: scratch build failed";
    (fs, g, files, m)
  in
  let fs, g, files, m = timed_setups cal setup_times (if trace then 1 else 3) setup in
  let sources () = List.map (fun f -> (f, read_exn fs f)) files in
  let bin f = read_exn fs (f ^ ".bin") in
  let script = Inputs.edit_script ~seed ~units:(List.length files) in
  let files_a = Array.of_list files in
  (* one edit and the build after it, which [run_build] runs *)
  let edit_and_build run_build =
    let u, kind = script () in
    let file = files_a.(u) in
    let pid_before = (Driver.unit_of m file).Pickle.Binfile.uf_static_pid in
    Option.iter (Gen.edit g file) (gen_edit kind);
    let st = run_build () in
    let pid_after = (Driver.unit_of m file).Pickle.Binfile.uf_static_pid in
    let did = List.mem file st.Driver.st_recompiled in
    let same_pid = Digestkit.Pid.equal pid_before pid_after in
    (* paper section 5: only an interface edit changes the export pid *)
    let ok =
      clean st
      &&
      match kind with
      | Inputs.Null -> st.Driver.st_recompiled = []
      | Inputs.Touch | Inputs.Impl -> did && same_pid
      | Inputs.Iface -> did && not same_pid
    in
    (st, ok)
  in
  (* the incremental result must equal a scratch build of the final
     sources *)
  let final_check () =
    attempt t ~what:"edit-loop bins equal a scratch build" (fun () ->
        let scratch = install (sources ()) in
        clean (build (Driver.create scratch) files)
        && bin_bytes scratch files = bin_bytes fs files)
  in
  if not trace then begin
    (* the bins of the set-up's scratch build, before any edit grows
       the sources *)
    let bins = bin_kib (bin_bytes fs files) in
    reset_peak_rss ();
    let rebuilds = Calib.series () and recompiled = ref [] in
    loop ~seconds ~min_samples:Stats.min_samples_p90 (fun _ ->
        attempt t ~what:"edit + rebuild" (fun () ->
            let st, ok =
              edit_and_build (fun () -> timed_sample cal rebuilds (fun () -> build m files))
            in
            recompiled := float_of_int (List.length st.Driver.st_recompiled) :: !recompiled;
            ok));
    final_check ();
    let metrics, report =
      end_to_end cal ~name:"rebuild" ~setups:setup_times ~latency:rebuilds ~bins
        ~rss:(peak_rss_mb None)
    in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics;
      report =
        report
        @ [
            metric "recompiled_per_edit" "count" (Stats.mean !recompiled)
              ~samples:(List.length !recompiled);
          ];
    }
  end
  else begin
    let scratch = scratch_replay (sources ()) in
    (* the build manager is warm: so is the replay's *)
    Replay.prime tr.rp ~order:(Driver.last_order m) ~bin;
    (* edits differ in cost, so the overhead pairs are null builds *)
    let null_build () =
      let st = build m files in
      clean st && st.Driver.st_recompiled = []
    in
    loop ~seconds ~min_samples:10 (fun _ ->
        attempt t ~what:"traced edit + rebuild" (fun () ->
            let st, ok =
              edit_and_build (fun () ->
                  traced_op ~paired:false tr ~root:"irm.build" (fun () -> build m files))
            in
            (* the replay runs whatever the checks say: it mirrors the
               warm manager from build to build *)
            let replayed = replay tr ~manager:Replay.Warm ~sources:(sources ()) ~stats:st ~bin in
            ok && replayed);
        attempt t ~what:"untraced null build" (fun () -> untraced tr null_build);
        attempt t ~what:"traced null build" (fun () -> traced_probe tr null_build));
    final_check ();
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        layer_metrics tr ~root:"irm.build" ~scratch
          ~spans_path:(spans_path ~workload:"edit-loop" ~seed);
      report = [];
    }
  end

(* ------------------------------------------------------------------ *)
(* run-kernels                                                         *)
(* ------------------------------------------------------------------ *)

let run_kernels ~seed ~seconds ~trace =
  let t = tally () in
  let tr = tracer () in
  let sizes = Inputs.kernel_sizes ~seed in
  let sources = Inputs.kernel_sources sizes in
  let expected = Inputs.kernel_expected sizes in
  let files = List.map fst sources in
  (* set-up: install the kernels, build them from scratch, and run them
     once *)
  let cal = Calib.create () and setup_times = Calib.series () in
  let setup _ =
    let fs = install sources in
    let m = Driver.create fs in
    let st = build m files in
    let out = Buffer.create 64 in
    ignore (Driver.run ~output:(Buffer.add_string out) m ~sources:files);
    if not (clean st && String.equal (Buffer.contents out) expected) then
      failwith "perfbench: the kernels did not build and run";
    fs
  in
  let fs = timed_setups cal setup_times (if trace then 1 else 5) setup in
  let bins = bin_bytes fs files in
  (* one-shot run: restart (fresh manager), null build, run *)
  let oneshot ?(store = fs) ?(traced = false) () =
    let span name f = if traced then Spans.with_span tr.sp name f else f () in
    let out = Buffer.create 64 in
    let m = Driver.create store in
    let st = span "irm.build" (fun () -> build m files) in
    span "irm.run" (fun () -> ignore (Driver.run ~output:(Buffer.add_string out) m ~sources:files));
    (m, st, Buffer.contents out)
  in
  let check (st : Driver.stats) out =
    clean st && st.Driver.st_recompiled = [] && String.equal out expected
  in
  if not trace then begin
    reset_peak_rss ();
    let runs = Calib.series () in
    loop ~seconds ~min_samples:Stats.min_samples_p90 (fun _ ->
        attempt t ~what:"one-shot run" (fun () ->
            (* a one-shot run is a fresh process: start from a collected
               heap *)
            let _, st, out = timed_sample cal runs ~before:Gc.full_major oneshot in
            check st out));
    let metrics, report =
      end_to_end cal ~name:"run" ~setups:setup_times ~latency:runs ~bins:(bin_kib bins)
        ~rss:(peak_rss_mb None)
    in
    { attempted = t.attempted; failed = t.failed; metrics; report }
  end
  else begin
    let scratch = scratch_replay sources in
    let store = traced_fs tr fs in
    loop ~seconds ~min_samples:20 (fun _ ->
        attempt t ~what:"untraced one-shot run" (fun () ->
            Gc.full_major ();
            let _, st, out = untraced tr (fun () -> oneshot ~store ()) in
            check st out);
        attempt t ~what:"traced one-shot run" (fun () ->
            Gc.full_major ();
            let m, st, out =
              traced_op tr ~root:"run.oneshot" (fun () ->
                  oneshot ~store ~traced:true ())
            in
            let replayed_build =
              replay tr ~manager:Replay.Fresh ~sources ~stats:st
                ~bin:(fun f -> List.assoc f bins)
            in
            let replayed = Buffer.create 64 in
            Replay.link tr.rp
              ~units:(List.map (fun f -> (f, Driver.unit_of m f)) (Driver.last_order m))
              ~output:(Buffer.add_string replayed);
            check st out && replayed_build && String.equal (Buffer.contents replayed) expected));
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        layer_metrics tr ~root:"run.oneshot" ~scratch
          ~spans_path:(spans_path ~workload:"run-kernels" ~seed);
      report = [];
    }
  end

(* ------------------------------------------------------------------ *)
(* daemon-null                                                         *)
(* ------------------------------------------------------------------ *)

let daemon_units = 60
let group = "sources.cm"

let build_opts =
  {
    Daemon.Protocol.b_group = group;
    b_policy = "cutoff";
    b_jobs = 1;
    b_cache = false;
    b_keep_going = false;
    b_werror = false;
    b_max_errors = None;
    b_error_json = false;
    b_schedule = "wavefront";
  }

(* daemons still running, killed at exit whatever happens *)
let live_daemons = ref []

let reap pid =
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live_daemons := List.filter (( <> ) pid) !live_daemons

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

(* Fork a daemon serving [dir] (a path relative to the working
   directory, which keeps the socket path short).  The benchmark never
   creates a domain, so forking is allowed. *)
let spawn_daemon dir =
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    try
      let log =
        Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Unix.dup2 log Unix.stdout;
      Unix.dup2 log Unix.stderr;
      Unix.close log;
      let server = Daemon.Server.create (Daemon.Server.default_config ~dir) in
      Daemon.Server.run server;
      Unix._exit 0
    with _ -> Unix._exit 1)
  | pid ->
    live_daemons := pid :: !live_daemons;
    pid

let connect dir pid =
  let deadline = now () +. 30. in
  let rec go () =
    match Daemon.Client.connect ~dir () with
    | Some c -> c
    | None ->
      if now () > deadline then failwith "perfbench: the daemon did not come up";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "perfbench: the daemon exited at startup");
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let shutdown (c, pid) =
  (try ignore (Daemon.Client.request ~timeout_s:30. c Daemon.Protocol.Shutdown)
   with _ -> ());
  Daemon.Client.close c;
  reap pid

(* "N recompiled / M loaded / ... (cutoff policy, serial, T ms)" *)
let parse_summary out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | last :: _ ->
    let recompiled = Scanf.sscanf_opt last "%d recompiled" Fun.id in
    let server_ms =
      match String.rindex_opt last ',' with
      | Some i -> Scanf.sscanf_opt (String.sub last (i + 1) (String.length last - i - 1)) " %f ms)" Fun.id
      | None -> None
    in
    (recompiled, server_ms)
  | [] -> (None, None)

let daemon_null ~seed ~seconds ~trace =
  let t = tally () in
  let tr = tracer () in
  let root = Filename.concat work_dir (Printf.sprintf "daemon-%d-%d" seed (Unix.getpid ())) in
  rm_rf root;
  mkdir_p root;
  let cal = Calib.create () and setup_times = Calib.series () in
  let dag_seed = Inputs.dag_seed ~seed ~units:daemon_units in
  (* set-up: write the project, fork a daemon, and have it build from
     scratch *)
  let setup k =
    let dir = Filename.concat root (string_of_int k) in
    mkdir_p dir;
    let fs = Vfs.real ~dir in
    let g = Inputs.project ~dag_seed ~units:daemon_units ~lines:unit_lines fs in
    let gen_sources = List.map (fun f -> (f, read_exn fs f)) (Gen.sources g) in
    let (probe, probe_src), expected = Inputs.probe_unit gen_sources in
    fs.Vfs.fs_write probe probe_src;
    let sources = gen_sources @ [ (probe, probe_src) ] in
    fs.Vfs.fs_write group (String.concat "\n" (List.map fst sources) ^ "\n");
    let pid = spawn_daemon dir in
    let c = connect dir pid in
    let resp = Daemon.Client.request ~timeout_s:60. c (Daemon.Protocol.Build build_opts) in
    if resp.Daemon.Protocol.r_code <> 0
       || fst (parse_summary resp.Daemon.Protocol.r_out) <> Some (List.length sources)
    then failwith "perfbench: the daemon's scratch build failed";
    (dir, fs, sources, expected, (c, pid))
  in
  (* only the last daemon serves the run *)
  let dir, fs, sources, expected, (c, pid) =
    timed_setups cal setup_times (if trace then 1 else 3) setup
      ~release:(fun (_, _, _, _, d) -> shutdown d)
  in
  let files = List.map fst sources in
  let bins = bin_bytes fs files in
  (* every tenth request is a Run, the others null Builds; the result
     is the server's build time and whether the response was right *)
  let request i =
    let req =
      if i mod 10 = 9 then Daemon.Protocol.Run build_opts else Daemon.Protocol.Build build_opts
    in
    let resp = Daemon.Client.request ~timeout_s:60. c req in
    let out = resp.Daemon.Protocol.r_out in
    match req with
    | Daemon.Protocol.Run _ -> (None, resp.Daemon.Protocol.r_code = 0 && String.equal out expected)
    | _ ->
      let recompiled, server_ms = parse_summary out in
      (server_ms, resp.Daemon.Protocol.r_code = 0 && recompiled = Some 0 && server_ms <> None)
  in
  let finish () =
    let rss = peak_rss_mb (Some pid) in
    shutdown (c, pid);
    rm_rf root;
    rss
  in
  if not trace then begin
    let rtts = Calib.series () and server = ref [] in
    loop ~seconds ~min_samples:Stats.min_samples_p90 (fun i ->
        attempt t ~what:"daemon request" (fun () ->
            let server_ms, ok = timed_sample cal rtts (fun () -> request i) in
            Option.iter (fun s -> server := s :: !server) server_ms;
            ok));
    let rss = finish () in
    let metrics, report =
      end_to_end cal ~name:"request" ~setups:setup_times ~latency:rtts ~bins:(bin_kib bins) ~rss
    in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics;
      report =
        report
        @ [ metric "server_build_p50_ms" "ms" (Stats.median !server) ~samples:(List.length !server) ];
    }
  end
  else begin
    (* the in-process replay of what the daemon does per request: a
       warm manager's null build over the same directory *)
    let m = Driver.create (traced_fs tr (Vfs.real ~dir)) in
    ignore (build m files);
    let scratch = scratch_replay sources in
    Replay.prime tr.rp ~order:(Driver.last_order m) ~bin:(fun f -> List.assoc f bins);
    loop ~seconds ~min_samples:20 (fun i ->
        attempt t ~what:"daemon request" (fun () ->
            let t0 = now () in
            let server_ms, ok = request i in
            let rtt = now () -. t0 in
            Option.iter
              (fun s ->
                tr.daemon_server_ms <- s :: tr.daemon_server_ms;
                tr.daemon_overhead_ms <- (ms rtt -. s) :: tr.daemon_overhead_ms)
              server_ms;
            ok);
        attempt t ~what:"untraced in-process null build" (fun () ->
            let st = untraced tr (fun () -> build m files) in
            clean st && st.Driver.st_recompiled = []);
        attempt t ~what:"traced in-process null build" (fun () ->
            let st = traced_op tr ~root:"irm.build" (fun () -> build m files) in
            let replayed =
              replay tr ~manager:Replay.Warm ~sources ~stats:st
                ~bin:(fun f -> List.assoc f bins)
            in
            clean st && st.Driver.st_recompiled = [] && replayed));
    ignore (finish ());
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        layer_metrics tr ~root:"irm.build" ~scratch
          ~spans_path:(spans_path ~workload:"daemon-null" ~seed);
      report = [];
    }
  end

let all =
  [
    ("cold-build", cold_build);
    ("edit-loop", edit_loop);
    ("run-kernels", run_kernels);
    ("daemon-null", daemon_null);
  ]
