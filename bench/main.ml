(* Benchmark harness: regenerates every measured claim of the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured).

   Experiments:
     E1  figure 1: functor elaboration cost          (bechamel)
     E2  section 3 worked example                    (golden walkthrough)
     E3  hash+pickle overhead vs compile time        (project-scale timing)
     E4  pid collision probabilities                 (analytic + empirical)
     E5  cutoff vs timestamp recompilation counts    (table)
     E6  sharing preservation in pickled envs        (table)
     E7  statenv representation census               (table)
     E8  intrinsic-pid invariance under edit classes (counts)
     E9  IRM build latency: null/touch/impl/iface    (timing)
     E10 simplifier ablation: code sizes            (table)
     E11 alpha-conversion ablation                  (counts)
     E12 executor on fib, sort, closure churn       (bechamel)
     E13 parallel build speedup over domains        (timing)
     E14 unit-cache hit rates, warm-from-clean      (timing + counts)
     E15 atomic-commit overhead vs raw writes       (timing)
     E16 keep-going/diagnostics overhead, clean DAG (timing)
     E17 worker-backend overhead vs in-process domains (timing + counts)
     E18 observability overhead on a clean parallel build (timing)
     E19 compile server: warm vs cold rebuilds, client throughput (timing)
     E20 critical-path scheduling vs wavefront: synthetic DAGs, real builds (timing)
     E21 distributed fabric: remote executors + shared cache (timing + counts)
     E22 live-relink swap latency vs full restart (timing)
*)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Pid = Digestkit.Pid
module J = Obs.Json

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_sepcomp.json                        *)
(*                                                                     *)
(* Schema (see README, "Observability"):                               *)
(*   { "schema": "smlsep-bench/13", "quick": bool,                     *)
(*     "experiments": {                                                *)
(*       "build_times":      [{scale,units,lines,policy,build_s,       *)
(*                             hash_s,dehydrate_s,rehydrate_s,         *)
(*                             overhead_ratio}],                       *)
(*       "rehydration_share": [{units,decodes,decode_ms,rehydrations,  *)
(*                             rehydrate_ms,jobs_ms,share}],           *)
(*       "recompile_counts": [{topology,edit,policy,recompiled,        *)
(*                             cutoff_hits,total,cutoff_hit_rate}],    *)
(*       "build_latency":    [{scenario,policy,median_s,recompiled}],  *)
(*       "pickle_sizes":     [{depth,bytes}],                          *)
(*       "parallel_speedup": [{units,lines,width,cores,jobs,serial_s,  *)
(*                             parallel_s,speedup}],                   *)
(*       "cache_hit_rate":   [{scenario,units,recompiled,cache_hits,   *)
(*                             hit_rate,wall_s}],                      *)
(*       "atomic_overhead":  [{group,units,reps,raw_s,atomic_s,        *)
(*                             overhead_ratio}],                       *)
(*       "keepgoing_overhead": [{topology,units,reps,failfast_s,       *)
(*                             keepgoing_s,overhead_ratio}],           *)
(*       "worker_overhead":  [{units,lines,jobs,workers_s,domains_s,   *)
(*                             overhead_ratio,spawns,ipc_bytes_out,    *)
(*                             ipc_bytes_in}],                         *)
(*       "compile_server":   [{scenario,units,lines,cold_s,warm_s,     *)
(*                             speedup} | {scenario,clients,requests,  *)
(*                             wall_s,requests_per_s}],                *)
(*       "critical_path":    [{scenario,nodes,jobs,wavefront_s,        *)
(*                             critical_path_s,improvement,            *)
(*                             wavefront_eff,critical_path_eff} |      *)
(*                            {scenario,units,jobs,serial_s,           *)
(*                             wavefront_s,critical_path_s,            *)
(*                             improvement}],                          *)
(*       "remote_fabric":    [{scenario,execs,units,wall_s,speedup} |  *)
(*                            {scenario,phase,units,cache_hits,        *)
(*                             hit_rate,wall_s} |                      *)
(*                            {scenario,units,serial_s,degraded_s,     *)
(*                             overhead_ratio}],                       *)
(*       "hot_swap":         [{edit,units,swap_s,restart_s,            *)
(*                             speedup}] },                            *)
(*     "metrics": { <Obs.Metrics counters> } }                         *)
(* ------------------------------------------------------------------ *)

let quick = ref false
let out_path = ref "BENCH_sepcomp.json"

let tbl_build_times : J.t list ref = ref []
let tbl_recompile : J.t list ref = ref []
let tbl_latency : J.t list ref = ref []
let tbl_pickle_sizes : J.t list ref = ref []
let tbl_parallel : J.t list ref = ref []
let tbl_cache : J.t list ref = ref []
let tbl_atomic : J.t list ref = ref []
let tbl_keepgoing : J.t list ref = ref []
let tbl_worker : J.t list ref = ref []
let tbl_obs : J.t list ref = ref []
let tbl_server : J.t list ref = ref []
let tbl_sched : J.t list ref = ref []
let tbl_fabric : J.t list ref = ref []
let tbl_swap : J.t list ref = ref []
let tbl_rehydration : J.t list ref = ref []

let record tbl row = tbl := row :: !tbl

let write_results () =
  let doc =
    J.Obj
      [
        ("schema", J.String "smlsep-bench/13");
        ("quick", J.Bool !quick);
        ( "experiments",
          J.Obj
            [
              ("build_times", J.List (List.rev !tbl_build_times));
              ("rehydration_share", J.List (List.rev !tbl_rehydration));
              ("recompile_counts", J.List (List.rev !tbl_recompile));
              ("build_latency", J.List (List.rev !tbl_latency));
              ("pickle_sizes", J.List (List.rev !tbl_pickle_sizes));
              ("parallel_speedup", J.List (List.rev !tbl_parallel));
              ("cache_hit_rate", J.List (List.rev !tbl_cache));
              ("atomic_overhead", J.List (List.rev !tbl_atomic));
              ("keepgoing_overhead", J.List (List.rev !tbl_keepgoing));
              ("worker_overhead", J.List (List.rev !tbl_worker));
              ("observability_overhead", J.List (List.rev !tbl_obs));
              ("compile_server", J.List (List.rev !tbl_server));
              ("critical_path", J.List (List.rev !tbl_sched));
              ("remote_fabric", J.List (List.rev !tbl_fabric));
              ("hot_swap", J.List (List.rev !tbl_swap));
            ] );
        ("metrics", Obs.Metrics.to_json ());
      ]
  in
  let oc = open_out_bin !out_path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out_path

(* ------------------------------------------------------------------ *)
(* Bechamel wrapper                                                    *)
(* ------------------------------------------------------------------ *)

let run_bechamel ~name cases =
  let open Bechamel in
  let tests =
    List.map (fun (n, f) -> Test.make ~name:n (Staged.stage f)) cases
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun test_name ols acc -> (test_name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (test_name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      Printf.printf "  %-44s %12.0f ns/run\n" test_name ns)
    rows

(* wall-clock timing for project-scale flows; median of [n] runs *)
let time_median ?n f =
  let n = match n with Some n -> n | None -> if !quick then 1 else 3 in
  let samples =
    List.init n (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  List.nth (List.sort compare samples) (n / 2)

(* ------------------------------------------------------------------ *)
(* E1: figure 1 — functor elaboration                                  *)
(* ------------------------------------------------------------------ *)

let figure1_source =
  "signature PARTIAL_ORDER = sig type elem val less : elem * elem -> bool \
   end\n\
   signature SORT = sig type t val sort : t list -> t list end\n\
   functor TopSort (P : PARTIAL_ORDER) : SORT = struct\n\
   type t = P.elem\n\
   fun insert (x, nil) = [x]\n\
  \  | insert (x, y :: ys) = if P.less (x, y) then x :: y :: ys else y :: \
   insert (x, ys)\n\
   fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
   end\n\
   structure Factors : PARTIAL_ORDER = struct type elem = int fun less (i, \
   j) = j mod i = 0 end\n\
   structure FSort : SORT = TopSort(Factors)"

let e1 () =
  section "E1: figure 1 — transparent functor application (paper fig. 1)";
  (* correctness first: FSort.t = int must propagate *)
  let session = Sepcomp.Compile.new_session () in
  let unit_ =
    Sepcomp.Compile.compile session ~name:"fig1.sml" ~source:figure1_source
      ~imports:[]
  in
  Printf.printf "figure 1 compiles; interface pid %s\n"
    (Pid.short unit_.Pickle.Binfile.uf_static_pid);
  let repl = Sepcomp.Interactive.create ~output:ignore () in
  let dynenv = Sepcomp.Compile.execute unit_ Link.Linker.empty in
  Sepcomp.Interactive.use repl unit_ dynenv;
  let outcome = Sepcomp.Interactive.eval repl "FSort.sort [6, 2, 3]" in
  List.iter
    (fun line -> Printf.printf "transparent propagation: %s\n" line)
    outcome.Sepcomp.Interactive.bindings;
  run_bechamel ~name:"e1"
    [
      ( "compile figure-1 unit",
        fun () ->
          let s = Sepcomp.Compile.new_session () in
          ignore
            (Sepcomp.Compile.compile s ~name:"fig1.sml" ~source:figure1_source
               ~imports:[]) );
      ( "parse figure-1 unit",
        fun () -> ignore (Lang.Parser.parse_unit ~file:"fig1.sml" figure1_source)
      );
    ]

(* ------------------------------------------------------------------ *)
(* E2: section 3 worked example                                        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: section 3 worked example (val a = x+y; val b = x+2*z)";
  (* The paper's source has top-level vals; units carry modules, so the
     environment { x=3, y=4, z=5 } becomes a structure, as does the
     dependent { a, b }. *)
  let session = Sepcomp.Compile.new_session () in
  let env_unit =
    Sepcomp.Compile.compile session ~name:"env.sml"
      ~source:"structure Env = struct val x = 3 val y = 4 val z = 5 end"
      ~imports:[]
  in
  let ab_unit =
    Sepcomp.Compile.compile session ~name:"ab.sml"
      ~source:
        "structure AB = struct val a = Env.x + Env.y val b = Env.x + 2 * \
         Env.z end"
      ~imports:[ env_unit ]
  in
  let cu = ab_unit.Pickle.Binfile.uf_codeunit in
  Printf.printf "imports (paper: [pid_x; pid_y; pid_z], here per-module): %d pid(s)\n"
    (List.length cu.Link.Codeunit.cu_imports);
  Printf.printf "exports (paper: [pid_a; pid_b], here the AB module): %s\n"
    (String.concat ", "
       (List.map
          (fun (n, p) -> Support.Symbol.name n ^ "@" ^ Pid.short p)
          cu.Link.Codeunit.cu_exports));
  let dynenv = Sepcomp.Compile.execute env_unit Link.Linker.empty in
  let dynenv = Sepcomp.Compile.execute ab_unit dynenv in
  let _, pid = List.hd cu.Link.Codeunit.cu_exports in
  (match Pid.Map.find pid dynenv with
  | Dynamics.Value.Vrecord fields ->
    let get name =
      match Support.Symbol.Map.find (Support.Symbol.intern name) fields with
      | Dynamics.Value.Vint n -> n
      | _ -> assert false
    in
    Printf.printf "execution: a = %d (paper: 7), b = %d (paper: 13)\n" (get "a")
      (get "b")
  | _ -> assert false);
  run_bechamel ~name:"e2"
    [
      ( "compile+link+execute the two units",
        fun () ->
          let s = Sepcomp.Compile.new_session () in
          let e =
            Sepcomp.Compile.compile s ~name:"env.sml"
              ~source:"structure Env = struct val x = 3 val y = 4 val z = 5 end"
              ~imports:[]
          in
          let ab =
            Sepcomp.Compile.compile s ~name:"ab.sml"
              ~source:
                "structure AB = struct val a = Env.x + Env.y val b = Env.x + \
                 2 * Env.z end"
              ~imports:[ e ]
          in
          let d = Sepcomp.Compile.execute e Link.Linker.empty in
          ignore (Sepcomp.Compile.execute ab d) );
    ]

(* ------------------------------------------------------------------ *)
(* E3: hash + dehydrate/rehydrate overhead vs compilation              *)
(* ------------------------------------------------------------------ *)

(* The cold build's closure rehydration, from the program's own
   records: every compile job rehydrates the static views of its whole
   import closure, and reports the time in its own [rehydrate] phase
   (kept by the profile store).  The manager decodes each bin once, in
   a [pickle.read] span, and in-process jobs rehydrate those decodes,
   so the spans count bins parsed, not views rehydrated.  The project
   is perfbench's cold-build project for seed 1: 120 rich units of
   about 60 lines, whose DAG the benchmark draws as Random_dag seed
   514957165. *)
let e3_rehydration_share () =
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units = 120; max_deps = 3; seed = 514957165 })
      (Gen.sized_profile ~lines:60)
  in
  let sources = Gen.sources project in
  let texts = List.map (fun f -> (f, Option.get (fs.Vfs.fs_read f))) sources in
  let counter name = Option.value ~default:0 (Obs.Metrics.find name) in
  let traced_build () =
    let fs = Vfs.memory () in
    List.iter (fun (f, text) -> fs.Vfs.fs_write f text) texts;
    let mgr = Driver.create fs in
    let profile = Obs.Profile.load fs in
    let rehydrations = counter "pickle.rehydrations" in
    Gc.full_major ();
    Obs.Trace.enable ();
    ignore (Driver.build ~profile mgr ~policy:Driver.Cutoff ~sources);
    Obs.Trace.disable ();
    let rehydrations = counter "pickle.rehydrations" - rehydrations in
    let events = Obs.Trace.events () in
    Obs.Trace.reset ();
    let named name = List.filter (fun e -> e.Obs.Trace.ev_name = name) events in
    let total = List.fold_left (fun ms e -> ms +. (e.Obs.Trace.ev_dur_us /. 1000.)) 0. in
    let decodes = named "pickle.read" in
    let rehydrate_ms =
      List.fold_left
        (fun ms u ->
          ms
          +. 1000.
             *. Option.value ~default:0.
                  (List.assoc_opt "rehydrate" u.Obs.Profile.up_phases))
        0.
        (Option.get (Obs.Profile.last profile)).Obs.Profile.bp_units
    in
    ( List.length decodes,
      total decodes,
      rehydrations,
      rehydrate_ms,
      total (named "build.compile_job") )
  in
  let runs = List.init (if !quick then 1 else 5) (fun _ -> traced_build ()) in
  let median f = List.nth (List.sort compare (List.map f runs)) (List.length runs / 2) in
  let decodes, _, rehydrations, _, _ = List.hd runs in
  let decode_ms = median (fun (_, ms, _, _, _) -> ms)
  and rehydrate_ms = median (fun (_, _, _, ms, _) -> ms)
  and jobs_ms = median (fun (_, _, _, _, ms) -> ms)
  and share = median (fun (_, _, _, r, j) -> r /. j) in
  record tbl_rehydration
    (J.Obj
       [
         ("units", J.Int (List.length sources));
         ("decodes", J.Int decodes);
         ("decode_ms", J.Float decode_ms);
         ("rehydrations", J.Int rehydrations);
         ("rehydrate_ms", J.Float rehydrate_ms);
         ("jobs_ms", J.Float jobs_ms);
         ("share", J.Float share);
       ]);
  Printf.printf
    "cold build    %4d units | pickle.read %4d decodes %7.1f ms | %4d \
     rehydrations, jobs' rehydrate phase %7.1f ms of %7.1f ms summed job \
     time = %4.1f%%\n"
    (List.length sources) decodes decode_ms rehydrations rehydrate_ms jobs_ms
    (100. *. share)

let e3 () =
  section "E3: hash + pickle overhead relative to compilation (paper sec. 6)";
  (* the paper's workload is 65k lines over ~200 units (~325 lines per
     unit); we sweep unit sizes towards that shape *)
  let scales =
    if !quick then [ (30, 40, "small") ]
    else [ (30, 40, "small"); (60, 120, "medium"); (48, 330, "paper-shaped") ]
  in
  List.iter
    (fun (units, lines_per_unit, label) ->
      let fs = Vfs.memory () in
      let project =
        Gen.create fs
          (Gen.Random_dag { units; max_deps = 4; seed = 7 })
          (Gen.sized_profile ~lines:lines_per_unit)
      in
      let sources = Gen.sources project in
      let lines = Gen.total_lines project in
      (* full build from scratch, repeatedly *)
      let build_time =
        time_median (fun () ->
            List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
            let mgr = Driver.create fs in
            ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources))
      in
      (* isolate hashing, pickling and unpickling over the built units *)
      let mgr = Driver.create fs in
      ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
      let session = Driver.session mgr in
      let ctx = Sepcomp.Compile.context session in
      let units_built = List.map (Driver.unit_of mgr) sources in
      let hash_time =
        time_median (fun () ->
            List.iter
              (fun (u : Pickle.Binfile.t) ->
                ignore
                  (Pickle.Hashenv.verify ctx ~name_statics:u.uf_name_statics
                     u.uf_env))
              units_built)
      in
      (* the paper measures dehydration/rehydration of the *static
         environment* (machine code writing is ordinary compilation
         output); serialize just the statenv both ways *)
      let dehydrate (u : Pickle.Binfile.t) =
        let w = Pickle.Buf.writer () in
        Pickle.Serial.write_env w ctx
          ~token:(Pickle.Serial.exported_token ~self:u.uf_static_pid)
          ~with_addrs:true u.uf_env;
        (u.uf_static_pid, Pickle.Buf.contents w)
      in
      let pickle_time =
        time_median (fun () -> List.iter (fun u -> ignore (dehydrate u)) units_built)
      in
      let envs = List.map dehydrate units_built in
      let unpickle_time =
        time_median (fun () ->
            List.iter
              (fun (self, bytes) ->
                ignore (Pickle.Serial.read_env (Pickle.Buf.reader bytes) ~self))
              envs)
      in
      let overhead = hash_time +. pickle_time +. unpickle_time in
      record tbl_build_times
        (J.Obj
           [
             ("scale", J.String label);
             ("units", J.Int units);
             ("lines", J.Int lines);
             ("policy", J.String (Driver.policy_name Driver.Cutoff));
             ("build_s", J.Float build_time);
             ("hash_s", J.Float hash_time);
             ("dehydrate_s", J.Float pickle_time);
             ("rehydrate_s", J.Float unpickle_time);
             ("overhead_ratio", J.Float (overhead /. build_time));
           ]);
      Printf.printf
        "%-13s %4d units %6d lines | compile %7.3fs  hash %7.4fs  dehydrate \
         %7.4fs  rehydrate %7.4fs | overhead/compile = %5.2f%% (paper: ~1%%)\n"
        label units lines build_time hash_time pickle_time unpickle_time
        (100. *. overhead /. build_time))
    scales;
  e3_rehydration_share ()

(* ------------------------------------------------------------------ *)
(* E4: pid collision probabilities                                     *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: pid collision probability (paper sec. 5: 2^13 pids, 2^-102)";
  (* analytic birthday bound: P ≈ n(n-1)/2 · 2^-b *)
  let n = 8192. (* 2^13, the paper's figure *) in
  Printf.printf "analytic, n = 2^13 pids:\n";
  List.iter
    (fun bits ->
      let log2p =
        (Float.log2 (n *. (n -. 1.) /. 2.)) -. float_of_int bits
      in
      Printf.printf "  %3d-bit pids: P(collision) = 2^%.1f\n" bits log2p)
    [ 16; 32; 64; 128 ];
  (* empirical with truncated pids: expected collisions C(n,2)/2^b *)
  Printf.printf "empirical, truncated intrinsic pids (MD5 prefixes):\n";
  List.iter
    (fun (bits, count) ->
      let seen = Hashtbl.create count in
      let collisions = ref 0 in
      for i = 0 to count - 1 do
        let pid = Pid.intrinsic (Printf.sprintf "unit-%d" i) in
        let v = Pid.truncated_bits pid bits in
        if Hashtbl.mem seen v then incr collisions else Hashtbl.add seen v ()
      done;
      let expected =
        float_of_int count *. float_of_int (count - 1) /. 2.
        /. Float.pow 2. (float_of_int bits)
      in
      Printf.printf "  %2d-bit pids, n = %5d: %4d collisions (birthday bound \
                     predicts %.1f)\n"
        bits count !collisions expected)
    [ (12, 512); (16, 2048); (20, 8192); (24, 8192) ]

(* ------------------------------------------------------------------ *)
(* E5: cutoff vs timestamp recompilation counts                        *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: recompilation counts, cutoff vs timestamp (the paper's motivation)";
  let topologies =
    if !quick then
      [
        ("chain-16", Gen.Chain 16);
        ("dag-24", Gen.Random_dag { units = 24; max_deps = 3; seed = 11 });
      ]
    else
      [
        ("chain-16", Gen.Chain 16);
        ("fanout-15", Gen.Fanout 15);
        ("diamond-7", Gen.Diamond 7);
        ("dag-24", Gen.Random_dag { units = 24; max_deps = 3; seed = 11 });
      ]
  in
  Printf.printf "%-11s %-13s | %-18s | %-18s | %-9s | cutoff wins by\n"
    "topology" "edit" "timestamp rebuilds" "cutoff rebuilds" "selective";
  List.iter
    (fun (topo_label, topology) ->
      List.iter
        (fun edit ->
          let count policy =
            let fs = Vfs.memory () in
            let project = Gen.create fs topology Gen.default_profile in
            let sources = Gen.sources project in
            let mgr = Driver.create fs in
            let _ = Driver.build mgr ~policy ~sources in
            (* edit the unit everything depends on: the maximal cone *)
            Gen.edit project (Gen.base_file project) edit;
            let stats = Driver.build mgr ~policy ~sources in
            let recompiled = List.length stats.Driver.st_recompiled in
            let cutoff_hits = List.length stats.Driver.st_cutoff_hits in
            let total = List.length sources in
            record tbl_recompile
              (J.Obj
                 [
                   ("topology", J.String topo_label);
                   ("edit", J.String (Gen.edit_name edit));
                   ("policy", J.String (Driver.policy_name policy));
                   ("recompiled", J.Int recompiled);
                   ("cutoff_hits", J.Int cutoff_hits);
                   ("total", J.Int total);
                   ( "cutoff_hit_rate",
                     J.Float
                       (if recompiled = 0 then 0.
                        else float_of_int cutoff_hits /. float_of_int recompiled)
                   );
                 ]);
            (recompiled, total)
          in
          let ts, total = count Driver.Timestamp in
          let co, _ = count Driver.Cutoff in
          let se, _ = count Driver.Selective in
          Printf.printf "%-11s %-13s | %7d / %-8d | %7d / %-8d | %9d | %dx\n"
            topo_label (Gen.edit_name edit) ts total co total se
            (if co = 0 then ts else ts / co))
        [ Gen.Touch; Gen.Impl_change; Gen.Iface_change ])
    topologies

(* ------------------------------------------------------------------ *)
(* E6: sharing preservation in pickled environments                    *)
(* ------------------------------------------------------------------ *)

(* Fully expanding aliases measures what a sharing-oblivious pickler
   would write: exponential in the nesting depth. *)
let rec expanded_size ctx ty =
  match Statics.Unify.head_normalize ctx ty with
  | Statics.Types.Tcon (_, args) ->
    List.fold_left (fun acc t -> acc + expanded_size ctx t) 1 args
  | Statics.Types.Tarrow (a, b) ->
    1 + expanded_size ctx a + expanded_size ctx b
  | Statics.Types.Ttuple parts ->
    List.fold_left (fun acc t -> acc + expanded_size ctx t) 1 parts
  | Statics.Types.Tvar _ | Statics.Types.Tgen _ | Statics.Types.Terror -> 1

let e6 () =
  section "E6: DAG sharing in pickled environments (paper sec. 4)";
  Printf.printf "%-6s | %-14s | %-22s\n" "depth"
    "bin size (B)" "sharing-oblivious nodes";
  List.iter
    (fun depth ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "structure Deep = struct\n";
      Buffer.add_string buf "  type t0 = int\n";
      for i = 1 to depth do
        Buffer.add_string buf
          (Printf.sprintf "  type t%d = t%d * t%d\n" i (i - 1) (i - 1))
      done;
      Buffer.add_string buf
        (Printf.sprintf "  val witness = fn (x : t%d) => x\nend\n" depth);
      let session = Sepcomp.Compile.new_session () in
      let unit_ =
        Sepcomp.Compile.compile session ~name:"deep.sml"
          ~source:(Buffer.contents buf) ~imports:[]
      in
      let ctx = Sepcomp.Compile.context session in
      let size = Pickle.Binfile.size_of ctx unit_ in
      record tbl_pickle_sizes
        (J.Obj [ ("depth", J.Int depth); ("bytes", J.Int size) ]);
      (* the deepest alias, fully expanded *)
      let deep_ty =
        let str =
          Support.Symbol.Map.find (Support.Symbol.intern "Deep")
            unit_.Pickle.Binfile.uf_env.Statics.Types.strs
        in
        let stamp =
          Support.Symbol.Map.find
            (Support.Symbol.intern (Printf.sprintf "t%d" depth))
            str.Statics.Types.str_env.Statics.Types.tycons
        in
        Statics.Types.Tcon (stamp, [])
      in
      Printf.printf "%-6d | %-14d | %d\n" depth size
        (expanded_size (Sepcomp.Compile.context session) deep_ty))
    [ 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* E7: statenv representation census                                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: static-environment representation census (paper: 36 datatypes, 115 variants, 193 record types)";
  (* our semantic-object family, counted from lib/statics/types.ml and
     the stamp/pickle layers it relies on *)
  let census =
    [
      ("Types.ty", `Variants 5);
      ("Types.tvar", `Variants 2);
      ("Types.scheme", `Record 2);
      ("Types.condesc", `Record 4);
      ("Types.defn", `Variants 3);
      ("Types.tycon_info", `Record 3);
      ("Types.addr", `Variants 6);
      ("Types.conrep", `Record 3);
      ("Types.vkind", `Variants 3);
      ("Types.val_info", `Record 3);
      ("Types.str_info", `Record 3);
      ("Types.sig_info", `Record 3);
      ("Types.fct_info", `Record 7);
      ("Types.env", `Record 5);
      ("Stamp.t", `Variants 3);
      ("Serial.token", `Variants 3);
      ("Binfile.t", `Record 5);
      ("Codeunit.t", `Record 3);
      ("Lambda.t", `Variants 25);
    ]
  in
  let datatypes = List.length census in
  let variants =
    List.fold_left
      (fun acc (_, k) -> match k with `Variants n -> acc + n | `Record _ -> acc)
      0 census
  in
  let record_fields =
    List.fold_left
      (fun acc (_, k) -> match k with `Record n -> acc + n | `Variants _ -> acc)
      0 census
  in
  List.iter
    (fun (name, k) ->
      match k with
      | `Variants n -> Printf.printf "  %-18s %2d variants\n" name n
      | `Record n -> Printf.printf "  %-18s %2d fields\n" name n)
    census;
  Printf.printf
    "total: %d types, %d variants, %d record fields (paper's compiler: 36 \
     datatypes / 115 variants / 193 record types — a full SML front end is \
     bigger, same order of shape)\n"
    datatypes variants record_fields;
  (* and the live context after building a project *)
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units = 24; max_deps = 3; seed = 3 })
      Gen.rich_profile
  in
  let mgr = Driver.create fs in
  let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources:(Gen.sources project) in
  let ctx = Sepcomp.Compile.context (Driver.session mgr) in
  let stamped =
    List.fold_left
      (fun acc file ->
        let u = Driver.unit_of mgr file in
        acc
        + List.length (Statics.Realize.reachable_stamps ctx u.Pickle.Binfile.uf_env))
      0 (Gen.sources project)
  in
  Printf.printf
    "after building 24 rich synthetic units: %d registered tycons, %d \
     reachable stamped objects across unit interfaces\n"
    (Statics.Context.size ctx) stamped

(* ------------------------------------------------------------------ *)
(* E8: intrinsic-pid invariance under edit classes                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: intrinsic-pid changes per edit class (10 edits each)";
  List.iter
    (fun edit ->
      let fs = Vfs.memory () in
      let project = Gen.create fs (Gen.Chain 3) Gen.default_profile in
      let sources = Gen.sources project in
      let victim = Gen.base_file project in
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      let changes = ref 0 in
      let last = ref (Driver.unit_of mgr victim).Pickle.Binfile.uf_static_pid in
      for _ = 1 to 10 do
        Gen.edit project victim edit;
        let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
        let now = (Driver.unit_of mgr victim).Pickle.Binfile.uf_static_pid in
        if not (Pid.equal now !last) then incr changes;
        last := now
      done;
      Printf.printf "  %-13s: %2d/10 pid changes (expected %s)\n"
        (Gen.edit_name edit) !changes
        (match edit with
        | Gen.Touch | Gen.Impl_change -> "0"
        | Gen.Iface_change -> "10"))
    [ Gen.Touch; Gen.Impl_change; Gen.Iface_change ]

(* ------------------------------------------------------------------ *)
(* E9: IRM build latency                                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9: IRM build latency by scenario (32-unit DAG)";
  let make_project () =
    let fs = Vfs.memory () in
    let project =
      Gen.create fs
        (Gen.Random_dag { units = 32; max_deps = 3; seed = 23 })
        Gen.default_profile
    in
    (fs, project)
  in
  Printf.printf "%-14s | %-10s | %-12s | recompiled\n" "scenario" "policy"
    "median (ms)";
  List.iter
    (fun policy ->
      List.iter
        (fun (label, prepare) ->
          let fs, project = make_project () in
          let sources = Gen.sources project in
          let mgr = Driver.create fs in
          let _ = Driver.build mgr ~policy ~sources in
          let recompiled = ref 0 in
          let t =
            time_median (fun () ->
                prepare fs project;
                let stats = Driver.build mgr ~policy ~sources in
                recompiled := List.length stats.Driver.st_recompiled)
          in
          record tbl_latency
            (J.Obj
               [
                 ("scenario", J.String label);
                 ("policy", J.String (Driver.policy_name policy));
                 ("median_s", J.Float t);
                 ("recompiled", J.Int !recompiled);
               ]);
          Printf.printf "%-14s | %-10s | %12.2f | %d\n" label
            (Driver.policy_name policy) (1000. *. t) !recompiled)
        [
          ("null build", fun _ _ -> ());
          ("touch", fun _ p -> Gen.edit p (Gen.middle_file p) Gen.Touch);
          ( "impl change",
            fun _ p -> Gen.edit p (Gen.middle_file p) Gen.Impl_change );
          ( "iface change",
            fun _ p -> Gen.edit p (Gen.middle_file p) Gen.Iface_change );
        ])
    [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]

(* ------------------------------------------------------------------ *)
(* E10: simplifier ablation                                            *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 (ablation): lambda simplifier effect on code size";
  let sample name source =
    let session = Sepcomp.Compile.new_session () in
    let plain =
      Sepcomp.Compile.compile ~optimize:false session ~name ~source ~imports:[]
    in
    let opt =
      Sepcomp.Compile.compile ~optimize:true session ~name ~source ~imports:[]
    in
    let code = plain.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code in
    let before = Lambda.size code in
    let after = Lambda.size opt.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code in
    Printf.printf "  %-24s %6d -> %6d nodes  (-%d%%)\n" name before after
      (100 * (before - after) / max before 1);
    (* the simplifier's own cost: wall time and nodes visited *)
    let visits = Obs.Metrics.counter "simplify.visits" in
    let v0 = Obs.Metrics.value visits in
    ignore (Simplify.term code);
    let visited = Obs.Metrics.value visits - v0 in
    let secs = time_median ~n:21 (fun () -> ignore (Simplify.term code)) in
    Printf.printf "  %-24s %9.3f ms simplify, %d nodes visited (%.1f per node)\n"
      "" (1000. *. secs) visited
      (float_of_int visited /. float_of_int (max before 1));
    (* bin sizes shrink accordingly *)
    let ctx = Sepcomp.Compile.context session in
    Printf.printf "  %-24s %6d -> %6d bin bytes\n" ""
      (Pickle.Binfile.size_of ctx plain)
      (Pickle.Binfile.size_of ctx opt)
  in
  sample "figure-1 unit" figure1_source;
  List.iter
    (fun lines ->
      let fs = Vfs.memory () in
      let project = Gen.create fs (Gen.Chain 1) (Gen.sized_profile ~lines) in
      match fs.Vfs.fs_read (Gen.base_file project) with
      | Some source ->
        sample (Printf.sprintf "synthetic %d-line unit" lines) source
      | None -> ())
    [ 120; 480; 1920 ]

(* ------------------------------------------------------------------ *)
(* E11: alpha-conversion ablation                                      *)
(* ------------------------------------------------------------------ *)

(* Hash with *raw* provisional stamp numbers instead of alpha indices:
   the strawman the paper's section 5 rules out ("the pids are
   independent of the pid-assignment algorithm" only with
   alpha-conversion). *)
let raw_hash ctx env =
  let token = function
    | Statics.Stamp.Global n -> Pickle.Serial.TokGlobal n
    | Statics.Stamp.Local n -> Pickle.Serial.TokOwn n (* raw, not alpha *)
    | Statics.Stamp.External (p, i) -> Pickle.Serial.TokExtern (p, i)
  in
  let w = Pickle.Buf.writer () in
  Pickle.Serial.write_env w ctx ~token ~with_addrs:false env;
  Pid.intrinsic (Pickle.Buf.contents w)

let e11 () =
  section "E11 (ablation): hashing without alpha-converted stamps";
  let source =
    "structure S = struct datatype t = A | B of int fun pick n = if n = 0 \
     then A else B n end"
  in
  let trials = 5 in
  let alpha_stable = ref 0 and raw_stable = ref 0 in
  let session = Sepcomp.Compile.new_session () in
  let ctx = Sepcomp.Compile.context session in
  let reference_alpha = ref None and reference_raw = ref None in
  for _ = 1 to trials do
    (* re-elaborate the same source; provisional stamp values differ
       every time, the interface does not *)
    let env = Sepcomp.Compile.basis_env session in
    let unit_ = Lang.Parser.parse_unit ~file:"s.sml" source in
    let delta, _ = Statics.Elaborate.elab_compilation_unit ctx env unit_ in
    let alpha = Pickle.Hashenv.hash_env ctx delta in
    let raw = raw_hash ctx delta in
    (match !reference_alpha with
    | None -> reference_alpha := Some alpha
    | Some r -> if Pid.equal r alpha then incr alpha_stable);
    match !reference_raw with
    | None -> reference_raw := Some raw
    | Some r -> if Pid.equal r raw then incr raw_stable
  done;
  Printf.printf
    "recompiling identical source %d times:\n\
    \  alpha-converted hash stable %d/%d times (cutoff works)\n\
    \  raw-stamp hash       stable %d/%d times (every rebuild would cascade)\n"
    trials !alpha_stable (trials - 1) !raw_stable (trials - 1)

(* ------------------------------------------------------------------ *)
(* E12: the executor (convert to flat-environment closures, then run)  *)
(* ------------------------------------------------------------------ *)

let lambda_of_exp ?(decs = "") src =
  let ctx = Statics.Context.create () in
  Statics.Basis.register ctx;
  let env = Statics.Basis.env () in
  let delta, tdecs =
    if decs = "" then (Statics.Types.empty_env, [])
    else
      Statics.Elaborate.elab_decs ctx env
        (Lang.Parser.parse_decs ~file:"bench.sml" decs)
  in
  let env = Statics.Types.env_union env delta in
  let texp, _ =
    Statics.Elaborate.elab_exp ctx env (Lang.Parser.parse_exp ~file:"b.sml" src)
  in
  Simplify.term (Translate.tdecs tdecs (Translate.texp texp))

let e12 () =
  section "E12: executor — conversion plus run on three kernels";
  let programs =
    [
      ( "fib 22",
        lambda_of_exp
          ~decs:"fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)"
          "fib 22" );
      ( "insertion sort, 150 elems",
        lambda_of_exp
          ~decs:
            "fun insert (x, nil) = [x]\n\
            \  | insert (x, y :: ys) = if x < y then x :: y :: ys else y :: \
             insert (x, ys)\n\
             fun sort nil = nil | sort (x :: xs) = insert (x, sort xs)\n\
             fun mk n = if n = 0 then nil else (n * 37) mod 101 :: mk (n - 1)\n\
             fun len xs = case xs of nil => 0 | _ :: r => 1 + len r"
          "len (sort (mk 150))" );
      ( "closure churn",
        lambda_of_exp
          ~decs:
            "fun compose f g x = f (g x)\n\
             fun iter n f = if n = 0 then f else iter (n - 1) (compose f (fn \
             x => x + 1))"
          "(iter 200 (fn x => x)) 0" );
    ]
  in
  List.iter
    (fun (name, code) ->
      run_bechamel ~name:("e12/" ^ name)
        [
          ( "executor",
            fun () ->
              let rt =
                Dynamics.Eval.runtime ~output:ignore
                  ~imports:Digestkit.Pid.Map.empty ()
              in
              ignore (Dynamics.Eval.run rt code) );
        ];
      Printf.printf "  (%d lambda nodes)\n" (Lambda.size code))
    programs

(* ------------------------------------------------------------------ *)
(* E13: parallel build speedup                                         *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13: parallel build speedup (wavefront scheduler over domains)";
  (* from-clean builds of a wide 64-unit DAG with compile-dominated
     units; serial and parallel run the same per-unit isolated-session
     pipeline, so the comparison isolates scheduling, not code paths *)
  let units = 64 in
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed = 31 })
      (Gen.sized_profile ~lines:160)
  in
  let sources = Gen.sources project in
  let lines = Gen.total_lines project in
  let parsed =
    List.map
      (fun f -> (f, Lang.Parser.parse_unit ~file:f (Option.get (fs.Vfs.fs_read f))))
      sources
  in
  let width = Depend.Depgraph.width (Depend.Depgraph.build parsed) in
  let time_build backend =
    time_median (fun () ->
        List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
        let mgr = Driver.create fs in
        ignore (Driver.build ~backend mgr ~policy:Driver.Cutoff ~sources))
  in
  let serial_s = time_build Driver.Serial in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "%d units, %d lines, widest wavefront %d; available cores: %d\n" units
    lines width cores;
  if cores = 1 then
    print_endline
      "(single-core machine: parallel backends can only lose here — the \
       speedup column measures scheduling overhead, not parallelism)";
  Printf.printf "%-10s | %10s | speedup\n" "backend" "median (s)";
  Printf.printf "%-10s | %10.3f | %6.2fx\n" "serial" serial_s 1.0;
  let jobs_list = if !quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  List.iter
    (fun jobs ->
      let parallel_s = time_build (Driver.Parallel jobs) in
      let speedup = serial_s /. parallel_s in
      record tbl_parallel
        (J.Obj
           [
             ("units", J.Int units);
             ("lines", J.Int lines);
             ("width", J.Int width);
             ("cores", J.Int cores);
             ("jobs", J.Int jobs);
             ("serial_s", J.Float serial_s);
             ("parallel_s", J.Float parallel_s);
             ("speedup", J.Float speedup);
           ]);
      Printf.printf "%-10s | %10.3f | %6.2fx\n"
        (Printf.sprintf "--jobs %d" jobs)
        parallel_s speedup)
    jobs_list

(* ------------------------------------------------------------------ *)
(* E14: unit-cache hit rates                                           *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14: content-addressed unit cache — hit rates and warm rebuilds";
  let units = 48 in
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed = 41 })
      Gen.default_profile
  in
  let sources = Gen.sources project in
  let total = List.length sources in
  let clean () = List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Printf.printf "%d units\n" units;
  Printf.printf "%-18s | recompiled | cache hits | hit rate | wall (ms)\n"
    "scenario";
  let row scenario (stats : Driver.stats) wall_s =
    let recompiled = List.length stats.Driver.st_recompiled in
    let hits = List.length stats.Driver.st_cache_hits in
    let hit_rate = float_of_int hits /. float_of_int total in
    record tbl_cache
      (J.Obj
         [
           ("scenario", J.String scenario);
           ("units", J.Int total);
           ("recompiled", J.Int recompiled);
           ("cache_hits", J.Int hits);
           ("hit_rate", J.Float hit_rate);
           ("wall_s", J.Float wall_s);
         ]);
    Printf.printf "%-18s | %10d | %10d | %7.0f%% | %9.2f\n" scenario recompiled
      hits (100. *. hit_rate) (1000. *. wall_s)
  in
  (* cold: empty cache, everything compiles and is stored *)
  let cold, cold_s =
    timed (fun () ->
        Driver.build ~cache:(Cache.ops (Cache.create fs)) (Driver.create fs)
          ~policy:Driver.Cutoff ~sources)
  in
  row "cold build" cold cold_s;
  (* warm from clean: bins wiped, fresh manager, fresh cache handle over
     the same store — a new process finding a populated cache *)
  clean ();
  let warm, warm_s =
    timed (fun () ->
        Driver.build ~cache:(Cache.ops (Cache.create fs)) (Driver.create fs)
          ~policy:Driver.Cutoff ~sources)
  in
  row "warm from-clean" warm warm_s;
  (* steady-state manager: edit one implementation, then revert it — the
     edit misses (new content), the revert hits (content seen before) *)
  let mgr = Driver.create fs in
  let cache = Cache.create fs in
  let _ = Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources in
  let victim = Gen.middle_file project in
  let original = Option.get (fs.Vfs.fs_read victim) in
  Gen.edit project victim Gen.Impl_change;
  let edited, edited_s =
    timed (fun () -> Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources)
  in
  row "impl edit (miss)" edited edited_s;
  fs.Vfs.fs_write victim original;
  let reverted, reverted_s =
    timed (fun () -> Driver.build ~cache:(Cache.ops cache) mgr ~policy:Driver.Cutoff ~sources)
  in
  row "revert (hit)" reverted reverted_s;
  Printf.printf "warm-from-clean rebuild is %.1fx faster than cold\n"
    (cold_s /. warm_s)

(* ------------------------------------------------------------------ *)
(* E15: atomic-commit overhead vs raw writes                           *)
(* ------------------------------------------------------------------ *)

(* an fs that defeats the commit protocol: staged content goes straight
   to the final name and the publishing rename becomes a no-op — the
   build does raw, non-crash-safe writes *)
let rawify fs =
  let final path =
    String.sub path 0 (String.length path - String.length ".#commit")
  in
  {
    fs with
    Vfs.fs_write =
      (fun path content ->
        if Vfs.is_commit_temp path then fs.Vfs.fs_write (final path) content
        else fs.Vfs.fs_write path content);
    Vfs.fs_rename =
      (fun src dst ->
        if Vfs.is_commit_temp src && String.equal (final src) dst then ()
        else fs.Vfs.fs_rename src dst);
  }

let e15 () =
  section "E15: atomic-commit overhead vs raw writes";
  (* the example group, loaded into a memory fs so both variants pay
     identical (deterministic) I/O costs; a generated group stands in
     when the examples are not on disk *)
  let fs = Vfs.memory () in
  let group, sources =
    match
      let real = Vfs.real ~dir:"examples/miniml" in
      let sources = Irm.Group.load real "sources.cm" in
      List.iter
        (fun f ->
          match real.Vfs.fs_read f with
          | Some content -> fs.Vfs.fs_write f content
          | None -> failwith f)
        sources;
      sources
    with
    | sources -> ("examples/miniml", sources)
    | exception _ ->
      let project = Gen.create fs (Gen.Diamond 2) Gen.default_profile in
      ("diamond-8", Gen.sources project)
  in
  let units = List.length sources in
  let reps = if !quick then 11 else 41 in
  let clean () = List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources in
  let median samples =
    let a = List.sort compare samples in
    List.nth a (List.length a / 2)
  in
  let time_build fs' =
    clean ();
    let t0 = Unix.gettimeofday () in
    let _ = Driver.build (Driver.create fs') ~policy:Driver.Cutoff ~sources in
    Unix.gettimeofday () -. t0
  in
  (* warm up, then interleave the variants so drift hits both medians *)
  let raw_fs = rawify fs in
  for _ = 1 to 3 do
    ignore (time_build fs)
  done;
  let pairs = List.init reps (fun _ -> (time_build raw_fs, time_build fs)) in
  let raw_s = median (List.map fst pairs) in
  let atomic_s = median (List.map snd pairs) in
  let overhead = (atomic_s -. raw_s) /. raw_s in
  record tbl_atomic
    (J.Obj
       [
         ("group", J.String group);
         ("units", J.Int units);
         ("reps", J.Int reps);
         ("raw_s", J.Float raw_s);
         ("atomic_s", J.Float atomic_s);
         ("overhead_ratio", J.Float overhead);
       ]);
  Printf.printf
    "%s (%d units, median of %d from-clean builds)\n\
     raw writes    %8.3f ms\n\
     atomic commit %8.3f ms\n\
     overhead      %+7.2f%%  (crash safety budget: < 5%%)\n"
    group units reps (1000. *. raw_s) (1000. *. atomic_s) (100. *. overhead)

(* ------------------------------------------------------------------ *)
(* E16: keep-going/diagnostics overhead on a clean build               *)
(* ------------------------------------------------------------------ *)

(* keep-going adds a recovery-mode pre-parse of every source and a
   diagnostic collector per compile; on an error-free DAG both are pure
   bookkeeping, so their cost is the whole price of the feature for the
   common (clean) case *)
let e16 () =
  section "E16: keep-going/diagnostics overhead on a clean build";
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units = 16; max_deps = 3; seed = 7 })
      Gen.default_profile
  in
  let sources = Gen.sources project in
  let units = List.length sources in
  let reps = if !quick then 11 else 41 in
  let clean () = List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources in
  let median samples =
    let a = List.sort compare samples in
    List.nth a (List.length a / 2)
  in
  let time_build ~keep_going =
    clean ();
    let t0 = Unix.gettimeofday () in
    let _ =
      Driver.build (Driver.create fs) ~keep_going ~policy:Driver.Cutoff
        ~sources
    in
    Unix.gettimeofday () -. t0
  in
  (* warm up, then interleave the variants so drift hits both medians *)
  for _ = 1 to 3 do
    ignore (time_build ~keep_going:false)
  done;
  let pairs =
    List.init reps (fun _ ->
        (time_build ~keep_going:false, time_build ~keep_going:true))
  in
  let failfast_s = median (List.map fst pairs) in
  let keepgoing_s = median (List.map snd pairs) in
  let overhead = (keepgoing_s -. failfast_s) /. failfast_s in
  record tbl_keepgoing
    (J.Obj
       [
         ("topology", J.String "random-dag-16");
         ("units", J.Int units);
         ("reps", J.Int reps);
         ("failfast_s", J.Float failfast_s);
         ("keepgoing_s", J.Float keepgoing_s);
         ("overhead_ratio", J.Float overhead);
       ]);
  Printf.printf
    "random-dag-16 (%d units, median of %d from-clean builds)\n\
     fail-fast     %8.3f ms\n\
     keep-going    %8.3f ms\n\
     overhead      %+7.2f%%  (diagnostics budget: < 2%%)\n"
    units reps (1000. *. failfast_s) (1000. *. keepgoing_s) (100. *. overhead)

(* ------------------------------------------------------------------ *)
(* E17: worker-backend overhead vs in-process domains                  *)
(* ------------------------------------------------------------------ *)

(* the supervised out-of-process backend pays fork+exec-free spawns,
   framed IPC and pickled units on every compile; on a clean build of a
   healthy DAG that is the whole price of crash isolation.  NOTE: this
   experiment must run before anything spawns a domain (OCaml 5 forbids
   Unix.fork once other domains have been created), so main () calls it
   ahead of E13 and the workers variant is measured before the domains
   variant below. *)
let e17 () =
  section "E17: worker-backend overhead vs in-process domains (clean build)";
  let units = 32 in
  let jobs = 4 in
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed = 31 })
      (Gen.sized_profile ~lines:160)
  in
  let sources = Gen.sources project in
  let lines = Gen.total_lines project in
  let time_build backend =
    time_median (fun () ->
        List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
        let mgr = Driver.create fs in
        ignore (Driver.build ~backend mgr ~policy:Driver.Cutoff ~sources))
  in
  let metric name = Option.value ~default:0 (Obs.Metrics.find name) in
  let workers_backend =
    Driver.Pool
      { (Remote.Pool.default_config (Spawn jobs)) with Remote.Pool.chaos = [] }
  in
  (* spawn count and IPC volume from one dedicated build, so the counts
     describe a single clean build rather than a median's worth *)
  let spawns0 = metric "worker.spawns" in
  let out0 = metric "remote.bytes_out" in
  let in0 = metric "remote.bytes_in" in
  List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
  ignore
    (Driver.build ~backend:workers_backend (Driver.create fs)
       ~policy:Driver.Cutoff ~sources);
  let spawns = metric "worker.spawns" - spawns0 in
  let ipc_out = metric "remote.bytes_out" - out0 in
  let ipc_in = metric "remote.bytes_in" - in0 in
  let workers_s = time_build workers_backend in
  let domains_s = time_build (Driver.Parallel jobs) in
  let overhead = (workers_s -. domains_s) /. domains_s in
  record tbl_worker
    (J.Obj
       [
         ("units", J.Int units);
         ("lines", J.Int lines);
         ("jobs", J.Int jobs);
         ("workers_s", J.Float workers_s);
         ("domains_s", J.Float domains_s);
         ("overhead_ratio", J.Float overhead);
         ("spawns", J.Int spawns);
         ("ipc_bytes_out", J.Int ipc_out);
         ("ipc_bytes_in", J.Int ipc_in);
       ]);
  Printf.printf
    "%d units, %d lines, %d jobs (from-clean medians)\n\
     in-process domains %8.3f ms\n\
     worker processes   %8.3f ms\n\
     overhead           %+7.2f%%  (isolation budget: < 15%%)\n\
     per clean build: %d worker spawns, %d B IPC out, %d B IPC in\n"
    units lines jobs (1000. *. domains_s) (1000. *. workers_s)
    (100. *. overhead) spawns ipc_out ipc_in

(* ------------------------------------------------------------------ *)
(* E18: observability overhead on a clean parallel build               *)
(* ------------------------------------------------------------------ *)

(* the introspection layer's whole price on the hot path: per-phase
   duration collection in every compile job, the end-of-build profile
   record (snapshot + journal through Vfs.commit), and full span
   tracing.  All of it rides an otherwise-unchanged clean parallel
   build, so the ratio is the overhead a user pays for [--trace] plus
   the always-on profile store. *)
let e18 () =
  section "E18: observability overhead (clean parallel build)";
  let units = 32 in
  let jobs = 4 in
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed = 47 })
      (Gen.sized_profile ~lines:160)
  in
  let sources = Gen.sources project in
  let lines = Gen.total_lines project in
  let clean () = List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources in
  let backend = Driver.Parallel jobs in
  let baseline_s =
    time_median (fun () ->
        clean ();
        ignore (Driver.build ~backend (Driver.create fs) ~policy:Driver.Cutoff ~sources))
  in
  (* instrumented: profile store recording + full tracing *)
  let trace_events = ref 0 in
  let profile_bytes = ref 0 in
  let instrumented_s =
    time_median (fun () ->
        clean ();
        let profile = Obs.Profile.load fs in
        Obs.Trace.enable ();
        ignore
          (Driver.build ~backend ~profile (Driver.create fs)
             ~policy:Driver.Cutoff ~sources);
        trace_events := List.length (Obs.Trace.events ());
        Obs.Trace.disable ();
        profile_bytes := Obs.Profile.store_bytes profile)
  in
  let overhead = (instrumented_s -. baseline_s) /. baseline_s in
  record tbl_obs
    (J.Obj
       [
         ("units", J.Int units);
         ("lines", J.Int lines);
         ("jobs", J.Int jobs);
         ("baseline_s", J.Float baseline_s);
         ("instrumented_s", J.Float instrumented_s);
         ("overhead_ratio", J.Float overhead);
         ("trace_events", J.Int !trace_events);
         ("profile_store_bytes", J.Int !profile_bytes);
       ]);
  Printf.printf
    "%d units, %d lines, %d jobs (from-clean medians)\n\
     bare build            %8.3f ms\n\
     profile store + trace %8.3f ms\n\
     overhead              %+7.2f%%  (observability budget: < 5%%)\n\
     per instrumented build: %d trace events, %d B profile store\n"
    units lines jobs (1000. *. baseline_s) (1000. *. instrumented_s)
    (100. *. overhead) !trace_events !profile_bytes

(* ------------------------------------------------------------------ *)
(* E19: compile server — warm vs cold rebuilds, client throughput      *)
(* ------------------------------------------------------------------ *)

(* the daemon's value proposition measured directly: a resident process
   keeps interned symbols, rehydrated static environments and the cache
   index alive across builds, so a rebuild skips the one-shot tool's
   start-from-bins rehydration.  Cold = a fresh manager per build (what
   plain [irm build] pays after process start); warm = the same builds
   through the daemon socket, HELLO/request round-trip included.
   NOTE: forks the daemon and the throughput clients, so main () must
   call this before anything spawns a domain (fork-after-domains is
   forbidden) — in particular before E17's in-process domains leg. *)
let e19 () =
  section "E19: compile server — warm vs cold rebuilds, client throughput";
  let units = if !quick then 12 else 24 in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smlsep-e19-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let fs = Vfs.real ~dir in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed = 59 })
      (Gen.sized_profile ~lines:120)
  in
  let sources = Gen.sources project in
  let lines = Gen.total_lines project in
  fs.Vfs.fs_write "sources.cm" (String.concat "\n" sources ^ "\n");
  (* seed the artifacts so every measured build is a rebuild *)
  ignore (Driver.build (Driver.create fs) ~policy:Driver.Cutoff ~sources);
  (* fork the daemon before any domain exists in this process *)
  let daemon_pid =
    match Unix.fork () with
    | 0 ->
      (try
         let cfg =
           {
             (Daemon.Server.default_config ~dir) with
             Daemon.Server.d_log = ignore;
             d_watch = false;
             d_poll_s = 3600.;
           }
         in
         Daemon.Server.run (Daemon.Server.create cfg)
       with _ -> ());
      (* _exit: never run the parent's at_exit/flushing in the child *)
      Unix._exit 0
    | pid -> pid
  in
  let connect () =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go () =
      match Daemon.Client.connect ~dir () with
      | Some c -> c
      | None ->
        if Unix.gettimeofday () > deadline then
          failwith "e19: daemon never came up"
        else begin
          Unix.sleepf 0.05;
          go ()
        end
    in
    go ()
  in
  let build_req =
    Daemon.Protocol.Build
      {
        Daemon.Protocol.b_group = "sources.cm";
        b_policy = "cutoff";
        b_jobs = 1;
        b_cache = false;
        b_keep_going = false;
        b_werror = false;
        b_max_errors = None;
        b_error_json = false;
        b_schedule = "wavefront";
      }
  in
  let warm_request c =
    let r = Daemon.Client.request c build_req in
    if r.Daemon.Protocol.r_code <> 0 then failwith "e19: daemon build failed"
  in
  let c = connect () in
  warm_request c (* prime the daemon's warm state *);
  let cold_null_s =
    time_median (fun () ->
        ignore (Driver.build (Driver.create fs) ~policy:Driver.Cutoff ~sources))
  in
  let warm_null_s = time_median (fun () -> warm_request c) in
  (* an implementation edit per sample; mtimes pushed past the 1 s
     file-system granularity so every policy layer sees each edit *)
  let stamp = ref (Unix.gettimeofday ()) in
  let edit () =
    Gen.edit project (Gen.middle_file project) Gen.Impl_change;
    stamp := !stamp +. 5.;
    Unix.utimes (Filename.concat dir (Gen.middle_file project)) !stamp !stamp
  in
  let cold_edit_s =
    time_median (fun () ->
        edit ();
        ignore (Driver.build (Driver.create fs) ~policy:Driver.Cutoff ~sources))
  in
  let warm_edit_s =
    time_median (fun () ->
        edit ();
        warm_request c)
  in
  Daemon.Client.close c;
  let row scenario cold warm =
    record tbl_server
      (J.Obj
         [
           ("scenario", J.String scenario);
           ("units", J.Int units);
           ("lines", J.Int lines);
           ("cold_s", J.Float cold);
           ("warm_s", J.Float warm);
           ("speedup", J.Float (cold /. warm));
         ])
  in
  row "null_rebuild" cold_null_s warm_null_s;
  row "impl_edit_rebuild" cold_edit_s warm_edit_s;
  (* throughput: N client processes hammering null rebuilds
     concurrently — real CLI clients are separate processes, and forked
     children keep this experiment domain-free.  The daemon serves them
     one at a time, so this measures socket and scheduling overhead
     under contention, not parallel compilation *)
  let requests_per_client = if !quick then 5 else 20 in
  let throughput n =
    let t0 = Unix.gettimeofday () in
    let kids =
      List.init n (fun _ ->
          match Unix.fork () with
          | 0 ->
            (try
               let cl = connect () in
               for _ = 1 to requests_per_client do
                 warm_request cl
               done;
               Daemon.Client.close cl;
               Unix._exit 0
             with _ -> Unix._exit 1)
          | pid -> pid)
    in
    List.iter
      (fun pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "e19: throughput client failed")
      kids;
    let wall = Unix.gettimeofday () -. t0 in
    let total = n * requests_per_client in
    let rps = float_of_int total /. wall in
    record tbl_server
      (J.Obj
         [
           ("scenario", J.String "throughput");
           ("clients", J.Int n);
           ("requests", J.Int total);
           ("wall_s", J.Float wall);
           ("requests_per_s", J.Float rps);
         ]);
    (wall, rps)
  in
  let rates = List.map (fun n -> (n, throughput n)) [ 1; 4; 8 ] in
  (* clean shutdown: ask nicely over the socket, then reap the child *)
  let stop = connect () in
  ignore (Daemon.Client.request stop Daemon.Protocol.Shutdown);
  Daemon.Client.close stop;
  ignore (Unix.waitpid [] daemon_pid);
  rm_rf dir;
  Printf.printf
    "%d units, %d lines (medians; daemon round-trip included in warm)\n\
     null rebuild   cold %8.3f ms   warm %8.3f ms   speedup %5.2fx\n\
     impl rebuild   cold %8.3f ms   warm %8.3f ms   speedup %5.2fx\n"
    units lines (1000. *. cold_null_s) (1000. *. warm_null_s)
    (cold_null_s /. warm_null_s)
    (1000. *. cold_edit_s) (1000. *. warm_edit_s)
    (cold_edit_s /. warm_edit_s);
  List.iter
    (fun (n, (wall, rps)) ->
      Printf.printf
        "  %d client%s  %3d null builds in %7.3f s   %8.1f req/s\n"
        n
        (if n = 1 then " " else "s")
        (n * requests_per_client) wall rps)
    rates

(* ------------------------------------------------------------------ *)
(* E20: critical-path scheduling vs wavefront                          *)
(* ------------------------------------------------------------------ *)

(* Two halves.  The synthetic half drives Sched.run directly with sleep
   jobs, so the measured makespan is pure scheduling: the same DAG, the
   same per-node durations, once dispatched in caller order (wavefront)
   and once ranked by exact critical-path length — the idealized
   version of what `irm build --schedule=critical-path` computes from
   profile-store estimates.  The DAGs are seeded and skewed (a few
   heavy long chains among many light nodes, listed late in caller
   order), the regime where dispatch order moves the makespan at all.
   The real half times cold Driver.build runs of rich generated
   projects at Parallel 2, with serial as the reference. *)
let e20 () =
  section "E20: critical-path scheduling vs wavefront";
  let jobs = 4 in
  let scale = if !quick then 0.4 else 1.0 in
  let run ~schedule ~order ~deps ~duration =
    let priority =
      match schedule with
      | `Wavefront -> None
      | `Critical_path ->
        let dependents = Hashtbl.create 64 in
        List.iter
          (fun n -> List.iter (fun d -> Hashtbl.add dependents d n) (deps n))
          order;
        let cp = Hashtbl.create 64 in
        List.iter
          (fun n ->
            let down =
              List.fold_left
                (fun acc d -> Float.max acc (Hashtbl.find cp d))
                0.
                (Hashtbl.find_all dependents n)
            in
            Hashtbl.replace cp n (duration n +. down))
          (List.rev order);
        Some (fun n -> Hashtbl.find cp n)
    in
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Sched.run ?priority (Sched.Parallel jobs) ~order ~deps
        ~prepare:(fun n -> Sched.Run n)
        ~execute:(fun n ->
          Unix.sleepf (duration n);
          n)
        ~complete:(fun _ r -> r)
    in
    let wall = Unix.gettimeofday () -. t0 in
    if List.length outcomes <> List.length order then
      failwith "e20: lost outcomes";
    let eff =
      match Sched.last_slots () with
      | Some s ->
        Array.fold_left ( +. ) 0. s.Sched.sl_busy_s
        /. (float_of_int s.Sched.sl_jobs *. s.Sched.sl_wall_s)
      | None -> nan
    in
    (wall, eff)
  in
  (* deep: one heavy spine chain behind a fringe of light independent
     units that come first in caller order *)
  let deep ~seed =
    let rng = Random.State.make [| seed |] in
    let depth = 10 and fringe = 36 in
    let spine i = Printf.sprintf "spine%02d" i in
    let order =
      List.init fringe (Printf.sprintf "light%02d") @ List.init depth spine
    in
    let deps n =
      match String.sub n 0 5 with
      | "spine" when n <> spine 0 ->
        [ spine (int_of_string (String.sub n 5 2) - 1) ]
      | _ -> []
    in
    let duration = Hashtbl.create 64 in
    List.iter
      (fun n ->
        let base = if String.sub n 0 5 = "spine" then 0.030 else 0.006 in
        let jitter = 0.8 +. Random.State.float rng 0.4 in
        Hashtbl.replace duration n (base *. jitter *. scale))
      order;
    (order, deps, Hashtbl.find duration)
  in
  (* wide: independent chains of skewed length, shortest first in
     caller order, so the wavefront discovers the long poles last *)
  let wide ~seed =
    let rng = Random.State.make [| seed |] in
    let chains = 8 in
    let node c i = Printf.sprintf "c%d_%02d" c i in
    let order =
      List.concat
        (List.init chains (fun c -> List.init (c + 1) (node (c + 1))))
    in
    let deps n =
      let c = int_of_string (String.sub n 1 1) in
      let i = int_of_string (String.sub n 3 2) in
      if i = 0 then [] else [ node c (i - 1) ]
    in
    let duration = Hashtbl.create 64 in
    List.iter
      (fun n ->
        let jitter = 0.8 +. Random.State.float rng 0.4 in
        Hashtbl.replace duration n (0.024 *. jitter *. scale))
      order;
    (order, deps, Hashtbl.find duration)
  in
  List.iter
    (fun (scenario, (order, deps, duration)) ->
      let wf_s, wf_eff = run ~schedule:`Wavefront ~order ~deps ~duration in
      let cp_s, cp_eff = run ~schedule:`Critical_path ~order ~deps ~duration in
      let improvement = (wf_s -. cp_s) /. wf_s in
      record tbl_sched
        (J.Obj
           [
             ("scenario", J.String scenario);
             ("nodes", J.Int (List.length order));
             ("jobs", J.Int jobs);
             ("wavefront_s", J.Float wf_s);
             ("critical_path_s", J.Float cp_s);
             ("improvement", J.Float improvement);
             ("wavefront_eff", J.Float wf_eff);
             ("critical_path_eff", J.Float cp_eff);
           ]);
      Printf.printf
        "%-10s %2d nodes, %d jobs: wavefront %7.1f ms (eff %3.0f%%)   \
         critical-path %7.1f ms (eff %3.0f%%)   %+.0f%%\n"
        scenario (List.length order) jobs (1000. *. wf_s) (100. *. wf_eff)
        (1000. *. cp_s) (100. *. cp_eff)
        (100. *. improvement))
    [ ("deep-skew", deep ~seed:7); ("wide-skew", wide ~seed:21) ];
  (* real builds: cold Driver.build of a rich 120-unit DAG and a rich
     60-unit chain.  One recorded build warms the profile store, so the
     critical-path priorities come from measured EWMAs; every variant
     records into the same store, and the variants interleave so drift
     hits all three medians alike *)
  let real_jobs = 2 in
  let rounds = if !quick then 3 else 9 in
  List.iter
    (fun (scenario, topology) ->
      let fs = Vfs.memory () in
      let project = Gen.create fs topology Gen.rich_profile in
      let sources = Gen.sources project in
      let profile = Obs.Profile.load fs in
      let cold_build backend schedule =
        List.iter (fun f -> fs.Vfs.fs_remove (f ^ ".bin")) sources;
        let t0 = Unix.gettimeofday () in
        ignore
          (Driver.build ~backend ~schedule ~profile (Driver.create fs)
             ~policy:Driver.Cutoff ~sources);
        Unix.gettimeofday () -. t0
      in
      ignore (cold_build Driver.Serial Driver.Wavefront);
      let variants =
        [
          (Driver.Serial, Driver.Wavefront);
          (Driver.Parallel real_jobs, Driver.Wavefront);
          (Driver.Parallel real_jobs, Driver.Critical_path);
        ]
      in
      let samples = List.map (fun _ -> ref []) variants in
      for _ = 1 to rounds do
        List.iter2
          (fun (backend, schedule) acc ->
            acc := cold_build backend schedule :: !acc)
          variants samples
      done;
      let median acc =
        List.nth (List.sort compare !acc) (List.length !acc / 2)
      in
      let serial_s, wf_s, cp_s =
        match List.map median samples with
        | [ s; w; c ] -> (s, w, c)
        | _ -> assert false
      in
      let improvement = (wf_s -. cp_s) /. wf_s in
      record tbl_sched
        (J.Obj
           [
             ("scenario", J.String scenario);
             ("units", J.Int (List.length sources));
             ("jobs", J.Int real_jobs);
             ("serial_s", J.Float serial_s);
             ("wavefront_s", J.Float wf_s);
             ("critical_path_s", J.Float cp_s);
             ("improvement", J.Float improvement);
           ]);
      Printf.printf
        "%-10s %3d units, %d jobs: serial %7.1f ms   wavefront %7.1f ms   \
         critical-path %7.1f ms   %+.0f%%\n"
        scenario (List.length sources) real_jobs (1000. *. serial_s)
        (1000. *. wf_s) (1000. *. cp_s) (100. *. improvement))
    [
      ("dag-120", Gen.Random_dag { units = 120; max_deps = 3; seed = 1 });
      ("chain-60", Gen.Chain 60);
    ]

(* ------------------------------------------------------------------ *)
(* E21: distributed fabric — remote executors + shared cache           *)
(* ------------------------------------------------------------------ *)

(* the fabric's three headline figures: makespan as executors are
   added (1/2/4, each a separate forked process hosting its own worker
   pool), shared-cache hit rate for a second builder warming from the
   service, and what degraded mode costs when every executor is dead
   (dial failures, quarantine, then local fallback).
   NOTE: forks executor and cache-service processes, so main () must
   call this before anything spawns a domain (fork-after-domains is
   forbidden). *)
let e21 () =
  section "E21: distributed fabric — remote executors + shared cache";
  let units = if !quick then 10 else 20 in
  let lines = if !quick then 60 else 120 in
  let topology = Gen.Random_dag { units; max_deps = 3; seed = 83 } in
  let profile = Gen.sized_profile ~lines in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let tmp name =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "smlsep-e21-%s-%d" name (Unix.getpid ()))
    in
    rm_rf path;
    path
  in
  let fresh_project name =
    let dir = tmp name in
    Unix.mkdir dir 0o755;
    let fs = Vfs.real ~dir in
    let project = Gen.create fs topology profile in
    (fs, Gen.sources project)
  in
  let await_sock path =
    let rec go n =
      if not (Sys.file_exists path) && n < 200 then begin
        Unix.sleepf 0.01;
        go (n + 1)
      end
    in
    go 0
  in
  (* fork one executor process hosting a 2-worker pool *)
  let spawn_exec i =
    let path = tmp (Printf.sprintf "exec%d" i) ^ ".sock" in
    let addr = Remote.Transport.Unix_sock path in
    match Unix.fork () with
    | 0 ->
      (try
         Remote.Exec.run
           (Remote.Exec.create
              ~mode:(Remote.Exec.Pool (Remote.Pool.default_config (Spawn 2)))
              addr (Irm.Wire.proto ()))
       with _ -> ());
      Unix._exit 0
    | pid ->
      await_sock path;
      (pid, addr)
  in
  let reap pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* serial baseline *)
  let fs0, sources0 = fresh_project "serial" in
  let serial_s, _ =
    time (fun () ->
        Driver.build (Driver.create fs0) ~policy:Driver.Cutoff
          ~sources:sources0)
  in
  Printf.printf "  %-28s %8.3f s\n%!" "serial baseline" serial_s;
  (* makespan at 1 / 2 / 4 executors, cold every time *)
  List.iter
    (fun n_execs ->
      let workers = List.init n_execs spawn_exec in
      let execs = List.map snd workers in
      Fun.protect ~finally:(fun () -> List.iter (fun (p, _) -> reap p) workers)
      @@ fun () ->
      let fs, sources = fresh_project (Printf.sprintf "remote%d" n_execs) in
      let cfg =
        { (Remote.Pool.default_config (Dial execs)) with Remote.Pool.log = ignore }
      in
      let wall_s, _ =
        time (fun () ->
            Driver.build (Driver.create fs)
              ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff ~sources)
      in
      Printf.printf "  %-28s %8.3f s  (%.2fx vs serial)\n%!"
        (Printf.sprintf "%d executor%s" n_execs
           (if n_execs = 1 then "" else "s"))
        wall_s (serial_s /. wall_s);
      record tbl_fabric
        (J.Obj
           [
             ("scenario", J.String "makespan");
             ("execs", J.Int n_execs);
             ("units", J.Int units);
             ("wall_s", J.Float wall_s);
             ("speedup", J.Float (serial_s /. wall_s));
           ]))
    [ 1; 2; 4 ];
  (* shared cache: a cold builder populates the service, a second
     builder on another "machine" warms from it *)
  let cache_sock = tmp "cache" ^ ".sock" in
  let cache_dir = tmp "cache-store" in
  Unix.mkdir cache_dir 0o755;
  let cache_pid =
    match Unix.fork () with
    | 0 ->
      (try
         Remote.Cached.run
           (Remote.Cached.create ~shards:4 ~dir:"."
              (Remote.Transport.Unix_sock cache_sock)
              (Vfs.real ~dir:cache_dir))
       with _ -> ());
      Unix._exit 0
    | pid ->
      await_sock cache_sock;
      pid
  in
  Fun.protect ~finally:(fun () -> reap cache_pid) @@ fun () ->
  let cached_build name =
    let fs, sources = fresh_project name in
    let client =
      Remote.Cache_client.create ~log:ignore
        (Remote.Transport.Unix_sock cache_sock)
    in
    Fun.protect ~finally:(fun () -> Remote.Cache_client.close client)
    @@ fun () ->
    let wall_s, stats =
      time (fun () ->
          Driver.build (Driver.create fs)
            ~cache:(Remote.Cache_client.ops client) ~policy:Driver.Cutoff
            ~sources)
    in
    (wall_s, List.length stats.Driver.st_cache_hits)
  in
  List.iter
    (fun (phase, name) ->
      let wall_s, hits = cached_build name in
      let hit_rate = float_of_int hits /. float_of_int units in
      Printf.printf "  %-28s %8.3f s  (%d/%d service hits)\n%!"
        (Printf.sprintf "shared cache, %s" phase)
        wall_s hits units;
      record tbl_fabric
        (J.Obj
           [
             ("scenario", J.String "shared-cache");
             ("phase", J.String phase);
             ("units", J.Int units);
             ("cache_hits", J.Int hits);
             ("hit_rate", J.Float hit_rate);
             ("wall_s", J.Float wall_s);
           ]))
    [ ("cold", "cache-cold"); ("warm", "cache-warm") ];
  (* degraded mode: every executor dead — dial failures, quarantine,
     local fallback; the build completes, this is what it costs *)
  let fs, sources = fresh_project "degraded" in
  let dead = Remote.Transport.Unix_sock (tmp "nobody" ^ ".sock") in
  let cfg =
    {
      (Remote.Pool.default_config (Dial [ dead ])) with
      Remote.Pool.log = ignore;
      dial_timeout_s = 0.5;
      backoff_s = 0.005;
      backoff_cap_s = 0.05;
    }
  in
  let degraded_s, _ =
    time (fun () ->
        Driver.build (Driver.create fs)
          ~backend:(Driver.Pool cfg) ~policy:Driver.Cutoff ~sources)
  in
  Printf.printf "  %-28s %8.3f s  (%.2fx serial)\n%!" "degraded (all dead)"
    degraded_s
    (degraded_s /. serial_s);
  record tbl_fabric
    (J.Obj
       [
         ("scenario", J.String "degraded");
         ("units", J.Int units);
         ("serial_s", J.Float serial_s);
         ("degraded_s", J.Float degraded_s);
         ("overhead_ratio", J.Float (degraded_s /. serial_s));
       ])

(* ------------------------------------------------------------------ *)
(* E22: live-relink swap latency vs full restart                      *)
(* ------------------------------------------------------------------ *)

let e22 () =
  let units = if !quick then 32 else 96 in
  section
    (Printf.sprintf
       "E22: live-relink swap latency vs full restart (%d-unit DAG)" units);
  let module Relink = Link.Relink in
  Printf.printf "%-17s | %-10s | %-12s | speedup\n" "edit" "swap (ms)"
    "restart (ms)";
  List.iter
    (fun (label, edit) ->
      let fs = Vfs.memory () in
      let project =
        Gen.create fs
          (Gen.Random_dag { units; max_deps = 3; seed = 29 })
          Gen.default_profile
      in
      let sources = Gen.sources project in
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      let live = Relink.create () in
      ignore (Relink.swap live ~units:(Driver.link_snapshot mgr));
      let swap_s =
        time_median (fun () ->
            (match edit with
            | Some e -> Gen.edit project (Gen.middle_file project) e
            | None -> ());
            let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
            ignore (Relink.swap live ~units:(Driver.link_snapshot mgr)))
      in
      (* the alternative: restart the process — rebuild the manager
         from the bins on disk and re-execute everything *)
      let restart_s =
        time_median (fun () ->
            let cold = Driver.create fs in
            let _ = Driver.build cold ~policy:Driver.Cutoff ~sources in
            ignore (Driver.run ~output:ignore cold ~sources))
      in
      let speedup = if swap_s > 0. then restart_s /. swap_s else 0. in
      record tbl_swap
        (J.Obj
           [
             ("edit", J.String label);
             ("units", J.Int (Gen.size project));
             ("swap_s", J.Float swap_s);
             ("restart_s", J.Float restart_s);
             ("speedup", J.Float speedup);
           ]);
      Printf.printf "%-17s | %10.2f | %12.2f | %6.2fx\n" label
        (1000. *. swap_s) (1000. *. restart_s) speedup)
    [
      ("null", None);
      ("pid-stable edit", Some Gen.Impl_change);
      ("iface", Some Gen.Iface_change);
    ]

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--out" :: path :: rest ->
        out_path := path;
        go rest
    | [ "--out" ] ->
        Printf.eprintf "usage: %s [--quick] [--out FILE]\n  --out needs a file\n"
          Sys.argv.(0);
        exit 2
    | arg :: _ ->
        Printf.eprintf "usage: %s [--quick] [--out FILE]\n  unknown argument %s\n"
          Sys.argv.(0) arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  parse_args ();
  print_endline "smlsep benchmark harness — reproduces the paper's evaluation";
  if !quick then
    print_endline "(quick mode: fewer repetitions, micro-benchmarks skipped)";
  (* e1/e12 are bechamel micro-benchmark suites: slow and not part of the
     JSON report, so quick mode skips them. *)
  if not !quick then e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  if not !quick then e12 ();
  (* E19 forks the daemon and its clients, E21 forks executor and
     cache-service processes, and E17 forks worker processes, so all
     three must run before anything creates a domain
     (fork-after-domains is forbidden).  E17's own domains variant
     makes it the last safe moment to fork, hence E19/E21 first. *)
  e19 ();
  e21 ();
  e17 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e18 ();
  e20 ();
  e22 ();
  write_results ();
  Printf.printf "\nwrote %s\ndone.\n" !out_path
