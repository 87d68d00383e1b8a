(* Property-based tests of the system's core invariants (DESIGN.md §5):
   policy inclusion, incremental-equals-scratch, pickle stability,
   hash invariance, and differential evaluation of generated programs
   against an OCaml reference. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Compile = Sepcomp.Compile
module Value = Dynamics.Value
module Pid = Digestkit.Pid
module Symbol = Support.Symbol

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let topology_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Gen.Chain (2 + n)) (0 -- 6);
        map (fun n -> Gen.Fanout (1 + n)) (0 -- 6);
        map (fun n -> Gen.Diamond (1 + n)) (0 -- 3);
        map
          (fun (units, seed) ->
            Gen.Random_dag { units = 3 + units; max_deps = 3; seed })
          (pair (0 -- 9) (0 -- 1000));
      ])

let edit_gen =
  QCheck.Gen.oneofl [ Gen.Touch; Gen.Impl_change; Gen.Iface_change ]

let project_arbitrary =
  QCheck.make
    ~print:(fun ((_, rich), edits) ->
      Printf.sprintf "<topology%s + %d edits>"
        (if rich then " (rich)" else "")
        (List.length edits))
    QCheck.Gen.(pair (pair topology_gen bool) (list_size (1 -- 4) edit_gen))

let fresh_project (topology, rich) =
  let fs = Vfs.memory () in
  let profile = if rich then Gen.rich_profile else Gen.default_profile in
  let project = Gen.create fs topology profile in
  (fs, project, Gen.sources project)

(* pick a victim deterministically from an int seed *)
let victim_of project i =
  let sources = Gen.sources project in
  List.nth sources (i mod List.length sources)

(* ------------------------------------------------------------------ *)
(* Policy inclusion: selective ⊆ cutoff ⊆ timestamp                    *)
(* ------------------------------------------------------------------ *)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_policy_inclusion =
  QCheck.Test.make ~count:40 ~name:"policies: selective ⊆ cutoff ⊆ timestamp"
    project_arbitrary
    (fun (topology, edits) ->
      let run policy =
        let fs, project, sources = fresh_project topology in
        ignore fs;
        let mgr = Driver.create fs in
        let _ = Driver.build mgr ~policy ~sources in
        List.concat_map
          (fun (i, edit) ->
            Gen.edit project (victim_of project i) edit;
            let stats = Driver.build mgr ~policy ~sources in
            stats.Driver.st_recompiled)
          (List.mapi (fun i e -> (i * 3, e)) edits)
      in
      let ts = run Driver.Timestamp in
      let co = run Driver.Cutoff in
      let se = run Driver.Selective in
      subset co ts && subset se co)

(* ------------------------------------------------------------------ *)
(* Incremental equals scratch                                          *)
(* ------------------------------------------------------------------ *)

let final_pids mgr sources =
  List.map
    (fun f -> Pid.to_hex (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
    sources

let prop_incremental_equals_scratch policy name =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "%s: incremental build = scratch build" name)
    project_arbitrary
    (fun (topology, edits) ->
      (* incremental: edits interleaved with builds *)
      let fs, project, sources = fresh_project topology in
      ignore fs;
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy ~sources in
      List.iteri
        (fun i edit ->
          Gen.edit project (victim_of project (i * 5)) edit;
          ignore (Driver.build mgr ~policy ~sources))
        edits;
      let incremental = final_pids mgr sources in
      (* scratch: the same final sources compiled from nothing *)
      let fs2, project2, sources2 = fresh_project topology in
      ignore fs2;
      List.iteri
        (fun i edit -> Gen.edit project2 (victim_of project2 (i * 5)) edit)
        edits;
      let mgr2 = Driver.create fs2 in
      let _ = Driver.build mgr2 ~policy ~sources:sources2 in
      let scratch = final_pids mgr2 sources2 in
      incremental = scratch)

(* ------------------------------------------------------------------ *)
(* Pickle stability                                                    *)
(* ------------------------------------------------------------------ *)

let prop_pickle_roundtrip =
  QCheck.Test.make ~count:30 ~name:"pickle: read∘write is stable and verified"
    project_arbitrary
    (fun (topology, _) ->
      let fs, _project, sources = fresh_project topology in
      ignore fs;
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      let session = Driver.session mgr in
      let ctx = Compile.context session in
      List.for_all
        (fun file ->
          let unit_ = Driver.unit_of mgr file in
          let bytes = Pickle.Binfile.write ctx unit_ in
          (* load into a brand-new context *)
          let session2 = Compile.new_session () in
          let ctx2 = Compile.context session2 in
          let unit2 = Pickle.Binfile.read ctx2 bytes in
          let bytes2 = Pickle.Binfile.write ctx2 unit2 in
          Pid.equal unit_.Pickle.Binfile.uf_static_pid
            unit2.Pickle.Binfile.uf_static_pid
          && String.equal bytes bytes2
          &&
          match
            Pickle.Hashenv.verify ctx2
              ~name_statics:unit2.Pickle.Binfile.uf_name_statics
              unit2.Pickle.Binfile.uf_env
          with
          | Some pid -> Pid.equal pid unit_.Pickle.Binfile.uf_static_pid
          | None -> false)
        sources)

(* ------------------------------------------------------------------ *)
(* Hash invariance under trivia                                        *)
(* ------------------------------------------------------------------ *)

let trivia_gen =
  QCheck.Gen.(
    list_size (1 -- 5)
      (oneofl
         [ "(* noise *)"; "\n\n"; "   "; "(* nested (* comment *) *)"; "\t" ]))

let prop_hash_ignores_trivia =
  QCheck.Test.make ~count:50 ~name:"hash: whitespace and comments ignored"
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) trivia_gen))
    (fun (seed, trivia) ->
      let source =
        Printf.sprintf
          "structure S%d = struct val x = %d fun f n = n + %d end" (seed mod 7)
          seed (seed mod 13)
      in
      (* inject trivia around the source and between every token-safe
         space *)
      let spacer = " " ^ String.concat " " trivia ^ " " in
      let noisy =
        String.concat "" trivia
        ^ String.concat spacer (String.split_on_char ' ' source)
        ^ String.concat "" trivia
      in
      let s1 = Compile.new_session () in
      let u1 = Compile.compile s1 ~name:"s.sml" ~source ~imports:[] in
      let u2 = Compile.compile s1 ~name:"s.sml" ~source:noisy ~imports:[] in
      Pid.equal u1.Pickle.Binfile.uf_static_pid u2.Pickle.Binfile.uf_static_pid)

(* ------------------------------------------------------------------ *)
(* Differential evaluation against an OCaml reference                  *)
(* ------------------------------------------------------------------ *)

(* SML's div rounds toward negative infinity and its mod takes the
   divisor's sign; OCaml's [/] and [mod] truncate toward zero *)
let sml_div a b =
  if a mod b <> 0 && (a < 0) <> (b < 0) then (a / b) - 1 else a / b

let sml_mod a b = a - (b * sml_div a b)

let comparisons =
  [
    ("<", ( < )); ("<=", ( <= )); (">", ( > )); (">=", ( >= )); ("=", ( = ));
    ("<>", ( <> ));
  ]

(* generate an int expression together with its reference value *)
let int_exp_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun v -> (string_of_int v, v)) (0 -- 50)
         else
           frequency
             [
               (1, map (fun v -> (string_of_int v, v)) (0 -- 50));
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s + %s)" sa sb, va + vb))
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s - %s)" sa sb, va - vb))
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s * %s)" sa sb, va * vb))
                   (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (* keep the divisor non-zero *)
                     ( Printf.sprintf "(%s div (%s + 1))" sa
                         (Printf.sprintf "(%s * %s)" sb sb),
                       sml_div va ((vb * vb) + 1) ))
                   (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map3
                   (fun (ss, sign) (sa, va) (sb, vb) ->
                     (* a non-zero divisor of either sign *)
                     ( Printf.sprintf "(%s mod (%s * ((%s * %s) + 1)))" sa ss sb
                         sb,
                       sml_mod va (sign * ((vb * vb) + 1)) ))
                   (oneofl [ ("1", 1); ("~1", -1) ])
                   (self (n / 3)) (self (n / 3)) );
               ( 1,
                 (* a divisor that is zero a third of the time *)
                 map3
                   (fun (sa, va) (sb, vb) (sk, vk) ->
                     ( Printf.sprintf "((%s div (%s mod 3)) handle Div => %s)"
                         sa sb sk,
                       let d = sml_mod vb 3 in
                       if d = 0 then vk else sml_div va d ))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ( 2,
                 map3
                   (fun (sa, va) (sb, vb) (sc, vc) ->
                     ( Printf.sprintf "(if %s < %s then %s else %s)" sa sb sc
                         sa,
                       if va < vb then vc else va ))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ( 2,
                 map3
                   (fun (op, cmp) (sa, va) (sb, vb) ->
                     ( Printf.sprintf "(if %s %s %s then %s else %s)" sa op sb
                         sb sa,
                       if cmp va vb then vb else va ))
                   (oneofl comparisons) (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     ( Printf.sprintf "(let val h = %s in h + %s end)" sa sb,
                       va + vb ))
                   (self (n / 2)) (self (n / 2)) );
             ])

let eval_int_unit source_exp =
  let session = Compile.new_session () in
  let unit_ =
    Compile.compile session ~name:"p.sml"
      ~source:(Printf.sprintf "structure P = struct val r = %s end" source_exp)
      ~imports:[]
  in
  let dynenv = Compile.execute unit_ Link.Linker.empty in
  let _, pid =
    List.hd unit_.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
  in
  match Pid.Map.find pid dynenv with
  | Value.Vrecord fields -> (
    match Symbol.Map.find (Symbol.intern "r") fields with
    | Value.Vint n -> n
    | _ -> failwith "not an int")
  | _ -> failwith "not a record"

let prop_differential_eval =
  QCheck.Test.make ~count:80
    ~name:"evaluation agrees with the OCaml reference"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, expected) -> eval_int_unit source = expected)

let prop_simplifier_preserves_semantics =
  QCheck.Test.make ~count:60
    ~name:"simplifier: optimized = unoptimized result"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) ->
      let run optimize =
        let session = Compile.new_session () in
        let unit_ =
          Compile.compile ~optimize session ~name:"p.sml"
            ~source:
              (Printf.sprintf "structure P = struct val r = %s end" source)
            ~imports:[]
        in
        let dynenv = Compile.execute unit_ Link.Linker.empty in
        let _, pid =
          List.hd unit_.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
        in
        match Pid.Map.find pid dynenv with
        | Value.Vrecord fields -> Symbol.Map.find (Symbol.intern "r") fields
        | _ -> failwith "not a record"
      in
      Value.equal (run true) (run false))

let prop_simplifier_never_grows =
  QCheck.Test.make ~count:60 ~name:"simplifier: code size never grows"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) ->
      let session = Compile.new_session () in
      let compile optimize =
        (Compile.compile ~optimize session ~name:"p.sml"
           ~source:(Printf.sprintf "structure P = struct val r = %s end" source)
           ~imports:[])
          .Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code
      in
      Lambda.size (compile true) <= Lambda.size (compile false))

(* the census shrinker against the bounded-pass oracle, on the same
   unoptimised code: never larger, and the same value *)
let prop_simplifier_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"simplifier: no larger than the oracle"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) ->
      let code =
        (Compile.compile ~optimize:false (Compile.new_session ()) ~name:"p.sml"
           ~source:(Printf.sprintf "structure P = struct val r = %s end" source)
           ~imports:[])
          .Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code
      in
      let shrunk = Simplify.term code and oracle = Oracle_simplify.term code in
      let value term =
        let rt = Dynamics.Eval.runtime ~imports:Pid.Map.empty () in
        Value.to_string (Oracle_eval.run rt term)
      in
      Lambda.size shrunk <= Lambda.size oracle
      && String.equal (value shrunk) (value oracle))

(* ------------------------------------------------------------------ *)
(* Corruption is always checked                                        *)
(* ------------------------------------------------------------------ *)

(* a damaged bin must either rehydrate identically or raise the checked
   [Buf.Corrupt] — never a wrong environment, never a stray exception *)
let flip_is_checked unit_ bytes pos mask =
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped pos
    (Char.chr (Char.code (Bytes.get flipped pos) lxor mask));
  let flipped = Bytes.to_string flipped in
  let ctx = Compile.context (Compile.new_session ()) in
  match Pickle.Binfile.read ctx flipped with
  | unit2 ->
    (* only acceptable if the rehydration is indistinguishable *)
    Pid.equal unit2.Pickle.Binfile.uf_static_pid
      unit_.Pickle.Binfile.uf_static_pid
    && String.equal (Pickle.Binfile.write ctx unit2) bytes
  | exception Pickle.Buf.Corrupt _ -> true
  | exception _ -> false

let test_every_byte_flip_is_checked () =
  let session = Compile.new_session () in
  let unit_ =
    Compile.compile session ~name:"u.sml"
      ~source:"structure U = struct val x = 41 fun f n = n + x end" ~imports:[]
  in
  let bytes = Pickle.Binfile.write (Compile.context session) unit_ in
  for pos = 0 to String.length bytes - 1 do
    if not (flip_is_checked unit_ bytes pos 0x01) then
      Alcotest.fail
        (Printf.sprintf "flip at byte %d/%d escaped the corruption check" pos
           (String.length bytes))
  done

let prop_random_flip_is_checked =
  QCheck.Test.make ~count:60
    ~name:"pickle: any 1-byte flip rehydrates identically or is Corrupt"
    (QCheck.make
       ~print:(fun (seed, pos, mask) ->
         Printf.sprintf "<seed %d, byte %d, mask 0x%02x>" seed pos mask)
       QCheck.Gen.(triple (0 -- 1000) (0 -- 100_000) (1 -- 255)))
    (fun (seed, pos, mask) ->
      let session = Compile.new_session () in
      let unit_ =
        Compile.compile session ~name:"u.sml"
          ~source:
            (Printf.sprintf
               "structure U%d = struct val x = %d fun f n = n * x + %d end"
               (seed mod 5) seed (seed mod 17))
          ~imports:[]
      in
      let bytes = Pickle.Binfile.write (Compile.context session) unit_ in
      flip_is_checked unit_ bytes (pos mod String.length bytes) mask)

(* ------------------------------------------------------------------ *)
(* Build idempotence                                                   *)
(* ------------------------------------------------------------------ *)

let prop_null_build_idempotent =
  QCheck.Test.make ~count:30 ~name:"null rebuild recompiles nothing"
    project_arbitrary
    (fun (topology, edits) ->
      List.for_all
        (fun policy ->
          let fs, project, sources = fresh_project topology in
          ignore fs;
          let mgr = Driver.create fs in
          let _ = Driver.build mgr ~policy ~sources in
          List.iteri
            (fun i edit ->
              Gen.edit project (victim_of project (i * 7)) edit;
              ignore (Driver.build mgr ~policy ~sources))
            edits;
          let again = Driver.build mgr ~policy ~sources in
          again.Driver.st_recompiled = [])
        [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ])

(* ------------------------------------------------------------------ *)
(* The warm dependency scan equals a fresh scan                        *)
(* ------------------------------------------------------------------ *)

(* Edits of a generated project, each resolved against the current
   state through its int.  Besides the generator's own edits the test
   keeps extra units [x<i>.sml]: each defines a fixed pad structure
   [P<i>] plus some moveable structures [X<k>], and one [client.sml]
   refers to every [X<k>].  Moving an [X<k>] between extra units leaves
   the client's text (so its memo entry) unchanged while its edge
   must follow the structure. *)
type scan_step =
  | Gen_edit of int * Gen.edit
  | Add_unit of int
  | Remove_unit of int
  | Move_module of int * int

let scan_step_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i e -> Gen_edit (i, e)) (0 -- 100) edit_gen;
        map (fun i -> Add_unit i) (0 -- 100);
        map (fun i -> Remove_unit i) (0 -- 100);
        map2 (fun i j -> Move_module (i, j)) (0 -- 100) (0 -- 100);
      ])

let scan_step_name = function
  | Gen_edit (i, e) -> Printf.sprintf "%s %d" (Gen.edit_name e) i
  | Add_unit i -> Printf.sprintf "add %d" i
  | Remove_unit i -> Printf.sprintf "remove %d" i
  | Move_module (i, j) -> Printf.sprintf "move %d->%d" i j

let scan_arbitrary =
  QCheck.make
    ~print:(fun (_, steps) ->
      "<topology> + " ^ String.concat ", " (List.map scan_step_name steps))
    QCheck.Gen.(pair topology_gen (list_size (1 -- 6) scan_step_gen))

let prop_warm_scan_equals_fresh =
  QCheck.Test.make ~count:25
    ~name:"warm dependency scan = fresh scan; incremental bins = scratch"
    scan_arbitrary
    (fun (topology, steps) ->
      let fs, project, gen_sources = fresh_project (topology, false) in
      let mgr = Driver.create fs in
      (* extra units: (file, pad index, moveable structure indices) *)
      let extras = ref [ ("x0.sml", 0, [ 0 ]); ("x1.sml", 1, [ 1 ]) ] in
      let next = ref 2 in
      let provider k = List.nth gen_sources (k mod List.length gen_sources) in
      let modname file = String.capitalize_ascii (Filename.chop_extension file) in
      let write_extra (file, pad, ks) =
        fs.Vfs.fs_write file
          (String.concat "\n"
             (Printf.sprintf "structure P%d = struct val n = %d end" pad pad
             :: List.map
                  (fun k ->
                    Printf.sprintf "structure X%d = struct val v = %s.seed + %d end"
                      k (modname (provider k)) k)
                  ks))
      in
      let write_client () =
        let ks =
          List.sort compare (List.concat_map (fun (_, _, ks) -> ks) !extras)
        in
        fs.Vfs.fs_write "client.sml"
          (Printf.sprintf "structure Client = struct val total = 0%s end"
             (String.concat "" (List.map (Printf.sprintf " + X%d.v") ks)))
      in
      List.iter write_extra !extras;
      write_client ();
      let sources () =
        gen_sources @ List.map (fun (f, _, _) -> f) !extras @ [ "client.sml" ]
      in
      let apply = function
        | Gen_edit (i, edit) -> Gen.edit project (victim_of project i) edit
        | Add_unit k ->
          (* a structure index no earlier unit used *)
          let extra = (Printf.sprintf "x%d.sml" !next, !next, [ (!next * 101) + k ]) in
          incr next;
          extras := !extras @ [ extra ];
          write_extra extra;
          write_client ()
        | Remove_unit i when !extras <> [] ->
          let file, _, _ = List.nth !extras (i mod List.length !extras) in
          extras := List.filter (fun (f, _, _) -> f <> file) !extras;
          fs.Vfs.fs_remove file;
          write_client ()
        | Move_module (i, j) when List.length !extras >= 2 -> (
          let n = List.length !extras in
          let src, _, _ = List.nth !extras (i mod n) in
          let dst, _, _ = List.nth !extras ((i + 1 + (j mod (n - 1))) mod n) in
          match List.find (fun (f, _, _) -> f = src) !extras with
          | _, _, [] -> ()
          | _, _, k :: _ ->
            extras :=
              List.map
                (fun (f, pad, ks) ->
                  if f = src then (f, pad, List.tl ks)
                  else if f = dst then (f, pad, ks @ [ k ])
                  else (f, pad, ks))
                !extras;
            List.iter
              (fun ((f, _, _) as e) -> if f = src || f = dst then write_extra e)
              !extras)
        | Remove_unit _ | Move_module _ -> ()
      in
      let read f = Option.get (fs.Vfs.fs_read f) in
      let fresh_graph sources =
        Depend.Depgraph.build
          (List.map (fun f -> (f, Lang.Parser.parse_unit ~file:f (read f))) sources)
      in
      let same_graph sources warm =
        let fresh = fresh_graph sources in
        let deps g f = (Depend.Depgraph.node g f).Depend.Depgraph.n_deps in
        Depend.Depgraph.topological warm = Depend.Depgraph.topological fresh
        && List.for_all
             (fun f ->
               deps warm f = deps fresh f
               && Depend.Depgraph.closure warm f = Depend.Depgraph.closure fresh f)
             sources
      in
      let parses () = Option.value ~default:0 (Obs.Metrics.find "depend.parses") in
      (* the text each file had when the manager last scanned it *)
      let scanned = Hashtbl.create 16 in
      let changed sources =
        List.length
          (List.filter
             (fun f -> Hashtbl.find_opt scanned f <> Some (read f))
             sources)
      in
      let remember sources =
        Hashtbl.reset scanned;
        List.iter (fun f -> Hashtbl.replace scanned f (read f)) sources
      in
      let bins_equal_scratch sources =
        let scratch = Vfs.memory () in
        List.iter (fun f -> scratch.Vfs.fs_write f (read f)) sources;
        ignore (Driver.build (Driver.create scratch) ~policy:Driver.Cutoff ~sources);
        List.for_all
          (fun f -> scratch.Vfs.fs_read (f ^ ".bin") = fs.Vfs.fs_read (f ^ ".bin"))
          sources
      in
      let step i s =
        apply s;
        let sources = sources () in
        let expect = changed sources and before = parses () in
        (* alternate which entry point meets the edit first *)
        let graph_ok, order_ok =
          if i mod 2 = 0 then
            let graph_ok = same_graph sources (Driver.dependency_graph mgr ~sources) in
            let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
            (graph_ok, stats.Driver.st_order)
          else
            let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
            (same_graph sources (Driver.dependency_graph mgr ~sources), stats.Driver.st_order)
        in
        let parsed = parses () - before in
        remember sources;
        graph_ok
        && order_ok = Depend.Depgraph.topological (fresh_graph sources)
        && parsed = expect
        && bins_equal_scratch sources
      in
      ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources:(sources ()));
      remember (sources ());
      List.for_all Fun.id (List.mapi step steps))

(* ------------------------------------------------------------------ *)
(* Compile jobs: static-view closures compile to the same bytes        *)
(* ------------------------------------------------------------------ *)

(* The manager ships each dependency's static view, not its full bin.
   Since a compile reads only its imports' statenvs, a job over the
   views, the same job over the full bins, and the bin the build wrote
   must be equal bytes — also after a critical-path build, where a
   dependent may start against a static payload released mid-compile. *)
let prop_static_view_closures =
  QCheck.Test.make ~count:20
    ~name:"compile jobs: static-view closure = full-bin closure = bin on disk"
    (QCheck.pair project_arbitrary QCheck.bool)
    (fun ((proj, edits), critical) ->
      let fs, project, sources = fresh_project proj in
      let mgr = Driver.create fs in
      let build () =
        if critical then
          Driver.build ~backend:(Driver.Parallel 2)
            ~schedule:Driver.Critical_path mgr ~policy:Driver.Cutoff ~sources
        else Driver.build mgr ~policy:Driver.Cutoff ~sources
      in
      ignore (build ());
      List.iteri
        (fun i edit ->
          Gen.edit project (victim_of project (i * 3)) edit;
          ignore (build ()))
        edits;
      let graph = Driver.dependency_graph mgr ~sources in
      let bin file = Option.get (fs.Vfs.fs_read (file ^ ".bin")) in
      let compile file closure_of =
        (Irm.Wire.execute
           {
             Irm.Wire.j_name = file;
             j_source = Option.get (fs.Vfs.fs_read file);
             j_closure =
               List.map
                 (fun dep -> (dep, Irm.Wire.view (closure_of (bin dep))))
                 (Depend.Depgraph.closure graph file);
             j_imports = (Depend.Depgraph.node graph file).Depend.Depgraph.n_deps;
             j_collect = false;
             j_werror = false;
             j_limit = None;
             j_build = 0;
           })
          .Irm.Wire.r_bytes
      in
      List.for_all
        (fun file ->
          let on_disk = bin file in
          String.equal (compile file Pickle.Binfile.static_of_full) on_disk
          && String.equal (compile file Fun.id) on_disk)
        sources)

(* ------------------------------------------------------------------ *)
(* An interface pid fixes the exported surface                         *)
(* ------------------------------------------------------------------ *)

(* A unit's export pids derive from the static pids of its exported
   names, and its interface pid hashes those same name statics.  So
   over any edit sequence, two bins with equal [uf_static_pid] export
   exactly the same (name, pid) pairs: an opaque ascription cannot leak
   a binding across an unchanged interface. *)
let prop_static_pid_fixes_exports =
  QCheck.Test.make ~count:30 ~name:"equal static pid => equal exports"
    (QCheck.make
       ~print:(fun ((_, rich), edits) ->
         Printf.sprintf "<topology%s + %d edits>"
           (if rich then " (rich)" else "")
           (List.length edits))
       QCheck.Gen.(
         pair (pair topology_gen bool)
           (list_size (4 -- 12) (pair edit_gen small_nat))))
    (fun (proj, edits) ->
      let fs, project, sources = fresh_project proj in
      let mgr = Driver.create fs in
      let seen = Hashtbl.create 32 in
      let consistent () =
        ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
        List.for_all
          (fun file ->
            let u = Driver.unit_of mgr file in
            let exports =
              List.map
                (fun (sym, pid) -> (Symbol.name sym, Pid.to_hex pid))
                u.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
            in
            let key = Pid.to_hex u.Pickle.Binfile.uf_static_pid in
            match Hashtbl.find_opt seen key with
            | Some recorded -> recorded = exports
            | None ->
              Hashtbl.add seen key exports;
              true)
          sources
      in
      consistent ()
      && List.for_all
           (fun (edit, i) ->
             Gen.edit project (victim_of project i) edit;
             consistent ())
           edits)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_policy_inclusion;
      prop_incremental_equals_scratch Driver.Cutoff "cutoff";
      prop_incremental_equals_scratch Driver.Selective "selective";
      prop_pickle_roundtrip;
      prop_random_flip_is_checked;
      prop_hash_ignores_trivia;
      prop_differential_eval;
      prop_simplifier_preserves_semantics;
      prop_simplifier_never_grows;
      prop_null_build_idempotent;
      prop_warm_scan_equals_fresh;
      prop_static_view_closures;
      prop_static_pid_fixes_exports;
    ]
  @ [
      Alcotest.test_case "every 1-byte flip in a bin is checked" `Quick
        test_every_byte_flip_is_checked;
    ]
  @ [ QCheck_alcotest.to_alcotest prop_simplifier_matches_oracle ]
