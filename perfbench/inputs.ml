(* Everything the workloads feed the program, drawn from the workload
   seed.  The program under test only ever sees the generated sources;
   the expected results are computed here, in OCaml. *)

(* Default seed, and the held-out seed a performance claim must also
   hold on (never used while tuning a change). *)
let default_seed = 1
let held_out_seed = 7919

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* ------------------------------------------------------------------ *)
(* Generated projects                                                  *)
(* ------------------------------------------------------------------ *)

(* A generated unit names its dependencies in its first value,
   [val seed = U003.seed + U010.seed + k]: [gen_defs] reads them back as
   (structure, (dependencies, constant)). *)
let gen_defs sources =
  List.map
    (fun (_, content) ->
      let lines = String.split_on_char '\n' content in
      let name =
        List.find_map (fun l -> Scanf.sscanf_opt l "structure %s = struct" Fun.id) lines
      in
      let rhs =
        List.find_map (fun l -> Scanf.sscanf_opt l "  val seed = %[^\n]" Fun.id) lines
      in
      match (name, rhs) with
      | Some n, Some r ->
        let terms = List.map String.trim (String.split_on_char '+' r) in
        let deps =
          List.filter_map
            (fun t ->
              if int_of_string_opt t = None then Some (Filename.remove_extension t)
              else None)
            terms
        in
        let k = List.fold_left (fun acc t -> acc + Option.value ~default:0 (int_of_string_opt t)) 0 terms in
        (n, (deps, k))
      | _ -> invalid_arg "Inputs.gen_defs: not a generated unit")
    sources

let dag ~units ~dag_seed = Workload.Gen.Random_dag { units; max_deps = 3; seed = dag_seed }

(* every unit's import-closure size, in ascending order: the closure
   sets how much rehydration the unit's compile job does *)
let closure_sizes ~units ~dag_seed =
  let fs = Vfs.memory () in
  let g = Workload.Gen.create fs (dag ~units ~dag_seed) (Workload.Gen.sized_profile ~lines:10) in
  let defs =
    gen_defs (List.map (fun f -> (f, Option.get (fs.Vfs.fs_read f))) (Workload.Gen.sources g))
  in
  let memo = Hashtbl.create 64 in
  let rec closure name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
      let c =
        List.fold_left
          (fun acc d -> List.sort_uniq compare ((d :: closure d) @ acc))
          [] (fst (List.assoc name defs))
      in
      Hashtbl.replace memo name c;
      c
  in
  Array.of_list (List.sort compare (List.map (fun (n, _) -> List.length (closure n)) defs))

(* the element-wise median of the sorted closure sizes of 25 fixed
   reference DAGs of this size *)
let closure_target =
  let cache = Hashtbl.create 2 in
  fun ~units ->
    match Hashtbl.find_opt cache units with
    | Some t -> t
    | None ->
      let refs = List.init 25 (fun i -> closure_sizes ~units ~dag_seed:(i + 1)) in
      let t =
        Array.init units (fun k -> List.nth (List.sort compare (List.map (fun a -> a.(k)) refs)) 12)
      in
      Hashtbl.replace cache units t;
      t

let sum = Array.fold_left ( + ) 0

(** The DAG a workload seed draws: the first of a seeded sequence of
    candidate DAGs whose closure sizes match the median ones for
    [units] units.  The total lies within 2% of the median total, and
    the sorted sizes differ from the median ones by at most half a unit
    on average, so the share of small and large jobs is fixed too.  The
    seed changes the shape of the graph, never the amount of
    rehydration a cold build does or how it spreads over the jobs. *)
let dag_seed ~seed ~units =
  let st = rng ~seed ~stream:0xDA6 in
  let target = closure_target ~units in
  let total = sum target in
  let rec search () =
    let cand = 1 + Random.State.int st 0x3FFFFFFE in
    let sizes = closure_sizes ~units ~dag_seed:cand in
    let distance = sum (Array.mapi (fun k x -> abs (x - target.(k))) sizes) in
    if abs (sum sizes - total) * 50 <= total && distance * 2 <= units then cand else search ()
  in
  search ()

(** A rich random DAG of [units] units of about [lines] lines, from a
    [dag_seed] that [dag_seed] drew. *)
let project ~dag_seed ~units ~lines fs =
  Workload.Gen.create fs (dag ~units ~dag_seed) (Workload.Gen.sized_profile ~lines)

(* ------------------------------------------------------------------ *)
(* The edit script                                                     *)
(* ------------------------------------------------------------------ *)

type edit = Null | Touch | Impl | Iface

let edit_name = function
  | Null -> "null"
  | Touch -> "touch"
  | Impl -> "impl"
  | Iface -> "iface"

(* every block of ten edits holds exactly this mix, in seeded order *)
let edit_block = [ Null; Touch; Touch; Impl; Impl; Impl; Impl; Impl; Iface; Iface ]

(* a seeded permutation of [xs] *)
let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(** [edit_script ~seed ~units] — an endless stream of (unit index, edit).
    Units are drawn uniformly from [0, units), without replacement
    until every unit has been drawn; kinds come in blocks of ten with
    the mix 10% null, 20% touch, 50% impl and 20% iface.  Sampling
    without replacement keeps the run-to-run spread from the draw
    small. *)
let edit_script ~seed ~units =
  let st = rng ~seed ~stream:0xED17 in
  let pending_units = ref [] and pending_kinds = ref [] in
  let next () =
    if !pending_units = [] then pending_units := shuffle st (List.init units Fun.id);
    if !pending_kinds = [] then pending_kinds := shuffle st edit_block;
    match (!pending_units, !pending_kinds) with
    | u :: us, k :: ks ->
      pending_units := us;
      pending_kinds := ks;
      (u, k)
    | _ -> assert false
  in
  next

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

type sizes = {
  sort_n : int;  (** list length sorted by the Sort functor *)
  fib_n : int;  (** argument of each fib call *)
  fib_reps : int;  (** fib calls *)
  churn_k : int;  (** closures composed per iteration *)
  churn_j : int;  (** compose/iter iterations *)
  fold_n : int;  (** list length built and folded *)
  lcg_seed : int;  (** first element of the sorted list's generator *)
}

(* Each size is its base scaled by a seeded factor within +-3%: the seed
   changes the inputs, never the scale of the run. *)
let kernel_sizes ~seed =
  let st = rng ~seed ~stream:0xC0DE in
  let scale base = base + (base * (Random.State.int st 61 - 30) / 1000) in
  {
    sort_n = scale 800;
    fib_n = 15;
    fib_reps = scale 15;
    churn_k = scale 40;
    churn_j = scale 150;
    fold_n = scale 8000;
    lcg_seed = 1 + Random.State.int st 1000;
  }

let modulus = 1000000007

let kernel_sources s =
  [
    ("ord.sml", "signature ORD = sig type elem val less : elem * elem -> bool end\n");
    ( "sort.sml",
      "functor Sort (O : ORD) = struct\n\
      \  fun split (nil, a, b) = (a, b)\n\
      \    | split (x :: r, a, b) = split (r, x :: b, a)\n\
      \  fun merge (nil, ys) = ys\n\
      \    | merge (xs, nil) = xs\n\
      \    | merge (x :: xs, y :: ys) =\n\
      \        if O.less (y, x) then y :: merge (x :: xs, ys)\n\
      \        else x :: merge (xs, y :: ys)\n\
      \  fun sort nil = nil\n\
      \    | sort (x :: nil) = x :: nil\n\
      \    | sort xs = let val (a, b) = split (xs, nil, nil) in merge (sort a, sort b) end\n\
       end\n" );
    ("intord.sml", "structure IntOrd = struct type elem = int fun less (a, b) = a < b end\n");
    ( "sorted.sml",
      Printf.sprintf
        "structure Sorted = struct\n\
        \  structure S = Sort(IntOrd)\n\
        \  fun gen (0, x, acc) = acc\n\
        \    | gen (n, x, acc) = let val y = (x * 7919 + 104729) mod 1000003 in gen (n - 1, y, y :: acc) end\n\
        \  fun checksum (nil, i, acc) = acc\n\
        \    | checksum (x :: r, i, acc) = checksum (r, i + 1, (acc + i * x) mod %d)\n\
        \  val result = checksum (S.sort (gen (%d, %d, nil)), 1, 0)\n\
         end\n"
        modulus s.sort_n s.lcg_seed );
    ( "fib.sml",
      Printf.sprintf
        "structure Fib = struct\n\
        \  fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n\
        \  fun reps (0, acc) = acc | reps (r, acc) = reps (r - 1, acc + fib %d)\n\
        \  val result = reps (%d, 0)\n\
         end\n"
        s.fib_n s.fib_reps );
    ( "churn.sml",
      Printf.sprintf
        "structure Churn = struct\n\
        \  fun compose (f, g) = fn x => f (g x)\n\
        \  fun iter (0, f) = (fn x => x) | iter (n, f) = compose (f, iter (n - 1, f))\n\
        \  fun loop (0, acc) = acc\n\
        \    | loop (j, acc) = loop (j - 1, (acc + iter (%d, fn x => (x * 3 + j) mod 1000003) j) mod %d)\n\
        \  val result = loop (%d, 0)\n\
         end\n"
        s.churn_k modulus s.churn_j );
    ( "fold.sml",
      Printf.sprintf
        "structure Fold = struct\n\
        \  fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)\n\
        \  fun foldl (f, acc, nil) = acc | foldl (f, acc, x :: r) = foldl (f, f (x, acc), r)\n\
        \  val result = foldl (fn (x, acc) => (acc + x * x) mod %d, 0, build (%d, nil))\n\
         end\n"
        modulus s.fold_n );
    ( "main.sml",
      "structure Main = struct\n\
      \  val shown = print (intToString Sorted.result ^ \" \" ^ intToString Fib.result ^ \" \" ^\n\
      \                     intToString Churn.result ^ \" \" ^ intToString Fold.result ^ \"\\n\")\n\
       end\n" );
  ]

(* The same four computations in OCaml: the reference output. *)
let kernel_expected s =
  let sorted =
    let rec gen n x acc =
      if n = 0 then acc
      else
        let y = ((x * 7919) + 104729) mod 1000003 in
        gen (n - 1) y (y :: acc)
    in
    let xs = List.stable_sort compare (gen s.sort_n s.lcg_seed []) in
    snd (List.fold_left (fun (i, acc) x -> (i + 1, (acc + (i * x)) mod modulus)) (1, 0) xs)
  in
  let fib =
    let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
    s.fib_reps * fib s.fib_n
  in
  let churn =
    let acc = ref 0 in
    for j = s.churn_j downto 1 do
      let x = ref j in
      for _ = 1 to s.churn_k do
        x := ((!x * 3) + j) mod 1000003
      done;
      acc := (!acc + !x) mod modulus
    done;
    !acc
  in
  let fold =
    let acc = ref 0 in
    for x = 1 to s.fold_n do
      acc := (!acc + (x * x)) mod modulus
    done;
    !acc
  in
  Printf.sprintf "%d %d %d %d\n" sorted fib churn fold

(* ------------------------------------------------------------------ *)
(* The daemon project's probe unit                                     *)
(* ------------------------------------------------------------------ *)

(* every generated unit's [seed] value, evaluated in OCaml so the
   probe's expected output never comes from the compiler under test *)
let gen_seeds sources =
  let defs = gen_defs sources in
  let memo = Hashtbl.create 64 in
  let rec value name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
      let deps, k = List.assoc name defs in
      let v = List.fold_left (fun acc d -> acc + value d) k deps in
      Hashtbl.replace memo name v;
      v
  in
  List.sort compare (List.map (fun (n, _) -> (n, value n)) defs)

(** A unit that prints the sum of every generated unit's [seed], and the
    output it must print. *)
let probe_unit sources =
  let seeds = gen_seeds sources in
  let sum = String.concat " + " (List.map (fun (n, _) -> n ^ ".seed") seeds) in
  ( ( "probe.sml",
      Printf.sprintf
        "structure Probe = struct\n  val shown = print (intToString (%s) ^ \"\\n\")\nend\n"
        sum ),
    Printf.sprintf "%d\n" (List.fold_left (fun acc (_, v) -> acc + v) 0 seeds) )
