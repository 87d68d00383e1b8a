module Symbol = Support.Symbol
module Diag = Support.Diag

type node = {
  n_file : string;
  n_summary : Scan.summary;
  n_deps : string list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  providers : string Symbol.Table.t;
  order : string list;  (** input order, for determinism *)
  topo : (string list, exn) result;
      (** the dependency order, or the cycle error, sorted once *)
  rank : (string, int) Hashtbl.t;  (** each file's index in [topo] *)
}

let manager_error fmt = Diag.error Diag.Manager Support.Loc.dummy fmt

(* the depth-first sort [of_summaries] runs once per graph *)
let sort nodes order =
  let visited = Hashtbl.create 64 in
  (* 0 = in progress, 1 = done *)
  let out = ref [] in
  let rec visit trail file =
    match Hashtbl.find_opt visited file with
    | Some 1 -> ()
    | Some _ ->
      manager_error "dependency cycle: %s"
        (String.concat " -> " (List.rev (file :: trail)))
    | None ->
      Hashtbl.replace visited file 0;
      List.iter (visit (file :: trail)) (Hashtbl.find nodes file).n_deps;
      Hashtbl.replace visited file 1;
      out := file :: !out
  in
  List.iter (visit []) order;
  List.rev !out

let of_summaries summaries =
  let providers = Symbol.Table.create 64 in
  List.iter
    (fun (file, summary) ->
      Symbol.Set.iter
        (fun name ->
          match Symbol.Table.find_opt providers name with
          | Some other when not (String.equal other file) ->
            manager_error "module %a is defined by both %s and %s" Symbol.pp
              name other file
          | Some _ | None -> Symbol.Table.replace providers name file)
        summary.Scan.defines)
    summaries;
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun (file, summary) ->
      let deps =
        Symbol.Set.fold
          (fun name acc ->
            match Symbol.Table.find_opt providers name with
            | Some provider when not (String.equal provider file) ->
              provider :: acc
            | Some _ | None -> acc)
          summary.Scan.refers []
        |> List.sort_uniq String.compare
      in
      Hashtbl.replace nodes file
        { n_file = file; n_summary = summary; n_deps = deps })
    summaries;
  let order = List.map fst summaries in
  let topo = match sort nodes order with o -> Ok o | exception e -> Error e in
  let rank = Hashtbl.create 64 in
  Result.iter (List.iteri (fun i file -> Hashtbl.replace rank file i)) topo;
  { nodes; providers; order; topo; rank }

let build units =
  of_summaries (List.map (fun (file, unit_) -> (file, Scan.scan unit_)) units)

let node t file =
  match Hashtbl.find_opt t.nodes file with
  | Some n -> n
  | None -> manager_error "unknown compilation unit %s" file

let topological t = match t.topo with Ok order -> order | Error e -> raise e

let dependents t file =
  List.filter
    (fun other ->
      List.exists (String.equal file) (node t other).n_deps)
    t.order

let cone t file =
  let result = Hashtbl.create 16 in
  let rec grow file =
    List.iter
      (fun dep ->
        if not (Hashtbl.mem result dep) then begin
          Hashtbl.replace result dep ();
          grow dep
        end)
      (dependents t file)
  in
  grow file;
  List.filter (Hashtbl.mem result) t.order

let closure t file =
  let seen = Hashtbl.create 16 in
  let rec visit file =
    List.iter
      (fun dep ->
        if not (Hashtbl.mem seen dep) then begin
          Hashtbl.replace seen dep ();
          visit dep
        end)
      (node t file).n_deps
  in
  visit file;
  (* read off the sorted order: raises on a cycle, like [topological] *)
  ignore (topological t);
  List.sort
    (fun a b -> Int.compare (Hashtbl.find t.rank a) (Hashtbl.find t.rank b))
    (List.of_seq (Hashtbl.to_seq_keys seen))

let ready t ~completed =
  List.filter
    (fun file ->
      (not (completed file)) && List.for_all completed (node t file).n_deps)
    t.order

let levels t =
  let level = Hashtbl.create 64 in
  let order = topological t in
  List.iter
    (fun file ->
      let d =
        List.fold_left
          (fun acc dep -> max acc (1 + Hashtbl.find level dep))
          0 (node t file).n_deps
      in
      Hashtbl.replace level file d)
    order;
  let deepest = Hashtbl.fold (fun _ d acc -> max acc d) level (-1) in
  List.init (deepest + 1) (fun d ->
      List.filter (fun file -> Hashtbl.find level file = d) order)

let width t =
  List.fold_left (fun acc l -> max acc (List.length l)) 0 (levels t)

let provider t name = Symbol.Table.find_opt t.providers name
let files t = t.order
