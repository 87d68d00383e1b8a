module Pid = Digestkit.Pid
module Md5 = Digestkit.Md5

let default_dir = ".irm-cache"
let default_budget = 64 * 1024 * 1024

(* compact the records back into the index snapshot past this many: a
   load reads each one as its own file *)
let journal_limit = 128

let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_evictions = Obs.Metrics.counter "cache.evictions"
let m_stores = Obs.Metrics.counter "cache.stores"
let m_orphans = Obs.Metrics.counter "cache.orphans_reclaimed"
let m_invalidated = Obs.Metrics.counter "cache.invalidated"
let g_bytes = Obs.Metrics.gauge "cache.bytes"
let g_entries = Obs.Metrics.gauge "cache.entries"

type entry = { mutable e_size : int; mutable e_used : int }

type t = {
  fs : Vfs.fs;
  dir : string;
  budget : int;
  entries : (string, entry) Hashtbl.t;
  mutable clock : int;  (** logical LRU clock, persisted in the index *)
  mutable bytes : int;
  log : Vfs.Journal.t;  (** [index] snapshot + [journal.<n>] segments *)
}

type stats = {
  cs_entries : int;
  cs_bytes : int;
  cs_budget : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_stores : int;
  cs_invalidated : int;
}

type gc_report = {
  gc_evicted : int;
  gc_orphans : int;
  gc_reclaimed_bytes : int;
}

let objects_dir t = Filename.concat t.dir "objects"
let object_path t key = Filename.concat (objects_dir t) key

(* keys are hex digests, but never trust the index: a key that could
   escape the objects directory is ignored *)
let key_ok key =
  key <> ""
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       key

(* ------------------------------------------------------------------ *)
(* Persistence: the codec of a {!Vfs.Journal} store                    *)
(*                                                                     *)
(* The index is the snapshot ([key size used] lines); the records     *)
(* appended since are [+ key size used], [- key] and [@ key used].     *)
(* A crash anywhere leaves a state that loads as some prefix of the    *)
(* true history — at worst an entry degrades to a miss or an object    *)
(* is orphaned for [gc] to reclaim.  Anything that does not parse is   *)
(* dropped silently: a damaged cache is an empty cache, never an       *)
(* error.                                                              *)
(* ------------------------------------------------------------------ *)

let apply_add t key size used =
  (match Hashtbl.find_opt t.entries key with
  | Some old -> t.bytes <- t.bytes - old.e_size
  | None -> ());
  Hashtbl.replace t.entries key { e_size = size; e_used = used };
  t.bytes <- t.bytes + size;
  t.clock <- max t.clock used

let apply_del t key =
  match Hashtbl.find_opt t.entries key with
  | Some entry ->
    Hashtbl.remove t.entries key;
    t.bytes <- t.bytes - entry.e_size
  | None -> ()

let apply_touch t key used =
  match Hashtbl.find_opt t.entries key with
  | Some entry ->
    entry.e_used <- used;
    t.clock <- max t.clock used
  | None -> ()

(* a snapshot line is an add record without its [+] *)
let replay t line =
  match String.split_on_char ' ' (String.trim line) with
  | ([ "+"; key; size; used ] | [ key; size; used ]) when key_ok key -> (
    match (int_of_string_opt size, int_of_string_opt used) with
    | Some size, Some used when size >= 0 -> apply_add t key size used
    | _ -> ())
  | [ "-"; key ] when key_ok key -> apply_del t key
  | [ "@"; key; used ] when key_ok key -> (
    match int_of_string_opt used with
    | Some used -> apply_touch t key used
    | None -> ())
  | _ -> ()

let snapshot_content t =
  let buf = Buffer.create 256 in
  Hashtbl.iter
    (fun key entry ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d\n" key entry.e_size entry.e_used))
    t.entries;
  Buffer.contents buf

let compact t = Vfs.Journal.compact t.log (snapshot_content t)

(* the record is on disk before [apply] changes the state, and a
   compaction it triggers snapshots the state with it *)
let append t record apply =
  Vfs.Journal.append t.log record ~apply ~snapshot:(fun () ->
      snapshot_content t)

let publish t =
  Obs.Metrics.set g_bytes t.bytes;
  Obs.Metrics.set g_entries (Hashtbl.length t.entries)

let create ?(dir = default_dir) ?(budget_bytes = default_budget) fs =
  let t =
    {
      fs;
      dir;
      budget = max 0 budget_bytes;
      entries = Hashtbl.create 64;
      clock = 0;
      bytes = 0;
      log =
        Vfs.Journal.create fs
          ~snapshot:(Filename.concat dir "index")
          ~journal:(Filename.concat dir "journal")
          ~limit:journal_limit ~keep:0;
    }
  in
  Option.iter
    (fun index -> List.iter (replay t) (String.split_on_char '\n' index))
    (Vfs.Journal.snapshot t.log);
  Vfs.Journal.replay t.log (replay t);
  publish t;
  t

let key ~version ~name ~source ~import_pids =
  let ctx = Md5.init () in
  Md5.feed_string ctx "smlsep-cache/1\n";
  Md5.feed_string ctx version;
  Md5.feed_string ctx "\x00";
  Md5.feed_string ctx name;
  Md5.feed_string ctx "\x00";
  Md5.feed_string ctx source;
  Md5.feed_string ctx "\x00";
  List.iter
    (fun pid -> Md5.feed_string ctx (Pid.to_bytes pid))
    (List.sort_uniq Pid.compare import_pids);
  Md5.hex (Md5.finish ctx)

(* Drop an entry: the index forgets it first (journal record), then the
   object goes.  If the removal fails or the process dies in between,
   the object is merely orphaned — [gc] reclaims it later. *)
let drop t key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some _ ->
    append t (Printf.sprintf "- %s" key) (fun () -> apply_del t key);
    (try t.fs.Vfs.fs_remove (object_path t key) with
    | Vfs.Fault _ | Sys_error _ -> ())

(* evict least-recently-used entries until the budget holds *)
let enforce_budget t =
  let evicted = ref 0 in
  while t.bytes > t.budget && Hashtbl.length t.entries > 0 do
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.e_used <= entry.e_used -> acc
          | Some _ | None -> Some (key, entry))
        t.entries None
    in
    match victim with
    | Some (key, _) ->
      drop t key;
      incr evicted;
      Obs.Metrics.incr m_evictions
    | None -> ()
  done;
  !evicted

let touch t key entry =
  t.clock <- t.clock + 1;
  entry.e_used <- t.clock;
  append t (Printf.sprintf "@ %s %d" key t.clock) ignore

let find t key =
  let result =
    match Hashtbl.find_opt t.entries key with
    | None -> None
    | Some entry -> (
      match t.fs.Vfs.fs_read (object_path t key) with
      | Some bytes when String.length bytes = entry.e_size ->
        touch t key entry;
        Some bytes
      | Some _ | None ->
        (* object missing or truncated behind our back (a crashed
           store, a concurrent eviction): degrade to a miss *)
        drop t key;
        None)
  in
  (match result with
  | Some _ -> Obs.Metrics.incr m_hits
  | None -> Obs.Metrics.incr m_misses);
  publish t;
  result

(* Store: object bytes are committed before the index learns the key.
   A crash between the two leaves an orphan object — invisible to
   lookups, reclaimed by [gc] — never an index entry pointing at
   missing or torn bytes. *)
let store t key bytes =
  let size = String.length bytes in
  if size <= t.budget then begin
    drop t key;
    Vfs.commit t.fs (object_path t key) bytes;
    t.clock <- t.clock + 1;
    append t (Printf.sprintf "+ %s %d %d" key size t.clock) (fun () ->
        apply_add t key size t.clock);
    Obs.Metrics.incr m_stores;
    ignore (enforce_budget t);
    publish t
  end

let invalidate t key =
  if Hashtbl.mem t.entries key then Obs.Metrics.incr m_invalidated;
  drop t key;
  publish t

type ops = {
  o_find : string -> string option;
  o_store : string -> string -> unit;
  o_invalidate : string -> unit;
}

let ops t =
  { o_find = find t; o_store = store t; o_invalidate = invalidate t }

let gc t =
  let evicted = enforce_budget t in
  compact t;
  (* reclaim orphans: objects the index does not know (a store that
     crashed between object commit and index update) and staging files
     left by interrupted commits *)
  let objects_prefix = objects_dir t ^ "/" in
  let dir_prefix = t.dir ^ "/" in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.equal (String.sub s 0 (String.length prefix)) prefix
  in
  let orphans = ref 0 in
  let reclaimed = ref 0 in
  List.iter
    (fun path ->
      let orphan_object =
        starts_with objects_prefix path
        && (not (Vfs.is_commit_temp path))
        && not
             (Hashtbl.mem t.entries
                (String.sub path (String.length objects_prefix)
                   (String.length path - String.length objects_prefix)))
      in
      let stale_temp = starts_with dir_prefix path && Vfs.is_commit_temp path in
      if orphan_object || stale_temp then begin
        (match t.fs.Vfs.fs_read path with
        | Some bytes -> reclaimed := !reclaimed + String.length bytes
        | None -> ());
        incr orphans;
        Obs.Metrics.incr m_orphans;
        t.fs.Vfs.fs_remove path
      end)
    (t.fs.Vfs.fs_list ());
  publish t;
  { gc_evicted = evicted; gc_orphans = !orphans; gc_reclaimed_bytes = !reclaimed }

let clear t =
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.entries [] in
  List.iter (drop t) keys;
  compact t;
  publish t

let stats t =
  {
    cs_entries = Hashtbl.length t.entries;
    cs_bytes = t.bytes;
    cs_budget = t.budget;
    cs_hits = Obs.Metrics.value m_hits;
    cs_misses = Obs.Metrics.value m_misses;
    cs_evictions = Obs.Metrics.value m_evictions;
    cs_stores = Obs.Metrics.value m_stores;
    cs_invalidated = Obs.Metrics.value m_invalidated;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "entries   %d@.bytes     %d / %d budget@.hits      %d@.misses    \
     %d@.evictions %d@.stores    %d@.invalidated %d@."
    s.cs_entries s.cs_bytes s.cs_budget s.cs_hits s.cs_misses s.cs_evictions
    s.cs_stores s.cs_invalidated

let pp_gc_report ppf r =
  Format.fprintf ppf "evicted   %d@.orphans   %d@.reclaimed %d bytes@."
    r.gc_evicted r.gc_orphans r.gc_reclaimed_bytes
