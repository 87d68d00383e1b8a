module Crc64 = Digestkit.Crc64

let default_dir = ".irm-profile"
let version = "smlsep-profile-store/1"

(* bounded history: builds retained in full; older ones survive only in
   the per-unit aggregates *)
let history_limit = 16

(* compact the journal into the snapshot past this many appended builds *)
let journal_limit = 8

(* EWMA smoothing: how fast the rolling estimate chases the last build *)
let alpha = 0.3

type unit_profile = {
  up_unit : string;
  up_outcome : string;
      (** recompiled | cutoff | cache | loaded | failed | skipped *)
  up_cause : string option;  (** structured rebuild cause, stale units only *)
  up_culprits : string list;
  up_start_s : float;  (** seconds after build start the unit was prepared *)
  up_wall_s : float;
  up_phases : (string * float) list;
  up_imports : (string * string) list;  (** (dep, interface pid hex) *)
  up_priority : float;
      (** the critical-path priority the scheduler dispatched under
          (0 on wavefront builds and for pre-scheduling records) *)
}

type build_profile = {
  bp_id : int;
  bp_policy : string;
  bp_backend : string;
  bp_wall_s : float;
  bp_jobs : int;
  bp_slot_busy_s : float list;
  bp_schedule : string;  (** [wavefront] or [critical-path] *)
  bp_units : unit_profile list;
}

type agg = {
  ag_builds : int;  (** compiles aggregated (recompiled or cutoff) *)
  ag_ewma_s : float;
  ag_max_s : float;
  ag_last_s : float;
  ag_phases : (string * float) list;  (** per-phase EWMA seconds *)
}

(* a retained build or aggregate beside its canonical JSON line,
   serialized once: when it is recorded or rolled, or on first need for
   one read back from disk *)
type 'a kept = { value : 'a; line : string Lazy.t }

type t = {
  fs : Vfs.fs;
  dir : string;
  mutable next_id : int;
  mutable builds : build_profile kept list;  (** newest first, bounded *)
  aggregates : (string, agg kept) Hashtbl.t;
  mutable journal : string;
  mutable journal_records : int;
}

let store_path t = Filename.concat t.dir "store"
let journal_path t = Filename.concat t.dir "journal"

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

exception Damaged

let jstr = function Json.String s -> s | _ -> raise Damaged
let jint = function Json.Int n -> n | _ -> raise Damaged

let jnum = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> raise Damaged

let jlist = function Json.List l -> l | _ -> raise Damaged
let jobj = function Json.Obj fields -> fields | _ -> raise Damaged

let field name v =
  match Json.member name v with Some x -> x | None -> raise Damaged

(* fields added after stores already existed read back with a default,
   so an old snapshot/journal replays without damage *)
let opt_field name ~default of_json v =
  match Json.member name v with Some x -> of_json x | None -> default

let pairs_json xs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) xs)
let pairs_of_json v = List.map (fun (k, v) -> (k, jnum v)) (jobj v)

let unit_json u =
  Json.Obj
    [
      ("name", Json.String u.up_unit);
      ("outcome", Json.String u.up_outcome);
      ( "cause",
        match u.up_cause with Some c -> Json.String c | None -> Json.Null );
      ("culprits", Json.List (List.map (fun c -> Json.String c) u.up_culprits));
      ("start_s", Json.Float u.up_start_s);
      ("wall_s", Json.Float u.up_wall_s);
      ("phases", pairs_json u.up_phases);
      ( "imports",
        Json.Obj (List.map (fun (d, p) -> (d, Json.String p)) u.up_imports) );
      ("priority", Json.Float u.up_priority);
    ]

let unit_of_json v =
  {
    up_unit = jstr (field "name" v);
    up_outcome = jstr (field "outcome" v);
    up_cause =
      (match field "cause" v with
      | Json.Null -> None
      | Json.String c -> Some c
      | _ -> raise Damaged);
    up_culprits = List.map jstr (jlist (field "culprits" v));
    up_start_s = jnum (field "start_s" v);
    up_wall_s = jnum (field "wall_s" v);
    up_phases = pairs_of_json (field "phases" v);
    up_imports = List.map (fun (d, p) -> (d, jstr p)) (jobj (field "imports" v));
    up_priority = opt_field "priority" ~default:0. jnum v;
  }

let build_json b =
  Json.Obj
    [
      ("id", Json.Int b.bp_id);
      ("policy", Json.String b.bp_policy);
      ("backend", Json.String b.bp_backend);
      ("wall_s", Json.Float b.bp_wall_s);
      ("jobs", Json.Int b.bp_jobs);
      ("slot_busy_s", Json.List (List.map (fun s -> Json.Float s) b.bp_slot_busy_s));
      ("schedule", Json.String b.bp_schedule);
      ("units", Json.List (List.map unit_json b.bp_units));
    ]

let build_of_json v =
  {
    bp_id = jint (field "id" v);
    bp_policy = jstr (field "policy" v);
    bp_backend = jstr (field "backend" v);
    bp_wall_s = jnum (field "wall_s" v);
    bp_jobs = jint (field "jobs" v);
    bp_slot_busy_s = List.map jnum (jlist (field "slot_busy_s" v));
    bp_schedule = opt_field "schedule" ~default:"wavefront" jstr v;
    bp_units = List.map unit_of_json (jlist (field "units" v));
  }

let agg_json a =
  Json.Obj
    [
      ("builds", Json.Int a.ag_builds);
      ("ewma_s", Json.Float a.ag_ewma_s);
      ("max_s", Json.Float a.ag_max_s);
      ("last_s", Json.Float a.ag_last_s);
      ("phases", pairs_json a.ag_phases);
    ]

let agg_of_json v =
  {
    ag_builds = jint (field "builds" v);
    ag_ewma_s = jnum (field "ewma_s" v);
    ag_max_s = jnum (field "max_s" v);
    ag_last_s = jnum (field "last_s" v);
    ag_phases = pairs_of_json (field "phases" v);
  }

(* ------------------------------------------------------------------ *)
(* Persistence: CRC-trailed snapshot + journal, like the cache index   *)
(*                                                                     *)
(* The snapshot ([store]) is two lines — the state as canonical JSON,  *)
(* then the CRC-64 of that line; the journal is one line per recorded  *)
(* build, each [crc64-hex SP build-json].  Both files are only ever    *)
(* written through the atomic-commit protocol, so a crash leaves       *)
(* either the old or the new content in full.  Anything that fails its *)
(* CRC or does not parse is dropped: a damaged store degrades to an    *)
(* empty history, never an error.                                      *)
(* ------------------------------------------------------------------ *)

let crc_hex s = Printf.sprintf "%Lx" (Crc64.of_string s)

let rolled_agg prev wall_s phases =
  match prev with
  | None ->
    {
      ag_builds = 1;
      ag_ewma_s = wall_s;
      ag_max_s = wall_s;
      ag_last_s = wall_s;
      ag_phases = phases;
    }
  | Some a ->
    let roll old now = ((1.0 -. alpha) *. old) +. (alpha *. now) in
    let phase_ewma =
      (* phases seen before roll; brand-new phases enter at face value *)
      let prev_tbl = Hashtbl.create 8 in
      List.iter (fun (n, v) -> Hashtbl.replace prev_tbl n v) a.ag_phases;
      List.map
        (fun (n, now) ->
          match Hashtbl.find_opt prev_tbl n with
          | Some old -> (n, roll old now)
          | None -> (n, now))
        phases
    in
    {
      ag_builds = a.ag_builds + 1;
      ag_ewma_s = roll a.ag_ewma_s wall_s;
      ag_max_s = Float.max a.ag_max_s wall_s;
      ag_last_s = wall_s;
      ag_phases = phase_ewma;
    }

let keep to_json v =
  { value = v; line = lazy (Json.to_canonical_string (to_json v)) }

(* only actual compiles feed the rolling estimate: loads and cache hits
   say nothing about how long the unit takes to compile *)
let apply_build t k =
  let b = k.value in
  t.next_id <- max t.next_id (b.bp_id + 1);
  t.builds <-
    (let kept = k :: t.builds in
     List.filteri (fun i _ -> i < history_limit) kept);
  List.iter
    (fun u ->
      match u.up_outcome with
      | "recompiled" | "cutoff" ->
        let prev =
          Option.map (fun k -> k.value) (Hashtbl.find_opt t.aggregates u.up_unit)
        in
        Hashtbl.replace t.aggregates u.up_unit
          (keep agg_json (rolled_agg prev u.up_wall_s u.up_phases))
      | _ -> ())
    b.bp_units

(* The state as [Json.to_canonical_string] renders it, keys in their
   sorted order (aggregates, builds, next_id, version), with each kept
   line spliced in instead of serialized again. *)
let snapshot_content t =
  let buf = Buffer.create 65536 in
  let sep i = if i > 0 then Buffer.add_char buf ',' in
  let splice k = Buffer.add_string buf (Lazy.force k.line) in
  Buffer.add_string buf "{\"aggregates\":{";
  Hashtbl.fold (fun u k acc -> (u, k) :: acc) t.aggregates []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iteri (fun i (u, k) ->
         sep i;
         Json.to_buffer buf (Json.String u);
         Buffer.add_char buf ':';
         splice k);
  Buffer.add_string buf "},\"builds\":[";
  List.iteri
    (fun i k ->
      sep i;
      splice k)
    (List.rev t.builds);
  Buffer.add_string buf "],\"next_id\":";
  Buffer.add_string buf (string_of_int t.next_id);
  Buffer.add_string buf ",\"version\":";
  Json.to_buffer buf (Json.String version);
  Buffer.add_char buf '}';
  let line = Buffer.contents buf in
  String.concat "" [ line; "\n"; crc_hex line; "\n" ]

let load_snapshot t =
  match t.fs.Vfs.fs_read (store_path t) with
  | None -> ()
  | Some content -> (
    match String.split_on_char '\n' content with
    | line :: crc :: _ when String.trim crc = crc_hex line -> (
      try
        let v = Json.parse line in
        if jstr (field "version" v) <> version then raise Damaged;
        t.next_id <- max 1 (jint (field "next_id" v));
        List.iter
          (fun (u, a) ->
            Hashtbl.replace t.aggregates u (keep agg_json (agg_of_json a)))
          (jobj (field "aggregates" v));
        (* snapshot stores oldest first; [builds] is newest first *)
        t.builds <-
          List.rev_map
            (fun b -> keep build_json (build_of_json b))
            (jlist (field "builds" v))
      with Damaged | Json.Parse_error _ ->
        t.next_id <- 1;
        t.builds <- [];
        Hashtbl.reset t.aggregates)
    | _ -> ())

let load_journal t =
  match t.fs.Vfs.fs_read (journal_path t) with
  | None -> ()
  | Some content ->
    List.iter
      (fun line ->
        match String.index_opt line ' ' with
        | Some sp ->
          let crc = String.sub line 0 sp in
          let body = String.sub line (sp + 1) (String.length line - sp - 1) in
          if String.equal crc (crc_hex body) then (
            try
              apply_build t (keep build_json (build_of_json (Json.parse body)))
            with Damaged | Json.Parse_error _ -> ())
        | None -> ())
      (String.split_on_char '\n' content);
    t.journal <- content;
    (* one record per terminated line: the piece after the final
       newline is not a record *)
    t.journal_records <-
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 content

let load ?(dir = default_dir) fs =
  let t =
    {
      fs;
      dir;
      next_id = 1;
      builds = [];
      aggregates = Hashtbl.create 32;
      journal = "";
      journal_records = 0;
    }
  in
  load_snapshot t;
  load_journal t;
  t

(* write the snapshot, then retire the journal; a crash in between is
   safe — replaying the old journal over the new snapshot is idempotent
   (same build ids, same aggregates... applied twice would double the
   EWMA roll, so replay guards on the id being new) *)
let compact t =
  Vfs.commit t.fs (store_path t) (snapshot_content t);
  t.fs.Vfs.fs_remove (journal_path t);
  t.journal <- "";
  t.journal_records <- 0

(* the build is serialized here once; the journal line and every later
   snapshot reuse that line *)
let record t b =
  let line = Json.to_canonical_string (build_json b) in
  let next = String.concat "" [ t.journal; crc_hex line; " "; line; "\n" ] in
  Vfs.commit t.fs (journal_path t) next;
  t.journal <- next;
  t.journal_records <- t.journal_records + 1;
  apply_build t { value = b; line = Lazy.from_val line };
  if t.journal_records > journal_limit then compact t

let next_id t = t.next_id
let last t = match t.builds with [] -> None | k :: _ -> Some k.value
let builds t = List.rev_map (fun k -> k.value) t.builds

let aggregate t unit_ =
  Option.map (fun k -> k.value) (Hashtbl.find_opt t.aggregates unit_)

(* has the store ever seen this unit produce a result?  (used to tell
   an [evicted] bin apart from a [first-build]) *)
let known t unit_ =
  Hashtbl.mem t.aggregates unit_
  || List.exists
       (fun k ->
         List.exists
           (fun u ->
             String.equal u.up_unit unit_
             && (match u.up_outcome with
                | "recompiled" | "cutoff" | "cache" | "loaded" -> true
                | _ -> false))
           k.value.bp_units)
       t.builds

let store_bytes t =
  let size path =
    match t.fs.Vfs.fs_read path with Some s -> String.length s | None -> 0
  in
  size (store_path t) + size (journal_path t)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let find_unit b name =
  List.find_opt (fun u -> String.equal u.up_unit name) b.bp_units

(* the longest wall-clock chain through the build's import DAG: what
   bounds the build below no matter how many slots run *)
let critical_path b =
  let by_name = Hashtbl.create 32 in
  List.iter (fun u -> Hashtbl.replace by_name u.up_unit u) b.bp_units;
  let memo : (string, float * unit_profile list) Hashtbl.t =
    Hashtbl.create 32
  in
  let rec chain u =
    match Hashtbl.find_opt memo u.up_unit with
    | Some c -> c
    | None ->
      (* builds come from a DAG, so recursion terminates; seed the memo
         to be safe against a damaged store with an import cycle *)
      Hashtbl.replace memo u.up_unit (u.up_wall_s, [ u ]);
      let best =
        List.fold_left
          (fun acc (dep, _) ->
            match Hashtbl.find_opt by_name dep with
            | Some d when not (String.equal d.up_unit u.up_unit) ->
              let total, path = chain d in
              (match acc with
              | Some (best_total, _) when best_total >= total -> acc
              | _ -> Some (total, path))
            | Some _ | None -> acc)
          None u.up_imports
      in
      let c =
        match best with
        | None -> (u.up_wall_s, [ u ])
        | Some (total, path) -> (total +. u.up_wall_s, path @ [ u ])
      in
      Hashtbl.replace memo u.up_unit c;
      c
  in
  let best =
    List.fold_left
      (fun acc u ->
        let total, path = chain u in
        match acc with
        | Some (best_total, _) when best_total >= total -> acc
        | _ -> Some (total, path))
      None b.bp_units
  in
  match best with None -> [] | Some (_, path) -> path

(* busy slot-seconds over available slot-seconds: 1.0 means every slot
   compiled the whole time, low values mean the DAG (or the tail) left
   slots idle *)
let efficiency b =
  let busy = List.fold_left ( +. ) 0.0 b.bp_slot_busy_s in
  let total = float_of_int (max 1 b.bp_jobs) *. b.bp_wall_s in
  if total <= 0.0 then None else Some (Float.min 1.0 (busy /. total))
