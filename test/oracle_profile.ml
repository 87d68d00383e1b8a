(* The profile store's persistence as it was before each build kept its
   serialized line: every compaction re-serializes the whole state
   (aggregates and every retained build) with the JSON emitter of the time.
   Kept as a test oracle: [Obs.Profile] must write byte-identical
   snapshots and journals for the same sequence of records. *)

open Obs.Profile
module Json = Obs.Json
module Crc64 = Digestkit.Crc64

let version = "smlsep-profile-store/1"
let history_limit = 16
let journal_limit = 8
let alpha = 0.3

type t = {
  fs : Vfs.fs;
  dir : string;
  mutable next_id : int;
  mutable builds : build_profile list;  (** newest first, bounded *)
  aggregates : (string, agg) Hashtbl.t;
  mutable journal : string;
  mutable journal_records : int;
}

let store_path t = Filename.concat t.dir "store"
let journal_path t = Filename.concat t.dir "journal"

(* the JSON emitter as it was: a [Printf] per float, and every string
   escaped character by character *)
module Emit = struct
  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_to buf f =
    if Float.is_finite f then begin
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s;
      if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
        Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null"

  let rec to_buffer buf (v : Json.t) =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> float_to buf f
    | String s -> escape_to buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf key;
          Buffer.add_char buf ':';
          to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buffer buf v;
    Buffer.contents buf

  let rec canonical (v : Json.t) : Json.t =
    match v with
    | Obj fields ->
      Obj
        (List.map (fun (k, v) -> (k, canonical v)) fields
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
    | List items -> List (List.map canonical items)
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> v

  let to_canonical_string v = to_string (canonical v)
end

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

(* only actual compiles feed the rolling estimate: loads and cache hits
   say nothing about how long the unit takes to compile *)
let apply_build t b =
  t.next_id <- max t.next_id (b.bp_id + 1);
  t.builds <-
    (let kept = b :: t.builds in
     List.filteri (fun i _ -> i < history_limit) kept);
  List.iter
    (fun u ->
      match u.up_outcome with
      | "recompiled" | "cutoff" ->
        Hashtbl.replace t.aggregates u.up_unit
          (rolled_agg (Hashtbl.find_opt t.aggregates u.up_unit) u.up_wall_s
             u.up_phases)
      | _ -> ())
    b.bp_units

let snapshot_content t =
  let state =
    Json.Obj
      [
        ("version", Json.String version);
        ("next_id", Json.Int t.next_id);
        ( "aggregates",
          Json.Obj
            (Hashtbl.fold (fun u a acc -> (u, agg_json a) :: acc) t.aggregates []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)) );
        ("builds", Json.List (List.rev_map build_json t.builds));
      ]
  in
  let line = Emit.to_canonical_string state in
  line ^ "\n" ^ crc_hex line ^ "\n"

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
          (fun (u, a) -> Hashtbl.replace t.aggregates u (agg_of_json a))
          (jobj (field "aggregates" v));
        (* snapshot stores oldest first; [builds] is newest first *)
        t.builds <- List.rev_map build_of_json (jlist (field "builds" v))
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
            try apply_build t (build_of_json (Json.parse body))
            with Damaged | Json.Parse_error _ -> ())
        | None -> ())
      (String.split_on_char '\n' content);
    t.journal <- content;
    (* one record per terminated line: the piece after the final
       newline is not a record *)
    t.journal_records <-
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 content

let load ?(dir = Obs.Profile.default_dir) fs =
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

let record t b =
  let line = Emit.to_canonical_string (build_json b) in
  let next = t.journal ^ crc_hex line ^ " " ^ line ^ "\n" in
  Vfs.commit t.fs (journal_path t) next;
  t.journal <- next;
  t.journal_records <- t.journal_records + 1;
  apply_build t b;
  if t.journal_records > journal_limit then compact t

let builds t = List.rev t.builds
