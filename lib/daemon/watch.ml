(* per-file fingerprint from the last sweep: the mtime observed and the
   content digest ("" = the file was absent) *)
type mark = { mk_mtime : int option; mk_digest : string }

type t = {
  fs : Vfs.fs;
  mutable files : string list;  (** tracking order *)
  marks : (string, mark) Hashtbl.t;
}

let digest_of fs file =
  match fs.Vfs.fs_read file with
  | Some content -> Digestkit.Md5.digest_string content
  | None -> ""

let mark_of fs file =
  { mk_mtime = fs.Vfs.fs_mtime file; mk_digest = digest_of fs file }

let create fs = { fs; files = []; marks = Hashtbl.create 16 }

let track t files =
  let keep = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace keep f ()) files;
  Hashtbl.filter_map_inplace
    (fun f mark -> if Hashtbl.mem keep f then Some mark else None)
    t.marks;
  List.iter
    (fun f ->
      if not (Hashtbl.mem t.marks f) then
        Hashtbl.replace t.marks f (mark_of t.fs f))
    files;
  t.files <- files

let tracked t = t.files

let sweep t =
  (* mtimes have one-second granularity: an mtime equal to the current
     second may still be mid-edit, so only strictly-past mtimes take
     the no-read fast path *)
  let now = int_of_float (Unix.gettimeofday ()) in
  List.filter
    (fun file ->
      match Hashtbl.find_opt t.marks file with
      | None -> false (* untracked: track() races a sweep; ignore *)
      | Some mark -> (
        let mtime = t.fs.Vfs.fs_mtime file in
        let settled =
          match mtime with Some m -> m < now | None -> true
        in
        if settled && mark.mk_mtime = mtime && mark.mk_digest <> "" then false
        else
          let digest = digest_of t.fs file in
          let changed = not (String.equal digest mark.mk_digest) in
          if changed || mark.mk_mtime <> mtime then
            Hashtbl.replace t.marks file { mk_mtime = mtime; mk_digest = digest };
          changed))
    t.files
