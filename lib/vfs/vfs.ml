type fs = {
  fs_read : string -> string option;
  fs_write : string -> string -> unit;
  fs_mtime : string -> int option;
  fs_remove : string -> unit;
  fs_rename : string -> string -> unit;
  fs_list : unit -> string list;
}

exception Fault of { fault_op : string; fault_path : string; fault_transient : bool }
exception Crash of { crash_op : string; crash_path : string }

let memory () =
  let files : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  let clock = ref 0 in
  {
    fs_read = (fun path -> Option.map fst (Hashtbl.find_opt files path));
    fs_write =
      (fun path content ->
        incr clock;
        Hashtbl.replace files path (content, !clock));
    fs_mtime = (fun path -> Option.map snd (Hashtbl.find_opt files path));
    fs_remove = (fun path -> Hashtbl.remove files path);
    fs_rename =
      (fun src dst ->
        match Hashtbl.find_opt files src with
        | None -> raise (Sys_error (Printf.sprintf "rename: %s not found" src))
        | Some (content, _) ->
          (* a rename is a single table mutation: it either happens or it
             does not — never a torn in-between, mirroring POSIX rename *)
          incr clock;
          Hashtbl.remove files src;
          Hashtbl.replace files dst (content, !clock));
    fs_list =
      (fun () ->
        Hashtbl.fold (fun path _ acc -> path :: acc) files []
        |> List.sort String.compare);
  }

let touch fs path =
  match fs.fs_read path with
  | Some content -> fs.fs_write path content
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Atomic commit protocol                                              *)
(* ------------------------------------------------------------------ *)

let commit_path path = path ^ ".#commit"

let is_commit_temp path =
  let suffix = ".#commit" in
  let n = String.length path and k = String.length suffix in
  n >= k && String.equal (String.sub path (n - k) k) suffix

let commit fs path content =
  let tmp = commit_path path in
  fs.fs_write tmp content;
  fs.fs_rename tmp path

(* ------------------------------------------------------------------ *)
(* Snapshot + journal stores                                           *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  type t = {
    fs : fs;
    snapshot_path : string;
    journal_path : string;
    limit : int;
    keep : int;
    mutable head : int;  (** the first live segment *)
    mutable next : int;  (** the segment the next record is committed as *)
    mutable legacy : bool;
        (** no header was read: the snapshot, if any, is in the legacy
            format, beside its records in the single [journal_path] *)
  }

  let create fs ~snapshot ~journal ~limit ~keep =
    {
      fs;
      snapshot_path = snapshot;
      journal_path = journal;
      limit;
      keep;
      head = 1;
      next = 1;
      legacy = true;
    }

  let segment t n = t.journal_path ^ "." ^ string_of_int n
  let header = "journal-head "

  (* the live segments are the top run of numbers on disk, since [next]
     only grows: a snapshot that lost its header finds its head again
     by listing them *)
  let listed_head t =
    let prefix = t.journal_path ^ "." in
    let numbers =
      List.filter_map
        (fun path ->
          if String.starts_with ~prefix path then
            int_of_string_opt
              (String.sub path (String.length prefix)
                 (String.length path - String.length prefix))
          else None)
        (t.fs.fs_list ())
    in
    let rec down n = if List.mem (n - 1) numbers then down (n - 1) else n in
    match List.fold_left max 0 numbers with 0 -> 1 | top -> down top

  let snapshot t =
    match t.fs.fs_read t.snapshot_path with
    | None -> None
    | Some s when String.starts_with ~prefix:header s -> (
      let k = String.length header in
      let nl = Option.value ~default:k (String.index_from_opt s k '\n') in
      match int_of_string_opt (String.sub s k (nl - k)) with
      | Some head ->
        t.head <- max 1 head;
        t.legacy <- false;
        Some (String.sub s (nl + 1) (String.length s - nl - 1))
      | None ->
        t.head <- listed_head t;
        None)
    | Some s when String.starts_with ~prefix:s header ->
      (* empty, or torn inside its header *)
      t.head <- listed_head t;
      None
    | Some _ as legacy -> legacy

  (* a segment is one record and its newline; anything else is torn *)
  let replay t record =
    (if t.legacy then
       match t.fs.fs_read t.journal_path with
       | Some text -> (
         (* the piece after the final newline is torn: dropped, so no
            record lands on it *)
         match String.rindex_opt text '\n' with
         | Some last ->
           List.iter record (String.split_on_char '\n' (String.sub text 0 last))
         | None -> ())
       | None -> ());
    let rec from n =
      match t.fs.fs_read (segment t n) with
      | None -> t.next <- n
      | Some s ->
        let len = String.length s in
        if String.index_opt s '\n' = Some (len - 1) then
          record (String.sub s 0 (len - 1));
        from (n + 1)
    in
    from t.head

  (* commit the snapshot naming the new head, then retire the legacy
     format's journal (every time: a crash may have left it beside a
     snapshot with a head) and every segment below the head, oldest
     first: a crash part-way leaves a run of orphans just below the
     head, which the next compaction finds by probing down from it *)
  let compact t content =
    let head = max t.head (t.next - t.keep) in
    commit t.fs t.snapshot_path
      (String.concat "" [ header; string_of_int head; "\n"; content ]);
    let rec floor n =
      if n > 1 && t.fs.fs_mtime (segment t (n - 1)) <> None then floor (n - 1)
      else n
    in
    let from = floor t.head in
    t.head <- head;
    t.legacy <- false;
    t.fs.fs_remove t.journal_path;
    for n = from to head - 1 do
      t.fs.fs_remove (segment t n)
    done

  let append t record ~apply ~snapshot =
    commit t.fs (segment t t.next) (record ^ "\n");
    t.next <- t.next + 1;
    apply ();
    if t.next - t.head > t.keep + t.limit then compact t (snapshot ())

  let bytes t =
    let size path =
      match t.fs.fs_read path with Some s -> String.length s | None -> 0
    in
    let rec segments n acc =
      if n >= t.next then acc else segments (n + 1) (acc + size (segment t n))
    in
    size t.snapshot_path
    + (if t.legacy then size t.journal_path else 0)
    + segments t.head 0
end

(* ------------------------------------------------------------------ *)
(* The host file system                                                *)
(* ------------------------------------------------------------------ *)

let real ~dir =
  let join path = Filename.concat dir path in
  let rec mkdirs d =
    match Unix.mkdir d 0o755 with
    | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _)
      when Filename.dirname d <> d ->
      mkdirs (Filename.dirname d);
      mkdirs d
  in
  (* a missing parent directory shows as [ENOENT] on the first try; it
     is made then, never looked for beforehand.  Errors leave as
     [Sys_error], as the channel functions raise them *)
  let with_parent full f =
    try
      match f () with
      | () -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        mkdirs (Filename.dirname full);
        f ()
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" full (Unix.error_message e)))
  in
  (* the checked paths: pre-stat, then read or stat.  Every errno the
     fast paths below do not decide lands here, so a path the pre-stat
     cannot see (EACCES on a directory) reads as absent and an
     unreadable file raises [Sys_error] *)
  let read_checked full =
    if Sys.file_exists full && not (Sys.is_directory full) then begin
      let ic = open_in_bin full in
      let n = in_channel_length ic in
      let content = really_input_string ic n in
      close_in ic;
      Some content
    end
    else None
  in
  let mtime_checked full =
    if Sys.file_exists full then
      Some (int_of_float (Unix.stat full).Unix.st_mtime)
    else None
  in
  (* fill one buffer of the size fstat reported; a file that shrank
     under us reads as what was there *)
  let read_fd fd size =
    let buf = Bytes.create size in
    let rec fill off =
      if off >= size then off
      else
        match Unix.read fd buf off (size - off) with
        | 0 -> off
        | k -> fill (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
    in
    let n = fill 0 in
    if n = size then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 n
  in
  (* open, fstat, read, close: no pre-stat and no channel buffer.  A
     missing file, a directory and a path through a regular file read
     as absent, as the checked path has them *)
  let read path =
    let full = join path in
    match Unix.openfile full [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> None
    | exception Unix.Unix_error _ -> read_checked full
    | fd -> (
      match
        let st = Unix.fstat fd in
        if st.Unix.st_kind = Unix.S_DIR then None
        else Some (read_fd fd st.Unix.st_size)
      with
      | content ->
        Unix.close fd;
        content
      | exception Unix.Unix_error _ ->
        Unix.close fd;
        read_checked full)
  in
  let write_fd fd content =
    let rec drain off =
      if off < String.length content then
        match
          Unix.single_write_substring fd content off (String.length content - off)
        with
        | k -> drain (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain off
    in
    drain 0
  in
  (* a plain write: staging is {!commit}'s job, so a write that dies
     part-way leaves a torn file under [path] *)
  let write path content =
    let full = join path in
    with_parent full (fun () ->
        let fd =
          Unix.openfile full
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            0o666
        in
        match write_fd fd content with
        | () -> Unix.close fd
        | exception e ->
          Unix.close fd;
          raise e)
  in
  let mtime path =
    let full = join path in
    match Unix.stat full with
    | st -> Some (int_of_float st.Unix.st_mtime)
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> None
    | exception Unix.Unix_error _ -> mtime_checked full
  in
  let remove path =
    (* already-missing files are fine: removal is idempotent *)
    try Sys.remove (join path) with Sys_error _ -> ()
  in
  let rename src dst =
    let full_dst = join dst in
    with_parent full_dst (fun () -> Unix.rename (join src) full_dst)
  in
  let list () =
    let rec walk prefix acc =
      let dirpath = if prefix = "" then dir else Filename.concat dir prefix in
      Array.fold_left
        (fun acc entry ->
          let rel = if prefix = "" then entry else Filename.concat prefix entry in
          let full = Filename.concat dir rel in
          if Sys.is_directory full then walk rel acc else rel :: acc)
        acc (Sys.readdir dirpath)
    in
    if Sys.file_exists dir then List.sort String.compare (walk "" []) else []
  in
  {
    fs_read = read;
    fs_write = write;
    fs_mtime = mtime;
    fs_remove = remove;
    fs_rename = rename;
    fs_list = list;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

type fault =
  | Write_fail of int
  | Write_torn of int * int
  | Write_crash of int * int
  | Read_corrupt of int
  | Remove_fail of int
  | Rename_fail of int

let fault_name = function
  | Write_fail n -> Printf.sprintf "write-fail@%d" n
  | Write_torn (n, k) -> Printf.sprintf "write-torn@%d/%d" n k
  | Write_crash (n, k) -> Printf.sprintf "write-crash@%d/%d" n k
  | Read_corrupt n -> Printf.sprintf "read-corrupt@%d" n
  | Remove_fail n -> Printf.sprintf "remove-fail@%d" n
  | Rename_fail n -> Printf.sprintf "rename-fail@%d" n

type op = { op_kind : string; op_path : string; op_fault : string option }

type injector = {
  i_lock : Mutex.t;
  mutable i_log : op list;  (** newest first *)
  mutable i_reads : int;
  mutable i_writes : int;
  mutable i_removes : int;
  mutable i_renames : int;
  mutable i_fired : int;
  mutable i_crashed : bool;
  i_plan : fault list;
}

let oplog inj = Mutex.protect inj.i_lock (fun () -> List.rev inj.i_log)
let writes inj = Mutex.protect inj.i_lock (fun () -> inj.i_writes)
let faults_fired inj = Mutex.protect inj.i_lock (fun () -> inj.i_fired)
let crashed inj = Mutex.protect inj.i_lock (fun () -> inj.i_crashed)

(* flip one byte of [content], deterministically from [salt] *)
let corrupt_content ~salt content =
  if String.length content = 0 then content
  else begin
    let bytes = Bytes.of_string content in
    let i = salt mod Bytes.length bytes in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x5A));
    Bytes.to_string bytes
  end

let faulty ?(only = fun _ -> true) ~plan fs =
  let inj =
    {
      i_lock = Mutex.create ();
      i_log = [];
      i_reads = 0;
      i_writes = 0;
      i_removes = 0;
      i_renames = 0;
      i_fired = 0;
      i_crashed = false;
      i_plan = plan;
    }
  in
  (* count the op (if its path is eligible) and return the fault the
     plan schedules for it, logging either way.  Once a crash fault has
     fired the "process" is dead: nothing further reaches the backing
     store — every subsequent operation just raises {!Crash} again. *)
  let step kind path pick =
    Mutex.protect inj.i_lock (fun () ->
        if inj.i_crashed then
          raise (Crash { crash_op = kind; crash_path = path });
        let fault =
          if only path then begin
            let nth = pick () in
            List.find_opt
              (fun f ->
                match (kind, f) with
                | "write", (Write_fail n | Write_torn (n, _) | Write_crash (n, _))
                  -> n = nth
                | "read", Read_corrupt n -> n = nth
                | "remove", Remove_fail n -> n = nth
                | "rename", Rename_fail n -> n = nth
                | _ -> false)
              inj.i_plan
          end
          else None
        in
        if fault <> None then inj.i_fired <- inj.i_fired + 1;
        inj.i_log <-
          { op_kind = kind; op_path = path; op_fault = Option.map fault_name fault }
          :: inj.i_log;
        fault)
  in
  let wrapped =
    {
      fs_read =
        (fun path ->
          let fault =
            step "read" path (fun () ->
                inj.i_reads <- inj.i_reads + 1;
                inj.i_reads)
          in
          let result = fs.fs_read path in
          match fault with
          | Some (Read_corrupt n) ->
            Option.map (corrupt_content ~salt:n) result
          | _ -> result);
      fs_write =
        (fun path content ->
          let fault =
            step "write" path (fun () ->
                inj.i_writes <- inj.i_writes + 1;
                inj.i_writes)
          in
          match fault with
          | Some (Write_fail _) ->
            raise
              (Fault
                 { fault_op = "write"; fault_path = path; fault_transient = true })
          | Some (Write_torn (_, k)) ->
            fs.fs_write path (String.sub content 0 (min k (String.length content)))
          | Some (Write_crash (_, k)) ->
            (* the dying process got k bytes onto disk, then vanished *)
            fs.fs_write path (String.sub content 0 (min k (String.length content)));
            Mutex.protect inj.i_lock (fun () -> inj.i_crashed <- true);
            raise (Crash { crash_op = "write"; crash_path = path })
          | _ -> fs.fs_write path content);
      fs_mtime =
        (fun path ->
          Mutex.protect inj.i_lock (fun () ->
              if inj.i_crashed then
                raise (Crash { crash_op = "mtime"; crash_path = path }));
          fs.fs_mtime path);
      fs_remove =
        (fun path ->
          let fault =
            step "remove" path (fun () ->
                inj.i_removes <- inj.i_removes + 1;
                inj.i_removes)
          in
          match fault with
          | Some (Remove_fail _) ->
            raise
              (Fault
                 { fault_op = "remove"; fault_path = path; fault_transient = true })
          | _ -> fs.fs_remove path);
      fs_rename =
        (fun src dst ->
          let fault =
            step "rename" src (fun () ->
                inj.i_renames <- inj.i_renames + 1;
                inj.i_renames)
          in
          match fault with
          | Some (Rename_fail _) ->
            raise
              (Fault
                 { fault_op = "rename"; fault_path = src; fault_transient = true })
          | _ -> fs.fs_rename src dst);
      fs_list =
        (fun () ->
          Mutex.protect inj.i_lock (fun () ->
              if inj.i_crashed then
                raise (Crash { crash_op = "list"; crash_path = "" }));
          fs.fs_list ());
    }
  in
  (wrapped, inj)

let seeded_plan ~seed ~ops =
  let state = Random.State.make [| seed; ops; 0x5EED |] in
  let ops = max 1 ops in
  let n_faults = 1 + Random.State.int state 4 in
  List.init n_faults (fun _ ->
      let at = 1 + Random.State.int state ops in
      match Random.State.int state 6 with
      | 0 -> Write_fail at
      | 1 -> Write_torn (at, Random.State.int state 64)
      | 2 -> Write_crash (at, Random.State.int state 64)
      | 3 -> Read_corrupt at
      | 4 -> Remove_fail at
      | _ -> Rename_fail at)
