let lock_file = ".irm-lock"

exception Held of { lock_path : string; holder : string }

type t = { l_fd : Unix.file_descr; l_path : string; mutable l_released : bool }

let read_holder path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> String.trim contents
  | exception Sys_error _ -> ""

(* POSIX record locks never conflict with their own process, so a
   second acquire from the same process would silently succeed — track
   held paths locally and refuse those too *)
let held_local : (string, unit) Hashtbl.t = Hashtbl.create 4
let local_mutex = Mutex.create ()

let acquire ~dir =
  Obs.Trace.span ~cat:"lock" "lock.acquire" @@ fun () ->
  let path = Filename.concat dir lock_file in
  Mutex.protect local_mutex (fun () ->
      if Hashtbl.mem held_local path then
        raise
          (Held { lock_path = path; holder = string_of_int (Unix.getpid ()) }));
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () ->
    (* record who holds it, for the diagnostic the loser prints: a
       fixed-width line overwrites the last holder's in place, so only
       a file of another size (new, old-format, foreign) is truncated *)
    let pid = Printf.sprintf "%10d\n" (Unix.getpid ()) in
    (try
       if (Unix.fstat fd).Unix.st_size <> String.length pid then
         Unix.ftruncate fd 0
     with Unix.Unix_error _ -> ());
    ignore (Unix.write_substring fd pid 0 (String.length pid));
    Mutex.protect local_mutex (fun () -> Hashtbl.replace held_local path ());
    { l_fd = fd; l_path = path; l_released = false }
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    raise (Held { lock_path = path; holder = read_holder path })

let release t =
  if not t.l_released then begin
    t.l_released <- true;
    Mutex.protect local_mutex (fun () -> Hashtbl.remove held_local t.l_path);
    (* dropping the fd drops the lockf lock *)
    try Unix.close t.l_fd with Unix.Unix_error _ -> ()
  end

let with_lock ~dir f =
  let rec wait n =
    try acquire ~dir
    with Held _ when n > 0 ->
      Unix.sleepf 0.05;
      wait (n - 1)
  in
  let t = wait 20 in
  Fun.protect ~finally:(fun () -> release t) f
