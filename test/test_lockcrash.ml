(* Crash recovery for the advisory build lock.  The lock is a
   [Unix.lockf] record, so the kernel releases it with the holding
   process — a SIGKILL'd builder must never leave the directory
   unbuildable.  These tests fork real child processes, so they live
   in the worker executable (the main suite creates domains, which
   forbids fork). *)

module Lock = Daemon.Lock

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* [f] runs on a fresh directory, which is removed when it returns *)
let with_dir =
  let n = ref 0 in
  fun f ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "irm-lockcrash-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* fork a child that takes the lock, touches [ready], and holds until
   killed; returns its pid once [ready] exists *)
let spawn_holder dir =
  let ready = Filename.concat dir "ready" in
  match Unix.fork () with
  | 0 ->
    let _held = Lock.acquire ~dir in
    Out_channel.with_open_bin ready (fun oc ->
        Out_channel.output_string oc "r");
    while true do
      Unix.sleepf 10.
    done;
    assert false
  | child ->
    let deadline = Unix.gettimeofday () +. 10. in
    while
      (not (Sys.file_exists ready)) && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.02
    done;
    Alcotest.(check bool) "holder came up" true (Sys.file_exists ready);
    child

let test_killed_holder_reclaimable () =
  with_dir @@ fun dir ->
  let child = spawn_holder dir in
  (* while the holder lives, contention names its pid *)
  (match Lock.acquire ~dir with
  | l ->
    Lock.release l;
    Alcotest.fail "the child should hold the lock"
  | exception Lock.Held { holder; _ } ->
    Alcotest.(check string) "Held names the holder"
      (string_of_int child) holder);
  (* crash the holder: no release runs, only the kernel's cleanup *)
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  let l = Lock.acquire ~dir in
  Lock.release l

let test_exited_holder_reclaimable () =
  with_dir @@ fun dir ->
  let ready = Filename.concat dir "ready" in
  (match Unix.fork () with
  | 0 ->
    (* acquire and exit without releasing *)
    let _held = Lock.acquire ~dir in
    Out_channel.with_open_bin ready (fun oc ->
        Out_channel.output_string oc "r");
    Stdlib.exit 0
  | child -> ignore (Unix.waitpid [] child));
  Alcotest.(check bool) "child ran" true (Sys.file_exists ready);
  let l = Lock.acquire ~dir in
  Lock.release l

let test_stale_lock_file_harmless () =
  with_dir @@ fun dir ->
  (* a leftover lock file recording a dead pid, with no lockf record
     behind it: the content is advisory, only the kernel lock gates *)
  Out_channel.with_open_bin (Filename.concat dir Lock.lock_file) (fun oc ->
      Out_channel.output_string oc "99999999\n");
  let l = Lock.acquire ~dir in
  (* and acquiring rewrites the holder to us *)
  (match Lock.acquire ~dir with
  | l2 ->
    Lock.release l2;
    Alcotest.fail "second acquire must fail"
  | exception Lock.Held { holder; _ } ->
    Alcotest.(check string) "holder rewritten"
      (string_of_int (Unix.getpid ()))
      holder);
  Lock.release l

let test_forked_contender_sees_holder () =
  with_dir @@ fun dir ->
  (* an old-format line left by a dead holder, rewritten by ours *)
  Out_channel.with_open_bin (Filename.concat dir Lock.lock_file) (fun oc ->
      Out_channel.output_string oc "4242\n");
  let go = Filename.concat dir "go" and seen = Filename.concat dir "seen" in
  (* the contender forks before the lock is taken, so it inherits no
     record of it and contends through the kernel lock alone *)
  match Unix.fork () with
  | 0 ->
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists go)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    let code =
      match Lock.acquire ~dir with
      | _ -> 1
      | exception Lock.Held { holder; _ } ->
        Out_channel.with_open_bin seen (fun oc ->
            Out_channel.output_string oc holder);
        0
    in
    Unix._exit code
  | child ->
    let l = Lock.acquire ~dir in
    Out_channel.with_open_bin go (fun oc -> Out_channel.output_string oc "g");
    let status = snd (Unix.waitpid [] child) in
    Lock.release l;
    Alcotest.(check bool) "the contender got Held" true
      (status = Unix.WEXITED 0);
    Alcotest.(check string) "Held names the holder"
      (string_of_int (Unix.getpid ()))
      (In_channel.with_open_bin seen In_channel.input_all)

let suite =
  [
    Alcotest.test_case "SIGKILL'd holder is reclaimable" `Quick
      test_killed_holder_reclaimable;
    Alcotest.test_case "exited holder is reclaimable" `Quick
      test_exited_holder_reclaimable;
    Alcotest.test_case "stale lock file is harmless" `Quick
      test_stale_lock_file_harmless;
    Alcotest.test_case "a forked contender sees the holder" `Quick
      test_forked_contender_sees_holder;
  ]
