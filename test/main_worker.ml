(* The worker suite runs in its own executable: the supervisor forks
   child processes, and OCaml 5 forbids Unix.fork in a process that has
   ever created other domains — which the main suite's Parallel-backend
   tests do. *)
let () =
  Alcotest.run "smlsep-worker"
    [
      ("worker", Test_worker.suite);
      ("lock-crash", Test_lockcrash.suite);
      ("sigpipe", Test_daemon_fork.suite);
    ]
