let names =
  Sys.
    [
      (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
      (sigchld, "SIGCHLD"); (sigcont, "SIGCONT"); (sigfpe, "SIGFPE");
      (sighup, "SIGHUP"); (sigill, "SIGILL"); (sigint, "SIGINT");
      (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE"); (sigprof, "SIGPROF");
      (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV"); (sigstop, "SIGSTOP");
      (sigsys, "SIGSYS"); (sigterm, "SIGTERM"); (sigtrap, "SIGTRAP");
      (sigtstp, "SIGTSTP"); (sigttin, "SIGTTIN"); (sigttou, "SIGTTOU");
      (sigusr1, "SIGUSR1"); (sigusr2, "SIGUSR2"); (sigxcpu, "SIGXCPU");
      (sigxfsz, "SIGXFSZ");
    ]

let name n =
  match List.assoc_opt n names with Some s -> s | None -> string_of_int n
