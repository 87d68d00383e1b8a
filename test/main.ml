let () =
  Alcotest.run "smlsep"
    [
      ("support", Test_support.suite);
      ("digest", Test_digest.suite);
      ("lang", Test_lang.suite);
      ("elab", Test_elab.suite);
      ("eval", Test_eval.suite);
      ("sepcomp", Test_sepcomp.suite);
      ("irm", Test_irm.suite);
      ("keepgoing", Test_keepgoing.suite);
      ("workload", Test_workload.suite);
      ("pickle", Test_pickle.suite);
      ("simplify", Test_simplify.suite);
      ("matchcheck", Test_matchcheck.suite);
      ("interactive", Test_interactive.suite);
      ("exec", Test_exec.suite);
      ("link", Test_link.suite);
      ("depend", Test_depend.suite);
      ("properties", Test_props.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("sched", Test_sched.suite);
      ("cache", Test_cache.suite);
      ("faults", Test_faults.suite);
      ("daemon", Test_daemon.suite);
      ("remote", Test_remote.suite);
    ]
