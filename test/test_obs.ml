(* Telemetry layer: spans, metrics, the Chrome-trace export, and the
   build counters the IRM driver maintains. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Json = Obs.Json
module Driver = Irm.Driver

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  Trace.enable ();
  let r =
    Trace.span "outer" (fun () ->
        Trace.span "inner-a" (fun () -> ());
        Trace.span "inner-b" (fun () -> ());
        17)
  in
  Trace.disable ();
  Alcotest.(check int) "thunk result passes through" 17 r;
  let evs = Trace.events () in
  Alcotest.(check (list string))
    "entry order" [ "outer"; "inner-a"; "inner-b" ]
    (List.map (fun e -> e.Trace.ev_name) evs);
  Alcotest.(check (list int))
    "nesting depths" [ 0; 1; 1 ]
    (List.map (fun e -> e.Trace.ev_depth) evs);
  let outer = List.hd evs and inner = List.nth evs 1 in
  Alcotest.(check bool)
    "inner contained in outer" true
    (inner.Trace.ev_start_us >= outer.Trace.ev_start_us
    && inner.Trace.ev_start_us +. inner.Trace.ev_dur_us
       <= outer.Trace.ev_start_us +. outer.Trace.ev_dur_us +. 1.0)

let test_span_disabled_is_noop () =
  Trace.disable ();
  Trace.reset ();
  let r = Trace.span "ghost" (fun () -> 3) in
  Alcotest.(check int) "still runs the thunk" 3 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events ()))

let test_span_records_on_exception () =
  Trace.enable ();
  (try Trace.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Trace.disable ();
  Alcotest.(check (list string))
    "span survives the raise" [ "boom" ]
    (List.map (fun e -> e.Trace.ev_name) (Trace.events ()))

let test_chrome_roundtrip () =
  Trace.enable ();
  Trace.span ~cat:"compile" ~args:[ ("unit", "a.sml") ] "compile.unit"
    (fun () -> Trace.span ~cat:"compile" "parse" (fun () -> ()));
  Trace.instant ~cat:"build" "build.cutoff_hit";
  Trace.disable ();
  let parsed = Json.parse (Json.to_string (Trace.to_chrome ())) in
  Alcotest.(check (option string))
    "display unit"
    (Some "ms")
    (match Json.member "displayTimeUnit" parsed with
    | Some (Json.String s) -> Some s
    | _ -> None);
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "one event per span" 3 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        "complete or instant event" true
        (match Json.member "ph" ev with
        | Some (Json.String ("X" | "i")) -> true
        | _ -> false);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (k ^ " present") true
            (Json.member k ev <> None))
        [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
    events;
  let first = List.hd events in
  Alcotest.(check bool)
    "span args exported" true
    (match Json.member "args" first with
    | Some args -> Json.member "unit" args = Some (Json.String "a.sml")
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Cross-process aggregation primitives                                *)
(* ------------------------------------------------------------------ *)

let test_drain_inject_roundtrip () =
  Trace.enable ();
  Trace.span ~cat:"compile" ~args:[ ("unit", "a.sml") ] "parse" (fun () -> ());
  Trace.span "elaborate" (fun () -> ());
  let wire = Trace.drain_wire () in
  Alcotest.(check int) "drain empties the buffer" 0
    (List.length (Trace.events ()));
  Alcotest.(check string) "second drain is empty" "" (Trace.drain_wire ());
  let n = Trace.inject ~pid:4242 ~offset_us:1000.0 wire in
  Trace.disable ();
  Alcotest.(check int) "both events injected" 2 n;
  let evs = Trace.events () in
  Alcotest.(check (list string))
    "names survive the wire" [ "parse"; "elaborate" ]
    (List.map (fun e -> e.Trace.ev_name) evs);
  List.iter
    (fun e ->
      Alcotest.(check int) "tagged with the child pid" 4242 e.Trace.ev_pid;
      Alcotest.(check bool) "offset applied" true (e.Trace.ev_start_us >= 1000.))
    evs;
  let parse = List.hd evs in
  Alcotest.(check (list (pair string string)))
    "args survive the wire"
    [ ("unit", "a.sml") ]
    parse.Trace.ev_args

let test_inject_malformed_is_noop () =
  Trace.enable ();
  Alcotest.(check int) "garbage injects nothing" 0
    (Trace.inject ~pid:1 ~offset_us:0. "not a wire batch");
  Alcotest.(check int) "and leaves the trace empty" 0
    (List.length (Trace.events ()));
  Trace.disable ()

let test_record_phases_without_tracing () =
  Trace.disable ();
  Trace.reset ();
  let r, phases =
    Trace.record_phases (fun () ->
        Trace.span "parse" (fun () -> ());
        Trace.span "elaborate" (fun () -> Trace.span "unify" (fun () -> ()));
        (* repeated names are summed into one entry *)
        Trace.span "parse" (fun () -> ());
        11)
  in
  Alcotest.(check int) "thunk result passes through" 11 r;
  Alcotest.(check (list string))
    "each phase reported once"
    [ "elaborate"; "parse"; "unify" ]
    (List.sort String.compare (List.map fst phases));
  List.iter
    (fun (n, s) ->
      Alcotest.(check bool) (n ^ " non-negative") true (s >= 0.))
    phases;
  Alcotest.(check int) "no spans recorded while disabled" 0
    (List.length (Trace.events ()))

let test_record_span_is_truncated_standin () =
  Trace.enable ();
  let start = Unix.gettimeofday () -. 0.002 in
  Trace.record_span ~cat:"worker"
    ~args:[ ("truncated", "true") ]
    ~start_s:start "build.compile_job";
  Trace.disable ();
  match Trace.events () with
  | [ e ] ->
    Alcotest.(check string) "name" "build.compile_job" e.Trace.ev_name;
    Alcotest.(check bool) "spans the elapsed time" true
      (e.Trace.ev_dur_us >= 1000.);
    Alcotest.(check (list (pair string string)))
      "marked truncated"
      [ ("truncated", "true") ]
      e.Trace.ev_args
  | evs -> Alcotest.failf "expected one span, got %d" (List.length evs)

let test_json_canonical_sorted () =
  let v =
    Json.Obj
      [ ("b", Json.Int 2); ("a", Json.Int 1); ("c", Json.Obj [ ("z", Json.Null); ("y", Json.Bool true) ]) ]
  in
  Alcotest.(check string)
    "keys sorted recursively"
    "{\"a\":1,\"b\":2,\"c\":{\"y\":true,\"z\":null}}"
    (Json.to_canonical_string v);
  Alcotest.(check string)
    "canonical form is stable" (Json.to_canonical_string v)
    (Json.to_canonical_string (Json.parse (Json.to_canonical_string v)))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_monotonic () =
  let c = Metrics.counter "test.monotonic" in
  Metrics.reset ();
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "accumulates" 5 (Metrics.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Metrics: counter test.monotonic cannot decrease")
    (fun () -> Metrics.add c (-1));
  Alcotest.(check bool)
    "set rejected on counters" true
    (try
       Metrics.set c 0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "value untouched by rejections" 5 (Metrics.value c)

let test_metric_registry () =
  let c = Metrics.counter "test.registry" in
  let c' = Metrics.counter "test.registry" in
  Metrics.reset ();
  Metrics.incr c;
  Alcotest.(check int) "same handle by name" 1 (Metrics.value c');
  Alcotest.(check (option int)) "find sees it" (Some 1)
    (Metrics.find "test.registry");
  Alcotest.(check bool)
    "kind clash rejected" true
    (try
       ignore (Metrics.gauge "test.registry");
       false
     with Invalid_argument _ -> true);
  Metrics.reset ();
  Alcotest.(check (option int))
    "reset zeroes but keeps registration" (Some 0)
    (Metrics.find "test.registry")

let test_metrics_json () =
  let c = Metrics.counter "test.json" in
  Metrics.reset ();
  Metrics.add c 7;
  let parsed = Json.parse (Json.to_string (Metrics.to_json ())) in
  Alcotest.(check (option int))
    "value round-trips"
    (Some 7)
    (match Json.member "test.json" parsed with
    | Some (Json.Int n) -> Some n
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Json parse-back                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check bool)
    "tree survives print/parse" true
    (Json.parse (Json.to_string v) = v);
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (try
       ignore (Json.parse "{}x");
       false
     with Json.Parse_error _ -> true)

(* a float prints with 17 significant digits, so it reads back as the
   same double: a profile store reloaded from its snapshot re-rolls its
   EWMAs from exactly the values it wrote *)
let test_json_floats_exact () =
  let ewma =
    List.fold_left
      (fun acc now -> (0.7 *. acc) +. (0.3 *. now))
      0.0123 [ 0.5; 1.7; 0.031; 2.9 ]
  in
  List.iter
    (fun (what, f) ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Json.Float g ->
        Alcotest.(check int64)
          (what ^ " reads back bit for bit")
          (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> Alcotest.failf "%s: not a float" what)
    [
      ("0.1 + 0.2", 0.1 +. 0.2);
      ("1 / 3", 1. /. 3.);
      ("an ewma", ewma);
      ("a large value", 123456789.123456789e10);
      ("a tiny value", 5e-324);
      ("an integral value", 42.);
    ]

(* ------------------------------------------------------------------ *)
(* Driver integration: registry counters match the per-build stats     *)
(* ------------------------------------------------------------------ *)

let test_build_counters_match_stats () =
  let fs = Vfs.memory () in
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 fun scale n = n * origin end";
  fs.Vfs.fs_write "mid.sml" "structure Mid = struct val v = Base.scale 2 end";
  fs.Vfs.fs_write "top.sml"
    "structure Top = struct val result = Mid.v + Base.origin end";
  let mgr = Driver.create fs in
  let sources = [ "base.sml"; "mid.sml"; "top.sml" ] in
  let _ = Driver.build mgr ~policy:Driver.Timestamp ~sources in
  (* a comment-only edit: recompiles cascade under timestamp, but every
     interface pid is unchanged, so each recompile is a cutoff hit *)
  fs.Vfs.fs_write "base.sml"
    "structure Base = struct val origin = 10 fun scale n = n * origin end (* touched *)";
  Metrics.reset ();
  let stats = Driver.build mgr ~policy:Driver.Timestamp ~sources in
  Alcotest.(check (option int))
    "build.recompiled matches stats"
    (Some (List.length stats.Driver.st_recompiled))
    (Metrics.find "build.recompiled");
  Alcotest.(check (option int))
    "build.loaded matches stats"
    (Some (List.length stats.Driver.st_loaded))
    (Metrics.find "build.loaded");
  Alcotest.(check (option int))
    "build.cutoff_hits matches stats"
    (Some (List.length stats.Driver.st_cutoff_hits))
    (Metrics.find "build.cutoff_hits");
  Alcotest.(check bool)
    "the touch produced cutoff hits" true
    (List.length stats.Driver.st_cutoff_hits > 0);
  List.iter
    (fun file ->
      Alcotest.(check string)
        (file ^ " outcome") "cutoff" (Driver.outcome_of stats file))
    stats.Driver.st_cutoff_hits

let suite =
  [
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "disabled span is a no-op" `Quick
      test_span_disabled_is_noop;
    Alcotest.test_case "span recorded on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "chrome trace round-trips" `Quick test_chrome_roundtrip;
    Alcotest.test_case "drain/inject wire round-trip" `Quick
      test_drain_inject_roundtrip;
    Alcotest.test_case "malformed inject is a no-op" `Quick
      test_inject_malformed_is_noop;
    Alcotest.test_case "record_phases works untraced" `Quick
      test_record_phases_without_tracing;
    Alcotest.test_case "record_span stands in truncated spans" `Quick
      test_record_span_is_truncated_standin;
    Alcotest.test_case "canonical json is sorted and stable" `Quick
      test_json_canonical_sorted;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "metric registry" `Quick test_metric_registry;
    Alcotest.test_case "metrics to_json" `Quick test_metrics_json;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats round-trip exactly" `Quick
      test_json_floats_exact;
    Alcotest.test_case "build counters match stats" `Quick
      test_build_counters_match_stats;
  ]
