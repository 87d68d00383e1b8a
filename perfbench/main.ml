(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a report for people, then, as its last line, one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (cold-build|edit-loop|run-kernels|daemon-null) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref Inputs.default_seed in
  let seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest when List.mem_assoc w Workloads.all ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      go rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun v -> v > 0.) (float_of_string_opt s) ->
      seconds := float_of_string s;
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      go rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "perfbench: bad argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list argv));
  match !workload with
  | Some w -> (w, !seed, !seconds, !trace)
  | None -> usage ()

(* every digit the clock gave; JSON has no NaN *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace = parse_args Sys.argv in
  Printf.printf "perfbench %s: seed %d, %g s, trace %d\n%!" workload seed seconds
    (Bool.to_int trace);
  let r =
    try (List.assoc workload Workloads.all) ~seed ~seconds ~trace
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  (* a tail percentile is reported with the samples that support it *)
  let line (m : Workloads.metric) =
    let tail =
      if String.ends_with ~suffix:"_p90_ms" m.Workloads.name then
        match Stats.reportable_percentile m.samples with
        | Some p when p >= 90. -> ""
        | _ -> ", fewer than 10 samples beyond p90"
      else ""
    in
    Printf.printf "  %-34s %16.4f %-8s (n=%d%s)\n" m.name m.value m.unit_ m.samples tail
  in
  if r.Workloads.report <> [] then begin
    print_endline "workload metrics:";
    List.iter line r.report
  end;
  print_endline (if trace then "per-layer metrics:" else "end-to-end metrics:");
  List.iter line r.metrics;
  Printf.printf "  %-34s %16.4f %-8s (%d of %d operations)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max r.attempted 1))
    "ratio" r.failed r.attempted;
  let metrics =
    List.map
      (fun (m : Workloads.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)
