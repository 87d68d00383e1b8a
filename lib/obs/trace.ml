type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;
  ev_pid : int; (* 0 = this process; a worker child's OS pid otherwise *)
  ev_tid : int;
  ev_args : (string * string) list;
}

(* the clock may be too coarse to order back-to-back spans, a sequence
   number is not: events sort by (start, seq), so same-process spans
   keep their entry order and injected child events interleave by
   timestamp *)
type pending = { p_event : event; p_seq : int }

(* Spans may be opened from worker domains during parallel builds: the
   sequence counter is atomic, the completed list is locked, and the
   nesting depth is domain-local so each domain's spans indent
   against their own stack. *)
let on = Atomic.make false
let epoch = ref 0.0
let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let next_seq = Atomic.make 0
let lock = Mutex.create ()
let completed : pending list ref = ref [] (* reverse completion order *)

(* a long-running daemon traces forever: bound the buffer so it holds
   the most recent [cap] events instead of growing without limit.
   0 = unbounded (the one-shot CLI default). *)
let cap = Atomic.make 0
let buffered = ref 0 (* length of [completed]; guarded by [lock] *)

let set_cap n = Atomic.set cap (max 0 n)

let trim_locked () =
  let c = Atomic.get cap in
  if c > 0 && !buffered > c then begin
    (* [completed] is newest-first: keep the first [c] *)
    let rec take n = function
      | x :: tl when n > 0 -> x :: take (n - 1) tl
      | _ -> []
    in
    completed := take c !completed;
    buffered := c
  end

let enabled () = Atomic.get on
let epoch_s () = !epoch

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let reset () =
  Mutex.protect lock (fun () ->
      completed := [];
      buffered := 0);
  Domain.DLS.get depth_key := 0;
  Atomic.set next_seq 0;
  epoch := Unix.gettimeofday ()

let enable () =
  reset ();
  Atomic.set on true

let disable () = Atomic.set on false

let record ev seq =
  Mutex.protect lock (fun () ->
      completed := { p_event = ev; p_seq = seq } :: !completed;
      incr buffered;
      trim_locked ())

let tid () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Phase collection                                                    *)
(*                                                                     *)
(* [record_phases] captures the (name, duration) of every span that    *)
(* completes inside its thunk even when tracing is globally off — the  *)
(* profile store needs per-phase durations on every build, not only    *)
(* traced ones.  The collector is domain-local, so a compile running   *)
(* on a worker domain observes exactly its own spans.                  *)
(* ------------------------------------------------------------------ *)

let phases_key :
    (string * float) list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let note_phase name dur_s =
  match !(Domain.DLS.get phases_key) with
  | None -> ()
  | Some acc -> acc := (name, dur_s) :: !acc

let record_phases f =
  let cell = Domain.DLS.get phases_key in
  let saved = !cell in
  let acc = ref [] in
  cell := Some acc;
  match f () with
  | result ->
    cell := saved;
    (* aggregate repeated phase names, first-seen order *)
    let order = ref [] and sums = Hashtbl.create 8 in
    List.iter
      (fun (name, dur) ->
        (match Hashtbl.find_opt sums name with
        | None ->
          order := name :: !order;
          Hashtbl.add sums name dur
        | Some prev -> Hashtbl.replace sums name (prev +. dur)))
      (List.rev !acc);
    (result, List.rev_map (fun name -> (name, Hashtbl.find sums name)) !order)
  | exception exn ->
    cell := saved;
    raise exn

(* [late], when given, holds args [f] found, read once it finished *)
let timed ~cat ~args ~late name f =
  let collecting = !(Domain.DLS.get phases_key) <> None in
  let tracing = Atomic.get on in
  if not (tracing || collecting) then f ()
  else begin
    let seq = if tracing then Atomic.fetch_and_add next_seq 1 else 0 in
    let start = now_us () in
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let finish () =
      depth := d;
      let dur_us = now_us () -. start in
      if collecting then note_phase name (dur_us /. 1e6);
      if tracing then
        record
          {
            ev_name = name;
            ev_cat = cat;
            ev_start_us = start;
            ev_dur_us = dur_us;
            ev_depth = d;
            ev_pid = 0;
            ev_tid = tid ();
            ev_args = (match late with Some r -> !r | None -> args);
          }
          seq
    in
    match f () with
    | result ->
      finish ();
      result
    | exception exn ->
      finish ();
      raise exn
  end

let span ?(cat = "") ?(args = []) name f = timed ~cat ~args ~late:None name f

let span_with ?(cat = "") name f =
  let found = ref [] in
  timed ~cat ~args:[] ~late:(Some found) name (fun () ->
      let result, args = f () in
      found := args;
      result)

let instant ?(cat = "") ?(args = []) name =
  if Atomic.get on then begin
    let seq = Atomic.fetch_and_add next_seq 1 in
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_start_us = now_us ();
        ev_dur_us = 0.0;
        ev_depth = !(Domain.DLS.get depth_key);
        ev_pid = 0;
        ev_tid = tid ();
        ev_args = args;
      }
      seq
  end

(* a span whose start was observed out of band (a worker job the
   supervisor watched die): recorded after the fact, ending now *)
let record_span ?(cat = "") ?(args = []) ?(pid = 0) ~start_s name =
  if Atomic.get on then begin
    let seq = Atomic.fetch_and_add next_seq 1 in
    let start_us = (start_s -. !epoch) *. 1e6 in
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_start_us = start_us;
        ev_dur_us = Float.max 0.0 (now_us () -. start_us);
        ev_depth = 0;
        ev_pid = pid;
        ev_tid = tid ();
        ev_args = args;
      }
      seq
  end

let events () =
  let pending = Mutex.protect lock (fun () -> !completed) in
  List.sort
    (fun a b ->
      match compare a.p_event.ev_start_us b.p_event.ev_start_us with
      | 0 -> compare a.p_seq b.p_seq
      | c -> c)
    pending
  |> List.map (fun p -> p.p_event)

(* ------------------------------------------------------------------ *)
(* Cross-process transport                                             *)
(*                                                                     *)
(* Worker children buffer events exactly like the parent and ship them *)
(* over the frame IPC as a JSON array ([lib/obs] cannot use            *)
(* [Pickle.Buf]: pickle depends on obs).  The parent re-bases their    *)
(* clocks by the epoch offset exchanged at the HELLO handshake and     *)
(* tags them with the child's OS pid.                                  *)
(* ------------------------------------------------------------------ *)

let wire_event ev =
  Json.Obj
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ts", Json.Float ev.ev_start_us);
      ("dur", Json.Float ev.ev_dur_us);
      ("depth", Json.Int ev.ev_depth);
      ("tid", Json.Int ev.ev_tid);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.ev_args));
    ]

(* remove and serialize every completed event (oldest first); [""] when
   there is nothing to ship *)
let drain_wire () =
  let drained =
    Mutex.protect lock (fun () ->
        let evs = !completed in
        completed := [];
        buffered := 0;
        evs)
  in
  match drained with
  | [] -> ""
  | evs ->
    let evs =
      List.sort (fun a b -> compare a.p_seq b.p_seq) evs
      |> List.map (fun p -> p.p_event)
    in
    Json.to_string (Json.List (List.map wire_event evs))

let num_of = function
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let int_of = function Some (Json.Int n) -> n | _ -> 0

let str_of = function Some (Json.String s) -> s | _ -> ""

let inject ~pid ~offset_us wire =
  if wire = "" || not (Atomic.get on) then 0
  else
    match Json.parse wire with
    | Json.List items ->
      List.iter
        (fun item ->
          let args =
            match Json.member "args" item with
            | Some (Json.Obj fields) ->
              List.filter_map
                (fun (k, v) ->
                  match v with Json.String s -> Some (k, s) | _ -> None)
                fields
            | _ -> []
          in
          record
            {
              ev_name = str_of (Json.member "name" item);
              ev_cat = str_of (Json.member "cat" item);
              ev_start_us = num_of (Json.member "ts" item) +. offset_us;
              ev_dur_us = num_of (Json.member "dur" item);
              ev_depth = int_of (Json.member "depth" item);
              ev_pid = pid;
              ev_tid = int_of (Json.member "tid" item);
              ev_args = args;
            }
            (Atomic.fetch_and_add next_seq 1))
        items;
      List.length items
    | _ -> 0
    | exception Json.Parse_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let chrome_event ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String (if ev.ev_cat = "" then "smlsep" else ev.ev_cat));
      ("ph", Json.String (if ev.ev_dur_us = 0.0 then "i" else "X"));
      ("ts", Json.Float ev.ev_start_us);
      ("dur", Json.Float ev.ev_dur_us);
      ("pid", Json.Int (if ev.ev_pid = 0 then 1 else ev.ev_pid));
      ("tid", Json.Int (ev.ev_tid + 1));
    ]
  in
  let args =
    match ev.ev_args with
    | [] -> []
    | args ->
      [
        ( "args",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args) );
      ]
  in
  Json.Obj (base @ args)

let to_chrome () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map chrome_event (events ())));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome path =
  let oc = open_out_bin path in
  output_string oc (Json.to_string (to_chrome ()));
  output_char oc '\n';
  close_out oc

let with_report ~trace ~metrics f =
  if trace <> None then enable ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          write_chrome path;
          Printf.eprintf "trace written to %s (%d spans)\n" path
            (List.length (events ())))
        trace;
      Option.iter
        (fun ppf -> Format.fprintf ppf "metrics:@.%a%!" Metrics.pp ())
        metrics)
    f
