(* The benchmark's in-memory span recorder.  It wraps the benchmark's
   own calls into each layer of the program; spans nest through an
   explicit stack and are written out only when the run ends, so the
   traced operation pays one clock read and one allocation per span. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the traced operation this span belongs to *)
  parent : int option;  (** the enclosing span, if any *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = 0 }
let set_op t op = t.op <- op
let spans t = List.rev t.spans

(** [with_span t name f] — run [f] inside a span named [name], a child
    of the innermost open span. *)
let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; op = t.op; parent; start; stop } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let duration (s : span) = s.stop -. s.start

(* total length of the union of [intervals], each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** Self time of every span: its duration minus the part of its
    interval that its child spans cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start, s.stop)
      | None -> ())
    spans;
  List.map
    (fun (s : span) ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(** Summed self time per (operation, span name). *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : span), self) ->
      let key = (s.op, s.name) in
      Hashtbl.replace tbl key (self +. Option.value ~default:0. (Hashtbl.find_opt tbl key)))
    (self_times spans);
  tbl

(** The remainder of a traced operation's wall time that no layer's self
    time accounts for; by construction
    [wall = sum layers + remainder ~wall layers]. *)
let remainder ~wall layers = wall -. List.fold_left ( +. ) 0. layers

let write path spans =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%s,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.op
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.start s.stop)
    spans
