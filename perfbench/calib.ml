(* Machine-speed calibration.  On a shared machine the speed of the
   whole box swings by up to 1.6x in phases lasting seconds to minutes,
   so raw wall times of one commit scatter more between runs than the
   changes they are meant to catch.  A fixed reference computation,
   which calls nothing from the program, is timed between samples; a
   sample's calibrated time is its wall time scaled by [nominal_s] over
   the mean of the reference times measured just before and just after
   it.  The program and the reference slow down together, so the ratio
   holds still while the box does not. *)

(* the reference's duration that calibrated times are expressed at *)
let nominal_s = 0.016

(* how long a reference measurement stays fresh *)
let interval_s = 0.2

(* Fixed work on the standard library alone: allocation, sorting,
   hashing and string building, the kinds of work the compiler does. *)
let reference () =
  let st = Random.State.make [| 42 |] in
  let xs = List.init 20000 (fun _ -> Random.State.int st 1_000_000) in
  let sorted = List.sort compare xs in
  let h = Hashtbl.create 1024 in
  List.iteri (fun i x -> Hashtbl.replace h (string_of_int x) i) sorted;
  let s = String.concat "," (List.map string_of_int sorted) in
  Hashtbl.length h + String.length (Digest.string s)

type measure = { m_start : float; m_stop : float; m_ref_s : float }

type t = { mutable refs : measure list  (** newest first *) }

let create () = { refs = [] }

let measure_now t =
  let m_start = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (reference ()));
  let m_stop = Unix.gettimeofday () in
  t.refs <- { m_start; m_stop; m_ref_s = m_stop -. m_start } :: t.refs

(** Time the reference if the last measurement is older than
    [interval_s] (or [force]).  Call it between samples, never inside
    one. *)
let tick ?(force = false) t =
  match t.refs with
  | r :: _ when (not force) && Unix.gettimeofday () -. r.m_stop < interval_s -> ()
  | _ -> measure_now t

(** Samples of one series: start, stop, raw value. *)
type series = (float * float * float) list ref

let series () : series = ref []

(** Record a sample that ran from [start] to [stop], whose raw value
    (a duration in any unit) is [raw]. *)
let record (s : series) ~start ~stop raw = s := (start, stop, raw) :: !s

let raw (s : series) = List.rev_map (fun (_, _, v) -> v) !s

(** [factor ~refs ~start ~stop] — [nominal_s] over the mean of the
    reference time measured last before [start] and first after
    [stop]; either alone when the other is missing. *)
let factor ~refs ~start ~stop =
  let before =
    List.fold_left
      (fun acc r ->
        if r.m_stop <= start then
          match acc with Some b when b.m_stop >= r.m_stop -> acc | _ -> Some r
        else acc)
      None refs
  in
  let after =
    List.fold_left
      (fun acc r ->
        if r.m_start >= stop then
          match acc with Some a when a.m_start <= r.m_start -> acc | _ -> Some r
        else acc)
      None refs
  in
  match (before, after) with
  | Some b, Some a -> nominal_s /. ((b.m_ref_s +. a.m_ref_s) /. 2.)
  | Some r, None | None, Some r -> nominal_s /. r.m_ref_s
  | None, None -> invalid_arg "Calib.factor: no reference measured"

(** Take the last reference measurement, after every sample. *)
let finish t = measure_now t

(** The samples of [s], calibrated, oldest first. *)
let calibrated t (s : series) =
  List.rev_map (fun (start, stop, v) -> v *. factor ~refs:t.refs ~start ~stop) !s

(** The median reference time, in milliseconds, for the report. *)
let reference_ms t = 1000. *. Stats.median (List.map (fun r -> r.m_ref_s) t.refs)
