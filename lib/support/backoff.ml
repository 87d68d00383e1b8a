type t = {
  base_s : float;
  cap_s : float;
  seed : int option;
  mutable rng : Random.State.t option;
      (** made by the first [delay]: a retry loop that never retries
          never seeds a generator *)
}

let create ?seed ~base_s ~cap_s () = { base_s; cap_s; seed; rng = None }

let rng t =
  match t.rng with
  | Some rng -> rng
  | None ->
    let rng =
      match t.seed with
      | Some s -> Random.State.make [| s; 0xB0FF |]
      | None -> Random.State.make_self_init ()
    in
    t.rng <- Some rng;
    rng

(* the exponent is clamped so the power-of-two never overflows long
   before the cap would have flattened it anyway *)
let delay t ~attempt =
  if t.base_s <= 0. then 0.
  else begin
    let base = t.base_s *. float_of_int (1 lsl min (max 0 attempt) 16) in
    let jitter = 0.5 +. Random.State.float (rng t) 1.0 in
    Float.min t.cap_s base *. jitter
  end
