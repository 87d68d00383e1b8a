type t =
  | Global of int
  | Local of int
  | External of Digestkit.Pid.t * int

(* Atomic so concurrent elaborations on separate domains never mint
   the same Local stamp twice within one domain's session; raw Local
   values never reach bin files (they are alpha-converted at export),
   so the shared counter does not threaten reproducibility. *)
let counter = Atomic.make 0

let fresh () = Local (Atomic.fetch_and_add counter 1 + 1)
let local_counter () = Atomic.get counter

let compare a b =
  match (a, b) with
  | Global x, Global y -> Int.compare x y
  | Global _, (Local _ | External _) -> -1
  | Local _, Global _ -> 1
  | Local x, Local y -> Int.compare x y
  | Local _, External _ -> -1
  | External _, (Global _ | Local _) -> 1
  | External (p, i), External (q, j) ->
    let c = Digestkit.Pid.compare p q in
    if c <> 0 then c else Int.compare i j

let equal a b =
  match (a, b) with
  | Global x, Global y | Local x, Local y -> x = y
  | External (p, i), External (q, j) -> i = j && Digestkit.Pid.equal p q
  | (Global _ | Local _ | External _), _ -> false

(* the int itself for the provenances a unifier meets most; a pid is
   an MD5, so any of its bytes is as good a hash as all of them *)
let hash = function
  | Global n | Local n -> n
  | External (pid, idx) -> Digestkit.Pid.truncated_bits pid 30 + idx

let pp ppf = function
  | Global n -> Format.fprintf ppf "g%d" n
  | Local n -> Format.fprintf ppf "l%d" n
  | External (pid, idx) ->
    Format.fprintf ppf "x%s.%d" (Digestkit.Pid.short pid) idx

let to_string stamp = Format.asprintf "%a" pp stamp

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
