type t = string (* exactly 16 bytes *)

let compare = String.compare
let equal = String.equal
let hash = Hashtbl.hash

let of_digest d =
  if String.length d <> 16 then invalid_arg "Pid.of_digest: want 16 bytes";
  d

let intrinsic data = Md5.digest_string data

let run_seed =
  (* One seed per process: wall clock + pid-ish entropy, as the paper's
     provisional stamps use "(time, place)".  Determinism across runs is
     not wanted for provisional pids; intrinsic pids provide it. *)
  Printf.sprintf "%f-%d" (Unix_time.now ()) (Hashtbl.hash (ref ()))

let fresh_counter = ref 0

let fresh () =
  incr fresh_counter;
  Md5.digest_string (Printf.sprintf "fresh-%s-%d" run_seed !fresh_counter)

let to_bytes p = p
let of_bytes = of_digest
let to_hex = Md5.hex
let short p = Md5.hex (String.sub p 0 4)
let pp ppf p = Format.pp_print_string ppf (to_hex p)

let truncated_bits p b =
  if b < 1 || b > 30 then invalid_arg "Pid.truncated_bits";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code p.[i]
  done;
  !v land ((1 lsl b) - 1)

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
