type t = { id : int; name : string }

(* The intern table is shared by every domain (symbols must have one
   identity process-wide), so lookups and insertions are serialized by
   one lock.  It is keyed by a slice of any string — [(s, pos, len)] —
   and hashes and compares the slice in place, so looking up a name
   already seen allocates nothing; only a first sighting copies the
   name out.  Chained buckets, doubled when they average two entries. *)
let lock = Mutex.create ()
let buckets : t list array ref = ref (Array.make 1024 [])
let count = ref 0

(* FNV-1a (its offset basis cut to 63 bits) over the slice, folded so
   the low bits see the high ones *)
let hash_sub s pos len =
  let h = ref 0x0bf29ce484222325 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec equal_sub name s pos len i =
  i = len
  || String.unsafe_get name i = String.unsafe_get s (pos + i)
     && equal_sub name s pos len (i + 1)

(* what [find_sub] returns for a name not interned yet, so a hit
   allocates no option *)
let absent = { id = -1; name = "" }

let rec find_sub s pos len = function
  | [] -> absent
  | sym :: rest ->
    if String.length sym.name = len && equal_sub sym.name s pos len 0 then sym
    else find_sub s pos len rest

let grow () =
  let old = !buckets in
  let table = Array.make (2 * Array.length old) [] in
  let mask = Array.length table - 1 in
  Array.iter
    (List.iter (fun sym ->
         let b = hash_sub sym.name 0 (String.length sym.name) land mask in
         table.(b) <- sym :: table.(b)))
    old;
  buckets := table

(* ids are dense and assigned in interning order *)
let insert h name =
  let sym = { id = !count; name } in
  incr count;
  if !count > 2 * Array.length !buckets then grow ();
  let table = !buckets in
  let b = h land (Array.length table - 1) in
  table.(b) <- sym :: table.(b);
  sym

(* the symbol for [s.[pos] .. s.[pos + len - 1]]; a first sighting keeps
   [s] itself when the slice is all of it *)
let lookup s pos len =
  let h = hash_sub s pos len in
  Mutex.lock lock;
  let table = !buckets in
  let found = find_sub s pos len table.(h land (Array.length table - 1)) in
  let sym =
    if found != absent then found
    else insert h (if len = String.length s then s else String.sub s pos len)
  in
  Mutex.unlock lock;
  sym

let intern name = lookup name 0 (String.length name)

let intern_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Symbol.intern_sub";
  lookup s pos len

let name sym = sym.name
let id sym = sym.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash sym = sym.id
let pp ppf sym = Format.pp_print_string ppf sym.name

(* The fresh counter is domain-local: a compilation running on a worker
   domain numbers its generated binders independently of every other
   domain, so two concurrent compiles cannot perturb each other's
   sequences.  Fresh names only need to be distinct *within* one
   compiled term (binders never cross unit boundaries); cross-domain
   reuse of a name resolves to the same interned symbol and is
   harmless.  Each name is spelled into the domain's scratch bytes and
   looked up in place, so a name interned before allocates nothing. *)
type fresh_state = { mutable next : int; mutable scratch : Bytes.t }

let fresh_key = Domain.DLS.new_key (fun () -> { next = 0; scratch = Bytes.create 32 })

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let fresh base =
  let st = Domain.DLS.get fresh_key in
  st.next <- st.next + 1;
  let n = st.next and b = String.length base in
  let len = b + 1 + digits n in
  (* longer than the name, so a first sighting copies it out *)
  if Bytes.length st.scratch <= len then st.scratch <- Bytes.create (2 * len);
  let buf = st.scratch in
  Bytes.blit_string base 0 buf 0 b;
  (* '%' cannot appear in a source identifier, so this never collides. *)
  Bytes.unsafe_set buf b '%';
  let rec put i n =
    Bytes.unsafe_set buf i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
    if n >= 10 then put (i - 1) (n / 10)
  in
  put (len - 1) n;
  lookup (Bytes.unsafe_to_string buf) 0 len

let with_fresh_scope f =
  let st = Domain.DLS.get fresh_key in
  let saved = st.next in
  st.next <- 0;
  Fun.protect ~finally:(fun () -> st.next <- saved) f

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
