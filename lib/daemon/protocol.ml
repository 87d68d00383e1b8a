module Buf = Pickle.Buf

let version = "smlsep-daemon/5"

(* HELLO and errors are the fabric's, since Netsrv gates and answers
   them; the request kinds sit in 17..19, disjoint from the fabric's
   32..45 *)
let k_hello = Remote.Protocol.k_hello
let k_request = 17
let k_response = 18
let k_diag = 19
let k_error = Remote.Protocol.k_error

let default_state_dir = ".irm-daemon"

let join dir path =
  if Filename.is_relative path then Filename.concat dir path else path

let socket_path ~dir ~state_dir = Filename.concat (join dir state_dir) "sock"
let pid_path ~dir ~state_dir = Filename.concat (join dir state_dir) "pid"
let log_path ~dir ~state_dir = Filename.concat (join dir state_dir) "log"

type build_opts = {
  b_group : string;
  b_policy : string;
  b_jobs : int;
  b_cache : bool;
  b_keep_going : bool;
  b_werror : bool;
  b_max_errors : int option;
  b_error_json : bool;
  b_schedule : string;
}

type request =
  | Build of build_opts
  | Run of build_opts
  | Explain of { e_unit : string; e_json : bool }
  | Profile of { p_json : bool; p_top : int }
  | Status
  | Shutdown

type response = Irm.Introspect.rendered = {
  r_code : int;
  r_out : string;
  r_err : string;
}

let write_opts w o =
  Buf.string w o.b_group;
  Buf.string w o.b_policy;
  Buf.int w o.b_jobs;
  Buf.bool w o.b_cache;
  Buf.bool w o.b_keep_going;
  Buf.bool w o.b_werror;
  Buf.option w (Buf.int w) o.b_max_errors;
  Buf.bool w o.b_error_json;
  Buf.string w o.b_schedule

let read_opts r =
  let b_group = Buf.read_string r in
  let b_policy = Buf.read_string r in
  let b_jobs = Buf.read_int r in
  let b_cache = Buf.read_bool r in
  let b_keep_going = Buf.read_bool r in
  let b_werror = Buf.read_bool r in
  let b_max_errors = Buf.read_option r (fun () -> Buf.read_int r) in
  let b_error_json = Buf.read_bool r in
  let b_schedule = Buf.read_string r in
  {
    b_group;
    b_policy;
    b_jobs;
    b_cache;
    b_keep_going;
    b_werror;
    b_max_errors;
    b_error_json;
    b_schedule;
  }

let encode_request req =
  let w = Buf.writer () in
  (match req with
  | Build opts ->
    Buf.byte w 0;
    write_opts w opts
  | Run opts ->
    Buf.byte w 1;
    write_opts w opts
  | Explain { e_unit; e_json } ->
    Buf.byte w 2;
    Buf.string w e_unit;
    Buf.bool w e_json
  | Profile { p_json; p_top } ->
    Buf.byte w 3;
    Buf.bool w p_json;
    Buf.int w p_top
  | Status -> Buf.byte w 4
  | Shutdown -> Buf.byte w 5);
  Buf.contents w

let decode_request payload =
  let r = Buf.reader payload in
  match Buf.read_byte r with
  | 0 -> Build (read_opts r)
  | 1 -> Run (read_opts r)
  | 2 ->
    let e_unit = Buf.read_string r in
    let e_json = Buf.read_bool r in
    Explain { e_unit; e_json }
  | 3 ->
    let p_json = Buf.read_bool r in
    let p_top = Buf.read_int r in
    Profile { p_json; p_top }
  | 4 -> Status
  | 5 -> Shutdown
  | tag -> raise (Buf.Corrupt (Printf.sprintf "unknown request tag %d" tag))

let encode_response resp =
  let w = Buf.writer () in
  Buf.int w resp.r_code;
  Buf.string w resp.r_out;
  Buf.string w resp.r_err;
  Buf.contents w

let decode_response payload =
  let r = Buf.reader payload in
  let r_code = Buf.read_int r in
  let r_out = Buf.read_string r in
  let r_err = Buf.read_string r in
  { r_code; r_out; r_err }
