let version_exec = "smlsep-remote/2 exec"
let version_cache = "smlsep-remote/1 cache"

(* 0..5 carried the retired worker-link frames: not reused.  The
   daemon's requests sit in 17..19; the fabric and job peers in 32..45 *)
let k_hello = 32
let k_error = 33
let k_ping = 34
let k_job = 35
let k_result = 36
(* 37 carried the retired mid-compile static-view release: not reused *)
let k_trace = 38
let k_cache_get = 40
let k_cache_put = 41
let k_cache_has = 42
let k_cache_hit = 43
let k_cache_miss = 44
let k_cache_ok = 45
