(** The library's two non-cryptographic hashes.

    {b FNV-1a-64} digests the journals' record lines and keys the
    engine's caches and chaos-plan tasks.  It folds one value at a time
    into an accumulator that starts at {!fnv_basis}.

    {b SplitMix64's finaliser} (Steele, Lea & Flood 2014) is the output
    function of {!Prng}, and a stateless full-avalanche mixer for
    {!Seqdiv_stream.Frame.shard_of_session} and
    {!Seqdiv_core.Fault_plan}. *)

val fnv_basis : int64
(** FNV-1a-64's offset basis: the digest of no input. *)

val fnv_int : int64 -> int -> int64
(** [fnv_int h x] folds [x] into [h]: xor, then multiply by the FNV
    prime.  A byte folds as its code. *)

val fnv_int64 : int64 -> int64 -> int64
(** [fnv_int] for a 64-bit value. *)

val fnv_string : int64 -> string -> int64
(** Every byte of the string, in order. *)

val fnv : string -> int64
(** [fnv s] is [fnv_string fnv_basis s]: the digest of a whole
    string. *)

val golden_gamma : int64
(** SplitMix64's increment, 2{^64} divided by the golden ratio, rounded
    to odd. *)

val splitmix64 : int64 -> int64
(** SplitMix64's finaliser: two xor-shift-multiply rounds and a last
    xor-shift, so every input bit flips every output bit with
    probability about one half. *)
