(** SHA-256 (FIPS 180-4).

    Used by the S*BGP message layer ([bgpsec]) for digests, by the
    simulated signature scheme, for content-addressed certificate
    identifiers in [rpki], and for the integrity footer and input
    digest of checkpoint frames. The 64-byte block compress is the
    one C kernel in [scrypto] ([sha256_stubs.c], portable C, no CPU
    extensions); buffering, padding and encoding are OCaml. *)

type digest = string
(** 32 raw bytes. *)

val digest_string : string -> digest
val digest_bytes : bytes -> digest

val hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val digest_hex : string -> string
(** [hex (digest_string s)]. *)

(** Incremental interface. *)
type ctx

val init : unit -> ctx

val feed : ctx -> string -> unit
(** [feed ctx s] is [feed_sub ctx s ~off:0 ~len:(String.length s)]. *)

val feed_sub : ctx -> string -> off:int -> len:int -> unit
(** Hash [len] bytes of the string starting at [off], without copying
    them: whole 64-byte blocks are compressed straight from the
    string, and only a partial block is buffered in [ctx]. The C
    compress runs on at most 64 KiB per call, so a domain hashing a
    large string reaches a safepoint (and lets a stop-the-world
    collection proceed) at least every 64 KiB. Raises
    [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= String.length s]. *)

val finalize : ctx -> digest
(** The context must not be reused after [finalize]. *)
