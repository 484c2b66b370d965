(** Reference SHA-256 (FIPS 180-4) in pure OCaml: the block compress
    {!Scrypto.Sha256} ran before it moved to C, behind a one-shot
    pad-then-compress loop that shares no buffering code with the
    library. Kept as a test oracle: the library must produce exactly
    these digests. *)

val digest : string -> string
(** The 32 raw digest bytes of the whole string. *)
