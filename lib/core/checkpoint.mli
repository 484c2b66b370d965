(** Checksummed, atomically-written snapshot files for restartable
    runs.

    The paper's cluster jobs restart after worker failure (Appendix
    C.3); our equivalent is a snapshot of engine progress written
    every K rounds. This module owns the *framing*: a magic/version
    header, a record {!kind} (an engine-round snapshot or a
    churn-epoch snapshot), the SHA-256 digest of the run's
    configuration and topology (so a snapshot can never be resumed
    against different inputs), the round number, an opaque payload,
    and a SHA-256 integrity footer over the whole frame. Files are
    written to [path ^ ".tmp"] and renamed into place, so a crash
    mid-write never clobbers the previous valid snapshot.

    Frames are written at version 3. Older frames still parse at this
    layer (version-1 frames predate the [kind] field and imply
    {!Engine}), but the version is reported in the decoded {!frame}
    and payload owners gate on it: the engine's progress payload
    changed layout at version 3, so {!Core.Engine.resume} rejects
    older frames with {!Unsupported_version} rather than unmarshal
    bytes laid out differently.

    The payload is a caller-owned [Marshal] blob. Unmarshaling
    untrusted bytes is unsafe, which is exactly why the checksum and
    digest are verified *before* the payload is handed back: a
    corrupt, truncated or mismatched file yields a typed {!error},
    never a crash or a silently wrong resume. *)

type kind =
  | Engine  (** mid-run engine progress ({!Core.Engine}) *)
  | Churn  (** churn-run epoch progress (statics store + epoch cursor) *)

val kind_to_string : kind -> string

type frame = {
  round : int;  (** engine round (or churn shot counter) at write time *)
  kind : kind;
  version : int;  (** frame version found on disk (1, 2 or 3) *)
  payload : string;
}

type error =
  | Io of string  (** open/read/write/rename failed *)
  | Bad_magic  (** not a checkpoint file *)
  | Unsupported_version of int
  | Unsupported_kind of int  (** v2+ frame with an unknown record kind *)
  | Truncated  (** shorter than its header declares *)
  | Corrupt  (** integrity footer does not match the contents *)
  | Config_mismatch of { expected : string; found : string }
      (** written under a different config/topology digest (hex) *)

exception Error of error

val error_to_string : error -> string

val write :
  ?faults:Nsutil.Faults.t ->
  ?kind:kind ->
  path:string ->
  digest:string ->
  round:int ->
  string ->
  unit
(** [write ~path ~digest ~round payload] frames and atomically
    replaces [path]; [kind] defaults to {!Engine}. [digest] must be 32
    raw bytes ({!Scrypto.Sha256} output). The frame is streamed to
    the [.tmp] file (header, payload, footer) with no frame-sized copy
    of the payload. A fault plan firing at site ["checkpoint.corrupt"]
    flips frame byte [header + len/2] after checksumming (a payload
    byte, or the footer's first byte when the payload is empty) —
    deliberate corruption for the fault-injection harness — and one
    firing at ["checkpoint.io"] makes the write itself raise {!Error}
    [(Io _)] before touching the filesystem (the previous snapshot
    survives). Raises {!Error} [(Io _)] on real I/O failure, including
    a failed final flush; the [.tmp] file is then not renamed into
    place. *)

val load : path:string -> digest:string -> (frame, error) result
(** Validate [path] against [digest] and return the decoded frame.
    Checks run outside-in: magic, version, kind, framing length,
    integrity footer, then digest; the payload is only returned when
    all pass. *)

val load_exn : path:string -> digest:string -> frame
(** {!load}, raising {!Error}. *)
