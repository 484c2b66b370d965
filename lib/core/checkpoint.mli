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

    Frames are written, and only load, at version 3: {!load} rejects
    any other version with {!Unsupported_version}. Versions 1 and 2
    carried payloads laid out for older engine types, which
    unmarshaling under the current types would misread, so the
    version policy lives here, once, for every payload owner.

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
  version : int;  (** frame version found on disk (always 3: no other loads) *)
  payload : string;
}

type error =
  | Io of string  (** open/read/write/rename failed *)
  | Bad_magic  (** not a checkpoint file *)
  | Unsupported_version of int
  | Unsupported_kind of int
      (** a record kind this build does not know, or (from
          {!load_payload}) another owner's kind *)
  | Truncated  (** shorter than its header declares *)
  | Corrupt  (** integrity footer does not match the contents *)
  | Config_mismatch of { expected : string; found : string }
      (** written under a different config/topology digest (hex) *)

exception Error of error

val error_to_string : error -> string

val null_digest : string
(** 32 zero bytes: the digest a run that writes no frames passes
    along, so the input digest is only computed when a snapshot will
    be written. *)

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

val write_or_skip :
  ?faults:Nsutil.Faults.t ->
  ?kind:kind ->
  degrade:bool ->
  path:string ->
  digest:string ->
  round:int ->
  string ->
  bool
(** {!write}, returning [true]. With [degrade], a write failing with
    {!Error} [(Io _)] is skipped instead of raised: it emits a
    [checkpoint_skip] journal event and a one-line warning naming the
    [kind], and returns [false]. The previous frame survives (the
    tmp+rename protocol never touched it). The degradation ladder's
    checkpoint rung, shared by every frame owner. *)

val load : path:string -> digest:string -> (frame, error) result
(** Validate [path] against [digest] and return the decoded frame.
    Checks run outside-in: magic, version, kind, framing length,
    integrity footer, then digest; the payload is only returned when
    all pass. *)

val load_exn : path:string -> digest:string -> frame
(** {!load}, raising {!Error}. *)

val load_payload : kind:kind -> path:string -> digest:string -> int * 'a
(** Open a frame for its owner: {!load_exn}, then reject a frame of
    another [kind] with {!Error} [(Unsupported_kind code)] (the code
    of the kind found), then unmarshal the payload. Returns the
    frame's round and the payload. The payload's type is the caller's
    claim: annotate the result with the owner's progress type, and
    only ever load frames that owner wrote. *)
