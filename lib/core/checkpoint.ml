module Sha256 = Scrypto.Sha256

type kind = Engine | Churn

let kind_to_string = function Engine -> "engine" | Churn -> "churn"
let kind_code = function Engine -> 0 | Churn -> 1
let kind_of_code = function 0 -> Some Engine | 1 -> Some Churn | _ -> None

type frame = { round : int; kind : kind; version : int; payload : string }

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Unsupported_kind of int
  | Truncated
  | Corrupt
  | Config_mismatch of { expected : string; found : string }

exception Error of error

let error_to_string = function
  | Io m -> Printf.sprintf "checkpoint I/O error: %s" m
  | Bad_magic -> "not a checkpoint file (bad magic)"
  | Unsupported_version v -> Printf.sprintf "unsupported checkpoint version %d" v
  | Unsupported_kind k -> Printf.sprintf "unsupported checkpoint record kind %d" k
  | Truncated -> "truncated checkpoint file"
  | Corrupt -> "corrupt checkpoint file (checksum mismatch)"
  | Config_mismatch { expected; found } ->
      Printf.sprintf
        "checkpoint was written by a different configuration/topology (digest %s, \
         expected %s)"
        found expected

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Checkpoint.Error (%s)" (error_to_string e))
    | _ -> None)

(* On-disk layout, all integers big-endian:

     magic   "SBGPCKP1"                        8 bytes
     version u16 (= 3)                         2 bytes
     kind    u16 (0 = engine, 1 = churn)       2 bytes
     digest  config/topology SHA-256          32 bytes
     round   u32                               4 bytes
     length  payload bytes, u64                8 bytes
     payload                                   (length)
     footer  SHA-256 of everything above      32 bytes

   Only version 3 loads. Version 1 frames had no kind field, and both
   earlier versions carry payloads laid out for older engine types,
   which [Marshal] cannot tell apart from current ones; rejecting them
   here keeps every payload owner from unmarshaling them.

   The footer authenticates the frame against torn writes and bit
   rot; the digest ties the snapshot to the inputs that produced it.
   Only after both checks pass is the payload (a [Marshal] blob)
   handed back — unmarshaling untrusted bytes is never safe, so the
   checksum is the gate. *)

(* Observability: spans and duration/size metrics around the disk
   round-trips. Purely observational — framing and validation are
   untouched. *)
let m_writes =
  lazy (Nsobs.Metrics.counter ~help:"checkpoint frames written" "checkpoint_write_total")
let m_loads =
  lazy
    (Nsobs.Metrics.counter ~help:"checkpoint frames loaded successfully"
       "checkpoint_load_total")
let m_load_errors =
  lazy
    (Nsobs.Metrics.counter ~help:"checkpoint loads rejected (I/O or validation)"
       "checkpoint_load_error_total")
let m_bytes_written =
  lazy
    (Nsobs.Metrics.counter ~help:"checkpoint bytes written (framed)"
       "checkpoint_bytes_written_total")
let m_write_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"checkpoint write duration (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "checkpoint_write_ms")
let m_load_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"checkpoint load duration (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "checkpoint_load_ms")

let timed hist f =
  if Nsobs.Metrics.enabled () then begin
    let t0 = Nsobs.Trace.now_us () in
    let finish () =
      Nsobs.Metrics.observe (Lazy.force hist) ((Nsobs.Trace.now_us () -. t0) /. 1000.0)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end
  else f ()

let magic = "SBGPCKP1"
let version = 3
let digest_len = 32
let null_digest = String.make digest_len '\000'

(* Field offsets; the header ends at [header_len]. *)
let kind_off = 10
let digest_off = 12
let round_off = digest_off + digest_len
let length_off = round_off + 4
let header_len = length_off + 8
let footer_len = digest_len

let frame_header ~kind ~digest ~round ~payload_len =
  if String.length digest <> digest_len then
    invalid_arg "Checkpoint.write: digest must be 32 raw bytes";
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  Buffer.add_uint16_be buf version;
  Buffer.add_uint16_be buf (kind_code kind);
  Buffer.add_string buf digest;
  Buffer.add_int32_be buf (Int32.of_int round);
  Buffer.add_int64_be buf (Int64.of_int payload_len);
  Buffer.contents buf

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  Bytes.unsafe_to_string b

(* The frame is streamed: header and payload are hashed in place into
   one context, then header, payload and footer go straight to the
   channel, so no frame-sized buffer is ever built. *)
let write ?faults ?(kind = Engine) ~path ~digest ~round payload =
  Nsobs.Trace.span ~cat:"checkpoint" "checkpoint.write" @@ fun () ->
  timed m_write_ms @@ fun () ->
  (* Fault injection, site [checkpoint.io]: the write call itself
     fails — the typed error a caller's degradation path must absorb
     without losing the previous valid snapshot (which the tmp+rename
     protocol never touched). *)
  (match faults with
  | Some f when Nsutil.Faults.fires f "checkpoint.io" <> None ->
      raise (Error (Io "injected fault (site checkpoint.io)"))
  | _ -> ());
  let payload_len = String.length payload in
  let header = frame_header ~kind ~digest ~round ~payload_len in
  let footer =
    let ctx = Sha256.init () in
    Sha256.feed ctx header;
    Sha256.feed ctx payload;
    Sha256.finalize ctx
  in
  (* Fault injection, site [checkpoint.corrupt]: flip frame byte
     [header_len + len/2] *after* the checksum was computed — a
     payload byte, or the footer's first byte for an empty payload —
     the canonical corruption a reader must reject. *)
  let payload, footer =
    match faults with
    | Some f when Nsutil.Faults.fires f "checkpoint.corrupt" <> None ->
        if payload_len = 0 then (payload, flip_byte footer 0)
        else (flip_byte payload (payload_len / 2), footer)
    | _ -> (payload, footer)
  in
  let bytes = header_len + payload_len + footer_len in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc header;
        output_string oc payload;
        output_string oc footer;
        (* [close_out], not the [finally]'s [close_out_noerr]: a
           failing final flush must fail the write, not be renamed
           into place. *)
        close_out oc);
    Sys.rename tmp path
  with
  | () ->
      if Nsobs.Metrics.enabled () then begin
        Nsobs.Metrics.inc (Lazy.force m_writes);
        Nsobs.Metrics.add (Lazy.force m_bytes_written) bytes
      end;
      if Nsobs.Journal.enabled () then
        Nsobs.Journal.event "checkpoint_write"
          [
            ("kind", Nsobs.Journal.Str (kind_to_string kind));
            ("round", Nsobs.Journal.Int round);
            ("bytes", Nsobs.Journal.Int bytes);
          ]
  | exception Sys_error m -> raise (Error (Io m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hex = Sha256.hex

(* The [Error] exception shadows [result]'s constructor in this file;
   [err] builds the result explicitly. *)
let err e : (frame, error) result = Stdlib.Error e

let load_frame ~path ~digest =
  if String.length digest <> digest_len then
    invalid_arg "Checkpoint.load: digest must be 32 raw bytes";
  match read_file path with
  | exception Sys_error m -> err (Io m)
  | exception End_of_file -> err Truncated
  | s ->
      let len = String.length s in
      let prefix = min len (String.length magic) in
      if String.sub s 0 prefix <> String.sub magic 0 prefix then err Bad_magic
      else if len < kind_off then err Truncated
      else begin
        let v = String.get_uint16_be s 8 in
        if v <> version then err (Unsupported_version v)
        else if len < header_len + footer_len then err Truncated
        else begin
          let kind_code = String.get_uint16_be s kind_off in
          match kind_of_code kind_code with
          | None -> err (Unsupported_kind kind_code)
          | Some kind ->
              let payload_len = Int64.to_int (String.get_int64_be s length_off) in
              let total = header_len + payload_len + footer_len in
              if payload_len < 0 || len < total then err Truncated
              else if len > total then err Corrupt
              else begin
                let body_len = header_len + payload_len in
                let ctx = Sha256.init () in
                Sha256.feed_sub ctx s ~off:0 ~len:body_len;
                let footer = String.sub s body_len footer_len in
                if not (String.equal (Sha256.finalize ctx) footer) then err Corrupt
                else begin
                  let found = String.sub s digest_off digest_len in
                  if not (String.equal found digest) then
                    err (Config_mismatch { expected = hex digest; found = hex found })
                  else
                    Ok
                      {
                        round = Int32.to_int (String.get_int32_be s round_off);
                        kind;
                        version = v;
                        payload = String.sub s header_len payload_len;
                      }
                end
              end
        end
      end

let load ~path ~digest =
  Nsobs.Trace.span ~cat:"checkpoint" "checkpoint.load" @@ fun () ->
  timed m_load_ms @@ fun () ->
  let r = load_frame ~path ~digest in
  if Nsobs.Metrics.enabled () then
    (match r with
    | Ok _ -> Nsobs.Metrics.inc (Lazy.force m_loads)
    | Stdlib.Error _ -> Nsobs.Metrics.inc (Lazy.force m_load_errors));
  if Nsobs.Journal.enabled () then
    (match r with
    | Ok f ->
        Nsobs.Journal.event "checkpoint_load"
          [
            ("kind", Nsobs.Journal.Str (kind_to_string f.kind));
            ("round", Nsobs.Journal.Int f.round);
          ]
    | Stdlib.Error e ->
        Nsobs.Journal.event "checkpoint_load_error"
          [ ("error", Nsobs.Journal.Str (error_to_string e)) ]);
  r

let load_exn ~path ~digest =
  match load ~path ~digest with Ok v -> v | Stdlib.Error e -> raise (Error e)

let load_payload ~kind ~path ~digest =
  let f = load_exn ~path ~digest in
  if f.kind <> kind then raise (Error (Unsupported_kind (kind_code f.kind)));
  (f.round, Marshal.from_string f.payload 0)

let write_or_skip ?faults ?(kind = Engine) ~degrade ~path ~digest ~round payload =
  match write ?faults ~kind ~path ~digest ~round payload with
  | () -> true
  | exception Error (Io m) when degrade ->
      (* The tmp+rename protocol left the previous frame intact; losing
         one snapshot interval is strictly better than losing the
         run. *)
      if Nsobs.Journal.enabled () then
        Nsobs.Journal.event "checkpoint_skip"
          [ ("round", Nsobs.Journal.Int round); ("error", Nsobs.Journal.Str m) ];
      Nsutil.Warnings.emit
        (Printf.sprintf
           "sbgp: %s: checkpoint write failed (%s); continuing on the previous snapshot"
           (kind_to_string kind) m);
      false
