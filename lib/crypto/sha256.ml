(* SHA-256 per FIPS 180-4. The block compress is C (sha256_stubs.c);
   this file owns the buffering, the padding and the digest encoding.
   The eight 32-bit state words live in a native int array, which the
   C side reads and updates in place. *)

type digest = string

(* [compress h s off n] runs the compress over the [n] whole 64-byte
   blocks of [s] at [off]; the caller guarantees [off + 64 n <=
   String.length s]. *)
external compress : int array -> string -> int -> int -> unit
  = "scrypto_sha256_compress"
[@@noalloc]

type ctx = {
  h : int array;  (* 8 words of running state *)
  block : Bytes.t;  (* partial-block buffer, 64 bytes *)
  mutable fill : int;  (* bytes currently in [block] *)
  mutable total : int;  (* total message bytes fed so far *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
  }

let compress_block ctx = compress ctx.h (Bytes.unsafe_to_string ctx.block) 0 1

(* Whole blocks per C call. The call cannot be interrupted, so this
   bounds how long a domain runs without reaching a safepoint: 64 KiB,
   about 0.1 ms at C speed. *)
let slice_blocks = 1024

let feed_sub ctx s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) len in
    Bytes.blit_string s off ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := off + take;
    if ctx.fill = 64 then begin
      compress_block ctx;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks straight from the caller's string; only a trailing
     partial block is buffered (and only when [block] is empty). *)
  while stop - !pos >= 64 do
    let n = min slice_blocks ((stop - !pos) / 64) in
    compress ctx.h s !pos n;
    pos := !pos + (64 * n)
  done;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.block ctx.fill (stop - !pos);
    ctx.fill <- ctx.fill + (stop - !pos)
  end

let feed ctx s = feed_sub ctx s ~off:0 ~len:(String.length s)

let finalize ctx =
  (* Append 0x80, zero-pad to 56 mod 64, then the 64-bit bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
    compress_block ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\000';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int (ctx.total * 8));
  compress_block ctx;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.to_string out

let digest_string s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_bytes b = digest_string (Bytes.to_string b)

let hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let digest_hex s = hex (digest_string s)
