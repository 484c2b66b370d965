(* Tests for the crypto substrate: SHA-256 against FIPS/NIST vectors,
   HMAC against RFC 4231, and the simulated signature scheme. *)

module Sha256 = Scrypto.Sha256
module Hmac = Scrypto.Hmac
module Sig_scheme = Scrypto.Sig_scheme

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 / NIST CAVP vectors. *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
  ]

let test_sha_vectors () =
  List.iter
    (fun (msg, expected) -> check Alcotest.string msg expected (Sha256.digest_hex msg))
    sha_vectors

let test_sha_million_a () =
  (* The classic FIPS "one million a's" vector, fed incrementally. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  check Alcotest.string "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let test_sha_block_boundaries () =
  (* Lengths around the 56/64-byte padding boundaries are where
     padding bugs live. *)
  List.iter
    (fun len ->
      let msg = String.make len 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      check Alcotest.string
        (Printf.sprintf "len %d incremental = one-shot" len)
        (Sha256.digest_hex msg)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 127; 128; 1000 ]

let test_sha_incremental_qcheck =
  qtest "incremental feeding at arbitrary splits matches one-shot"
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (int_bound 299))
    (fun (s, split) ->
      let split = min split (String.length s) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 split);
      Sha256.feed ctx (String.sub s split (String.length s - split));
      Sha256.finalize ctx = Sha256.digest_string s)

(* The C compress against the pure-OCaml oracle (test/support):
   every length up to 4096 one-shot, random chunkings through [feed]
   and [feed_sub] at unaligned offsets, and inputs past the 64 KiB
   slice the C call is bounded by. *)
let oracle_hex s = Sha256.hex (Testkit.Refsha256.digest s)

let random_string len seed =
  let rng = Nsutil.Prng.create ~seed in
  String.init len (fun _ -> Char.chr (Nsutil.Prng.int rng 256))

let test_sha_oracle_lengths () =
  let buf = random_string 4096 7 in
  for len = 0 to 4096 do
    let msg = String.sub buf 0 len in
    if Sha256.digest_hex msg <> oracle_hex msg then
      Alcotest.failf "length %d differs from the oracle" len
  done

(* Feed [msg], embedded at [pad] in a larger string, in the pieces
   [cuts] marks; each piece goes through [feed_sub] in place, or
   through [feed] on a copy when [via_sub] says so. *)
let chunked_digest ~pad ~cuts ~via_sub msg =
  let len = String.length msg in
  let host = String.make pad '#' ^ msg ^ String.make 13 '#' in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let ctx = Sha256.init () in
  let pos =
    List.fold_left
      (fun pos cut ->
        let piece = cut - pos in
        if via_sub then Sha256.feed_sub ctx host ~off:(pad + pos) ~len:piece
        else Sha256.feed ctx (String.sub msg pos piece);
        cut)
      0 cuts
  in
  Sha256.feed_sub ctx host ~off:(pad + pos) ~len:(len - pos);
  Sha256.hex (Sha256.finalize ctx)

let test_sha_oracle_qcheck =
  qtest ~count:300 "chunked feed/feed_sub at unaligned offsets = oracle"
    QCheck2.Gen.(
      pair
        (pair (string_size (int_range 0 4096)) (int_bound 63))
        (pair (list_size (int_range 0 8) (int_bound 4096)) bool))
    (fun ((msg, pad), (cuts, via_sub)) ->
      chunked_digest ~pad ~cuts ~via_sub msg = oracle_hex msg)

let test_sha_oracle_large () =
  let msg = random_string ((2 * 65536) + 100) 11 in
  let expected = oracle_hex msg in
  check Alcotest.string "one-shot past the slice bound" expected (Sha256.digest_hex msg);
  List.iter
    (fun (pad, cuts) ->
      check Alcotest.string
        (Printf.sprintf "feed_sub at offset %d" pad)
        expected
        (chunked_digest ~pad ~cuts ~via_sub:true msg))
    [ (0, []); (3, [ 1 ]); (61, [ 65537; 70_001 ]); (5, [ 63; 131_072 ]) ]

let test_sha_feed_sub_bounds () =
  let ctx = Sha256.init () in
  List.iter
    (fun (off, len) ->
      match Sha256.feed_sub ctx "abcdef" ~off ~len with
      | () -> Alcotest.failf "feed_sub ~off:%d ~len:%d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (0, 7); (4, 3); (7, 0); (max_int, 2) ];
  check Alcotest.string "rejected calls fed nothing" (Sha256.digest_hex "")
    (Sha256.hex (Sha256.finalize ctx))

let test_sha_distinct_qcheck =
  qtest "distinct inputs give distinct digests"
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (string_size (int_range 0 64)))
    (fun (a, b) -> a = b || Sha256.digest_string a <> Sha256.digest_string b)

let test_sha_digest_length () =
  check Alcotest.int "raw digest is 32 bytes" 32 (String.length (Sha256.digest_string "x"));
  check Alcotest.int "hex digest is 64 chars" 64 (String.length (Sha256.digest_hex "x"))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256: RFC 4231 test cases. *)

let test_hmac_rfc4231 () =
  let cases =
    [
      ( String.make 20 '\x0b',
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ]
  in
  List.iter
    (fun (key, msg, expected) ->
      check Alcotest.string "rfc4231" expected (Hmac.mac_hex ~key msg))
    cases

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Hmac.mac ~key msg in
  check Alcotest.bool "verifies" true (Hmac.verify ~key ~msg ~tag);
  check Alcotest.bool "wrong key" false (Hmac.verify ~key:"other" ~msg ~tag);
  check Alcotest.bool "wrong msg" false (Hmac.verify ~key ~msg:"tampered" ~tag);
  check Alcotest.bool "wrong length tag" false (Hmac.verify ~key ~msg ~tag:"short")

let test_hmac_tamper_qcheck =
  qtest "flipping any tag bit breaks verification"
    QCheck2.Gen.(pair (string_size (int_range 0 40)) (int_bound 255))
    (fun (msg, pos) ->
      let key = "k" in
      let tag = Hmac.mac ~key msg in
      let pos = pos mod (String.length tag * 8) in
      let tampered = Bytes.of_string tag in
      let byte = pos / 8 in
      Bytes.set tampered byte
        (Char.chr (Char.code (Bytes.get tampered byte) lxor (1 lsl (pos mod 8))));
      not (Hmac.verify ~key ~msg ~tag:(Bytes.to_string tampered)))

(* ------------------------------------------------------------------ *)
(* Simulated signatures. *)

let test_sig_roundtrip () =
  let rng = Nsutil.Prng.create ~seed:3 in
  let kp = Sig_scheme.generate rng in
  let s = Sig_scheme.sign kp "hello" in
  check Alcotest.bool "verifies" true
    (Sig_scheme.verify ~verification_key:kp ~msg:"hello" s);
  check Alcotest.bool "wrong message" false
    (Sig_scheme.verify ~verification_key:kp ~msg:"hellO" s);
  let other = Sig_scheme.generate rng in
  check Alcotest.bool "wrong key" false
    (Sig_scheme.verify ~verification_key:other ~msg:"hello" s)

let test_sig_deterministic_from_secret () =
  let a = Sig_scheme.of_secret "material" and b = Sig_scheme.of_secret "material" in
  check Alcotest.string "same key id" a.key_id b.key_id

let test_sig_wire_roundtrip () =
  let kp = Sig_scheme.of_secret "k" in
  let s = Sig_scheme.sign kp "m" in
  match Sig_scheme.signature_of_string (Sig_scheme.signature_to_string s) with
  | None -> Alcotest.fail "did not parse"
  | Some s' ->
      check Alcotest.bool "parsed signature verifies" true
        (Sig_scheme.verify ~verification_key:kp ~msg:"m" s')

let test_sig_wire_rejects_garbage () =
  List.iter
    (fun s ->
      check Alcotest.bool s true (Sig_scheme.signature_of_string s = None))
    [ ""; "nocolon"; "zz:zz"; "abc:12"; "0g00:1234" ]

let test_sig_qcheck =
  qtest "sign/verify round-trips arbitrary messages"
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun msg ->
      let kp = Sig_scheme.of_secret "fixed" in
      Sig_scheme.verify ~verification_key:kp ~msg (Sig_scheme.sign kp msg))

let () =
  Alcotest.run "scrypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a's (incremental)" `Quick test_sha_million_a;
          Alcotest.test_case "padding boundaries" `Quick test_sha_block_boundaries;
          Alcotest.test_case "digest lengths" `Quick test_sha_digest_length;
          test_sha_incremental_qcheck;
          Alcotest.test_case "oracle: lengths 0-4096" `Quick test_sha_oracle_lengths;
          test_sha_oracle_qcheck;
          Alcotest.test_case "oracle: past the 64 KiB slice" `Quick
            test_sha_oracle_large;
          Alcotest.test_case "feed_sub bounds" `Quick test_sha_feed_sub_bounds;
          test_sha_distinct_qcheck;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify semantics" `Quick test_hmac_verify;
          test_hmac_tamper_qcheck;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "roundtrip" `Quick test_sig_roundtrip;
          Alcotest.test_case "deterministic from secret" `Quick
            test_sig_deterministic_from_secret;
          Alcotest.test_case "wire roundtrip" `Quick test_sig_wire_roundtrip;
          Alcotest.test_case "wire rejects garbage" `Quick test_sig_wire_rejects_garbage;
          test_sig_qcheck;
        ] );
    ]
