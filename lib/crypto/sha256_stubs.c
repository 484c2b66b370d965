/* SHA-256 block compress (FIPS 180-4, section 6.2.2), the one C
   kernel under Sha256. Portable C99: 32-bit words in uint32_t,
   big-endian loads by shifts, no intrinsics.

   scrypto_sha256_compress(h, s, off, nblocks) runs the compress over
   the [nblocks] 64-byte blocks of [s] starting at byte [off], updating
   the eight state words of the OCaml int array [h] in place. The
   OCaml side declares it [@@noalloc] and does the bounds checks; it
   allocates nothing, raises nothing and never releases the runtime
   lock, so the string cannot move under it. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* Round i with the working variables passed in rotated order, so an
   8-way unroll renames them instead of shifting them through copies.
   Ch and Maj are the usual equivalent forms with one fewer operation. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                   \
  do {                                                                   \
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))           \
                  + (g ^ (e & (f ^ g))) + K[i] + w[i];                   \
    d += t1;                                                             \
    h = t1 + (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))                    \
        + ((a & b) | (c & (a | b)));                                     \
  } while (0)

CAMLprim value scrypto_sha256_compress(value h, value s, value off, value nblocks)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(off);
  long n = Long_val(nblocks);
  uint32_t st[8], w[64];
  int t;
  for (t = 0; t < 8; t++) st[t] = (uint32_t)Long_val(Field(h, t));
  for (; n > 0; n--, p += 64) {
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], hh = st[7];
    for (t = 0; t < 16; t++)
      w[t] = ((uint32_t)p[4 * t] << 24) | ((uint32_t)p[4 * t + 1] << 16)
             | ((uint32_t)p[4 * t + 2] << 8) | (uint32_t)p[4 * t + 3];
    for (t = 16; t < 64; t++) {
      uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    for (t = 0; t < 64; t += 8) {
      ROUND(a, b, c, d, e, f, g, hh, t);
      ROUND(hh, a, b, c, d, e, f, g, t + 1);
      ROUND(g, hh, a, b, c, d, e, f, t + 2);
      ROUND(f, g, hh, a, b, c, d, e, t + 3);
      ROUND(e, f, g, hh, a, b, c, d, t + 4);
      ROUND(d, e, f, g, hh, a, b, c, t + 5);
      ROUND(c, d, e, f, g, hh, a, b, t + 6);
      ROUND(b, c, d, e, f, g, hh, a, t + 7);
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += hh;
  }
  /* Immediate ints: plain stores need no write barrier. */
  for (t = 0; t < 8; t++) Field(h, t) = Val_long(st[t]);
  return Val_unit;
}
