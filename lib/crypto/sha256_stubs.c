/* SHA-256 block compression with the x86 SHA extensions (SHA-NI).

   [dialed_sha256_ni_blocks] folds n consecutive 64-byte blocks into the
   eight chaining words of an OCaml [int array], in place. It allocates
   nothing and never raises, so OCaml calls it as a [@@noalloc] external.
   [dialed_sha256_ni_available] reports, from CPUID, whether this CPU can
   run it; Sha256 asks once at module initialisation and otherwise keeps
   its OCaml compression function. Off x86, or with a compiler without
   the intrinsics, the kernel is compiled out and reported unavailable. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DIALED_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifdef DIALED_SHA_NI

static const uint32_t k256[64] = {
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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_ni_blocks(uint32_t st[8], const uint8_t *p, intnat n)
{
  /* big-endian message words: byte-swap each 32-bit lane */
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef, cdgh, tmp, m[4];

  /* the round instructions want the state as ABEF and CDGH */
  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; n > 0; n--, p += 64) {
    const __m128i abef0 = abef, cdgh0 = cdgh;
    int g;
    for (g = 0; g < 4; g++)
      m[g] = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(p + 16 * g)), bswap);
    /* 16 groups of four rounds; m[g & 3] holds W[4g .. 4g+3] */
#pragma GCC unroll 16
    for (g = 0; g < 16; g++) {
      __m128i wk = _mm_add_epi32(
        m[g & 3], _mm_loadu_si128((const __m128i *)&k256[4 * g]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g < 12) {
        /* W[4g+16 ..] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16] */
        __m128i w = _mm_sha256msg1_epu32(m[g & 3], m[(g + 1) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(m[(g + 3) & 3], m[(g + 2) & 3], 4));
        m[g & 3] = _mm_sha256msg2_epu32(w, m[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(cdgh, tmp, 8));
}

value dialed_sha256_ni_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool((b & bit_SHA) != 0);
}

value dialed_sha256_ni_blocks(value vh, value vbuf, value voff, value vn)
{
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(vh, i));
  sha256_ni_blocks(st, (const uint8_t *)Bytes_val(vbuf) + Long_val(voff),
                   Long_val(vn));
  /* immediates: no write barrier needed */
  for (i = 0; i < 8; i++) Field(vh, i) = Val_long(st[i]);
  return Val_unit;
}

#else

value dialed_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: Sha256 only calls the kernel when it is available. */
value dialed_sha256_ni_blocks(value vh, value vbuf, value voff, value vn)
{
  (void)vh; (void)vbuf; (void)voff; (void)vn;
  abort();
}

#endif
