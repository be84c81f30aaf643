/**
 * @file
 * AVX-512 (F + BW) pair-pass micro-kernels. This translation unit is
 * the only one compiled with -mavx512f -mavx512bw (gated on compiler
 * support; see CMakeLists.txt), and its symbols are only reachable
 * through the dispatch table after a cpuid + xgetbv check, so the
 * binary stays runnable on narrower hosts.
 */

#include "core/pair_pass.h"

#if defined(PANACEA_HAVE_AVX512_KERNELS)

#include <immintrin.h>

// GCC's unmasked AVX-512 wrappers (_mm512_shuffle_epi32,
// _mm512_inserti32x4, ...) pass _mm512_undefined_epi32() as the
// masked-out source operand, tripping -Wmaybe-uninitialized at every
// inline site (GCC PR 105593). The lanes are fully overwritten; the
// warning is a false positive, suppressed for this TU only.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace panacea {
namespace detail {

/**
 * v = 4 pair pass, 512-bit: every iteration retires EIGHT reduction
 * steps with four vpmaddwd ops (128 MACs). The four 128-bit lanes carry
 * the interleaved operands of step pairs (k0,k1)..(k6,k7); the per-lane
 * dword shuffle broadcasts one output row's weight pairs, and the final
 * cross-lane fold sums the eight steps. Exact int32 arithmetic,
 * bit-identical to the scalar path.
 */
void
pairPass4Avx512(const std::int16_t *wp, const std::int16_t *xp,
                std::size_t n, std::size_t ng_off,
                const std::uint32_t *ks, std::size_t nk, bool identity,
                std::int32_t *pacc)
{
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    const auto pair128 = [](const std::int16_t *a, const std::int16_t *b) {
        return _mm_unpacklo_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a)),
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(b)));
    };
    std::size_t t = 0;
    for (; t + 8 <= nk; t += 8) {
        std::size_t k[8];
        for (int s = 0; s < 8; ++s)
            k[s] = identity ? t + static_cast<std::size_t>(s) : ks[t + s];
        __m512i vb = _mm512_zextsi128_si512(
            pair128(xp + k[0] * n + ng_off, xp + k[1] * n + ng_off));
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[2] * n + ng_off, xp + k[3] * n + ng_off),
            1);
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[4] * n + ng_off, xp + k[5] * n + ng_off),
            2);
        vb = _mm512_inserti32x4(
            vb, pair128(xp + k[6] * n + ng_off, xp + k[7] * n + ng_off),
            3);
        __m512i wab = _mm512_zextsi128_si512(
            pair128(wp + k[0] * 4, wp + k[1] * 4));
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[2] * 4, wp + k[3] * 4), 1);
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[4] * 4, wp + k[5] * 4), 2);
        wab = _mm512_inserti32x4(
            wab, pair128(wp + k[6] * 4, wp + k[7] * 4), 3);
        acc0 = _mm512_add_epi32(
            acc0, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_AAAA), vb));
        acc1 = _mm512_add_epi32(
            acc1, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_BBBB), vb));
        acc2 = _mm512_add_epi32(
            acc2, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_CCCC), vb));
        acc3 = _mm512_add_epi32(
            acc3, _mm512_madd_epi16(
                      _mm512_shuffle_epi32(wab, _MM_PERM_DDDD), vb));
    }
    const auto fold = [](__m512i a) {
        const __m256i s = _mm256_add_epi32(
            _mm512_castsi512_si256(a), _mm512_extracti64x4_epi64(a, 1));
        return _mm_add_epi32(_mm256_castsi256_si128(s),
                             _mm256_extracti128_si256(s, 1));
    };
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), fold(acc0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), fold(acc1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), fold(acc2));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), fold(acc3));
    for (; t < nk; ++t) {
        const std::size_t k0 = identity ? t : ks[t];
        const std::int16_t *wv = wp + k0 * 4;
        const std::int16_t *xr = xp + k0 * n + ng_off;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                pacc[i * 4 + j] += static_cast<std::int32_t>(wv[i]) *
                                   static_cast<std::int32_t>(xr[j]);
    }
}

/**
 * Streaming v = 4 pair pass, 512-bit: two 64-byte loads plus four
 * vpshufb/vpmaddwd/add triplets retire EIGHT reduction steps per
 * iteration over the weight panel and the pre-interleaved activation
 * operand (see PairStream4Fn; the in-lane vpshufb builds each row's
 * step pair). The trailing < 4 pairs fall through 256-bit and 128-bit
 * steps. Exact int32 arithmetic, bit-identical to the gather kernels
 * over the same dense steps.
 */
void
pairStream4Avx512(const std::int16_t *wq, const std::int16_t *xq,
                  std::size_t pairs, std::int32_t *pacc)
{
    const __m512i sel0 = _mm512_set1_epi32(kPanel4PairSelect[0]);
    const __m512i sel1 = _mm512_set1_epi32(kPanel4PairSelect[1]);
    const __m512i sel2 = _mm512_set1_epi32(kPanel4PairSelect[2]);
    const __m512i sel3 = _mm512_set1_epi32(kPanel4PairSelect[3]);
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 4 <= pairs; p += 4) {
        const __m512i vb = _mm512_loadu_si512(xq + p * 8);
        const __m512i wab = _mm512_loadu_si512(wq + p * 8);
        acc0 = _mm512_add_epi32(
            acc0, _mm512_madd_epi16(_mm512_shuffle_epi8(wab, sel0), vb));
        acc1 = _mm512_add_epi32(
            acc1, _mm512_madd_epi16(_mm512_shuffle_epi8(wab, sel1), vb));
        acc2 = _mm512_add_epi32(
            acc2, _mm512_madd_epi16(_mm512_shuffle_epi8(wab, sel2), vb));
        acc3 = _mm512_add_epi32(
            acc3, _mm512_madd_epi16(_mm512_shuffle_epi8(wab, sel3), vb));
    }
    const auto fold512 = [](__m512i a) {
        const __m256i s = _mm256_add_epi32(
            _mm512_castsi512_si256(a), _mm512_extracti64x4_epi64(a, 1));
        return _mm_add_epi32(_mm256_castsi256_si128(s),
                             _mm256_extracti128_si256(s, 1));
    };
    __m128i r0 = fold512(acc0);
    __m128i r1 = fold512(acc1);
    __m128i r2 = fold512(acc2);
    __m128i r3 = fold512(acc3);
    if (p + 2 <= pairs) {
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(xq + p * 8));
        const __m256i wab = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(wq + p * 8));
        const auto row = [&](__m512i sel) {
            const __m256i a = _mm256_madd_epi16(
                _mm256_shuffle_epi8(wab, _mm512_castsi512_si256(sel)),
                vb);
            return _mm_add_epi32(_mm256_castsi256_si128(a),
                                 _mm256_extracti128_si256(a, 1));
        };
        r0 = _mm_add_epi32(r0, row(sel0));
        r1 = _mm_add_epi32(r1, row(sel1));
        r2 = _mm_add_epi32(r2, row(sel2));
        r3 = _mm_add_epi32(r3, row(sel3));
        p += 2;
    }
    if (p < pairs) {
        const __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(xq + p * 8));
        const __m128i wab = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(wq + p * 8));
        const auto row = [&](__m512i sel) {
            return _mm_madd_epi16(
                _mm_shuffle_epi8(wab, _mm512_castsi512_si128(sel)), vb);
        };
        r0 = _mm_add_epi32(r0, row(sel0));
        r1 = _mm_add_epi32(r1, row(sel1));
        r2 = _mm_add_epi32(r2, row(sel2));
        r3 = _mm_add_epi32(r3, row(sel3));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 0), r0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 4), r1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 8), r2);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(pacc + 12), r3);
}

/**
 * Runtime-v pair pass, 512-bit: like the AVX2 variant but with an
 * additional 16-wide vpmulld chunk, so a v = 16 micro-tile row is one
 * vector op. Chunk starts are bounded by v, keeping every load/store
 * inside the row; arithmetic is exact int32.
 */
void
pairPassGenericAvx512(const std::int16_t *wp, const std::int16_t *xp,
                      std::size_t n, std::size_t ng_off,
                      const std::uint32_t *ks, std::size_t nk,
                      bool identity, int v, std::int32_t *pacc)
{
    for (int e = 0; e < v * v; ++e)
        pacc[e] = 0;
    const int j16 = v & ~15; // only v = 16 has a 16-wide chunk
    const int j8 = v & ~7;
    const int j4 = v & ~3;
    const std::size_t uv = static_cast<std::size_t>(v);
    const int wstride = static_cast<int>(panelRowStride(uv));
    for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t k = identity ? t : ks[t];
        const std::int16_t *wv = wp + panelOffset(k, 0, uv);
        const std::int16_t *xr = xp + k * n + ng_off;
        __m512i x16 = _mm512_setzero_si512();
        if (j16 > 0)
            x16 = _mm512_cvtepi16_epi32(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(xr)));
        __m256i x8 = _mm256_setzero_si256();
        if (j8 > j16)
            x8 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(xr + j16)));
        __m128i x4 = _mm_setzero_si128();
        if (j4 > j8)
            x4 = _mm_cvtepi16_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(xr + j8)));
        for (int i = 0; i < v; ++i) {
            const std::int32_t wsi = wv[i * wstride];
            std::int32_t *p = pacc + i * v;
            if (j16 > 0) {
                __m512i acc = _mm512_loadu_si512(p);
                acc = _mm512_add_epi32(
                    acc, _mm512_mullo_epi32(_mm512_set1_epi32(wsi), x16));
                _mm512_storeu_si512(p, acc);
            }
            if (j8 > j16) {
                __m256i acc = _mm256_loadu_si256(
                    reinterpret_cast<__m256i *>(p + j16));
                acc = _mm256_add_epi32(
                    acc, _mm256_mullo_epi32(_mm256_set1_epi32(wsi), x8));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + j16), acc);
            }
            if (j4 > j8) {
                __m128i acc = _mm_loadu_si128(
                    reinterpret_cast<__m128i *>(p + j8));
                acc = _mm_add_epi32(
                    acc, _mm_mullo_epi32(_mm_set1_epi32(wsi), x4));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(p + j8),
                                 acc);
            }
            for (int j = j4; j < v; ++j)
                p[j] += wsi * static_cast<std::int32_t>(xr[j]);
        }
    }
}

/**
 * Generic-v streaming pair pass, 512-bit: the runtime-v counterpart of
 * pairStream4Avx512 over the pre-interleaved 2v-wide paired layout.
 * Per output row a 16-column accumulator block stays in one zmm
 * register across all step pairs (v = 16 rows are a single block);
 * each iteration broadcasts the row's (step, step+1) weight pair and
 * retires TWO reduction steps for sixteen columns with one vpmaddwd.
 * Narrower column remainders fall to the 256/128-bit and scalar tails.
 * Exact int32 arithmetic, bit-identical to the gather kernels over the
 * same dense steps.
 */
void
pairStreamGenericAvx512(const std::int16_t *wq, const std::int16_t *xq,
                        std::size_t pairs, int v, std::int32_t *pacc)
{
    const std::size_t pw = 2 * static_cast<std::size_t>(v);
    const int j16 = v & ~15; // widest multiple-of-16 column prefix
    const int j8 = v & ~7;
    const int j4 = v & ~3;
    for (int i = 0; i < v; ++i) {
        std::int32_t *prow = pacc + i * v;
        for (int j = 0; j < j16; j += 16) {
            __m512i acc = _mm512_setzero_si512();
            for (std::size_t p = 0; p < pairs; ++p) {
                std::int32_t wpair;
                __builtin_memcpy(&wpair, wq + p * pw + 2 * i,
                                 sizeof wpair);
                const __m512i xb = _mm512_loadu_si512(xq + p * pw +
                                                      2 * j);
                acc = _mm512_add_epi32(
                    acc,
                    _mm512_madd_epi16(_mm512_set1_epi32(wpair), xb));
            }
            _mm512_storeu_si512(prow + j, acc);
        }
        if (j8 > j16) {
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t p = 0; p < pairs; ++p) {
                std::int32_t wpair;
                __builtin_memcpy(&wpair, wq + p * pw + 2 * i,
                                 sizeof wpair);
                const __m256i xb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xq + p * pw +
                                                      2 * j16));
                acc = _mm256_add_epi32(
                    acc,
                    _mm256_madd_epi16(_mm256_set1_epi32(wpair), xb));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(prow + j16),
                                acc);
        }
        if (j4 > j8) {
            __m128i acc = _mm_setzero_si128();
            for (std::size_t p = 0; p < pairs; ++p) {
                std::int32_t wpair;
                __builtin_memcpy(&wpair, wq + p * pw + 2 * i,
                                 sizeof wpair);
                const __m128i xb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(xq + p * pw +
                                                      2 * j8));
                acc = _mm_add_epi32(
                    acc, _mm_madd_epi16(_mm_set1_epi32(wpair), xb));
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(prow + j8),
                             acc);
        }
        for (int j = j4; j < v; ++j) {
            std::int32_t sum = 0;
            for (std::size_t p = 0; p < pairs; ++p) {
                const std::int16_t *wr = wq + p * pw + 2 * i;
                const std::int16_t *xr = xq + p * pw + 2 * j;
                sum += static_cast<std::int32_t>(wr[0]) * xr[0] +
                       static_cast<std::int32_t>(wr[1]) * xr[1];
            }
            prow[j] = sum;
        }
    }
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_HAVE_AVX512_KERNELS
