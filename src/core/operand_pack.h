/**
 * @file
 * Internal operand-preparation helpers of the blocked AQS-GEMM
 * kernel: per-n-group skip lists derived from an HO compression mask,
 * int16 widening of activation slice planes into the contiguous
 * [level][k][n] layout the pair-pass micro-kernels read, their
 * step-paired stream copies, and the weight-stationary panel every
 * weight-side pass reads (see core/pair_pass.h).
 */

#ifndef PANACEA_CORE_OPERAND_PACK_H
#define PANACEA_CORE_OPERAND_PACK_H

#include <cstdint>
#include <vector>

#include "core/pair_pass.h"
#include "slicing/slice_tensor.h"
#include "util/matrix.h"
#include "util/parallel_for.h"

namespace panacea {
namespace detail {

/**
 * Per-n-group skip lists for the activation side, shared read-only by
 * every band: ks[offsets[ng] .. offsets[ng+1]) are the reduction steps
 * whose HO vector is NOT compressed (dense steps). `identity`
 * short-circuits the indirection when no skipping is active.
 */
struct SkipLists
{
    bool identity = false;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ks;
    /// Complement lists (the COMPRESSED steps), for reductions that
    /// iterate whichever side of the partition is shorter.
    std::vector<std::uint32_t> coffsets;
    std::vector<std::uint32_t> cks;

    std::size_t
    count(std::size_t ng) const
    {
        return offsets[ng + 1] - offsets[ng];
    }
    const std::uint32_t *
    list(std::size_t ng) const
    {
        return ks.data() + offsets[ng];
    }
    std::size_t
    ccount(std::size_t ng) const
    {
        return coffsets[ng + 1] - coffsets[ng];
    }
    const std::uint32_t *
    clist(std::size_t ng) const
    {
        return cks.data() + coffsets[ng];
    }
};

/**
 * Build skip lists from a K x (N/v) compression mask: list ng holds the
 * k with mask(k, ng) == 0, in increasing order (complement list: the
 * k with mask(k, ng) != 0).
 */
inline SkipLists
buildSkipLists(const MatrixU8 &mask)
{
    SkipLists out;
    const std::size_t kk = mask.rows();
    const std::size_t n_groups = mask.cols();
    out.offsets.resize(n_groups + 1, 0);
    out.coffsets.resize(n_groups + 1, 0);
    out.ks.reserve(n_groups * kk);
    for (std::size_t ng = 0; ng < n_groups; ++ng) {
        for (std::size_t k = 0; k < kk; ++k) {
            if (mask(k, ng) == 0)
                out.ks.push_back(static_cast<std::uint32_t>(k));
            else
                out.cks.push_back(static_cast<std::uint32_t>(k));
        }
        out.offsets[ng + 1] = static_cast<std::uint32_t>(out.ks.size());
        out.coffsets[ng + 1] = static_cast<std::uint32_t>(out.cks.size());
    }
    return out;
}

/** @return step pairs covering kk reduction steps (odd kk pads one). */
inline std::size_t
pairCount(std::size_t kk)
{
    return (kk + 1) / 2;
}

/**
 * Pre-interleaved ("paired") copies of a matrix's slice planes for the
 * streaming pair passes (PairStream4Fn in core/pair_pass.h), blocked
 * per column group so a pass reads one contiguous run:
 *
 *   out[((l * n_groups + ng) * kkp + k2) * 2v + 2j + s]
 *     = plane_l(2*k2 + s, ng*v + j)
 *
 * with kkp = pairCount(kk); an odd trailing step stays zero. When
 * `ho_mask` (K x N/v, 1 = compressed) is non-null, the HO plane's
 * compressed vectors are stored as zeros, so a dense stream over the
 * masked plane sums exactly the skip list's dense steps. Parallel over
 * column groups; chunks write disjoint blocks of the pre-sized output,
 * so the result is byte-identical for any thread count.
 */
inline std::vector<std::int16_t>
pairedSlicePlanes(const SlicedMatrix &sliced, int v,
                  const MatrixU8 *ho_mask)
{
    const std::size_t kk = sliced.rows();
    const std::size_t n = sliced.cols();
    const std::size_t levels = sliced.levels();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t n_groups = n / uv;
    const std::size_t kkp = pairCount(kk);
    const std::size_t pw = 2 * uv;
    std::vector<std::int16_t> out(levels * n_groups * kkp * pw, 0);
    for (std::size_t l = 0; l < levels; ++l) {
        const Slice *src = sliced.planes[l].data.data().data();
        const bool is_ho = l + 1 == levels;
        parallelFor(0, n_groups, [&](std::size_t b, std::size_t e, int) {
            for (std::size_t ng = b; ng < e; ++ng) {
                std::int16_t *dst =
                    out.data() + (l * n_groups + ng) * kkp * pw;
                for (std::size_t k = 0; k < kk; ++k) {
                    if (is_ho && ho_mask && (*ho_mask)(k, ng) != 0)
                        continue; // compressed vector stays zero
                    const Slice *row = src + k * n + ng * uv;
                    std::int16_t *cell =
                        dst + (k >> 1) * pw + (k & 1);
                    for (std::size_t j = 0; j < uv; ++j)
                        cell[2 * j] = row[j];
                }
            }
        });
    }
    return out;
}

/** @return reduction steps per weight-panel plane: kk rounded up to
 *  whole step pairs (an odd trailing step is a zero row). */
inline std::size_t
panelSteps(std::size_t kk)
{
    return 2 * pairCount(kk);
}

/** @return int16 elements of one m-band's panel (all slice levels). */
inline std::size_t
panelBandSize(std::size_t kk, std::size_t levels, int v)
{
    return levels * panelSteps(kk) * static_cast<std::size_t>(v);
}

/**
 * The weight-stationary kernel panel of a sliced weight matrix: for
 * every m-band and slice level, the band's v rows widened to int16 in
 * the layout the pair-pass kernels read (panelOffset in
 * core/pair_pass.h),
 *
 *   panel[(mg * levels + l) * panelSteps(kk) * v + panelOffset(k, i, v)]
 *     = plane_l(mg*v + i, k)
 *
 * with the odd trailing step (if any) zero. Steps whose HO vector is
 * compressed in `ho_mask` ((M/v) x K, 1 = compressed) are stored as
 * zeros in the HO plane - the vectors are all-zero by construction
 * (weightVectorMask), so this only pins the invariant a dense stream
 * over the HO plane relies on. One layout serves both pass kinds of a
 * kernel family, so no pass packs weights per call. Parallel over
 * bands; chunks write disjoint blocks of the pre-sized output, so the
 * result is byte-identical for any thread count.
 */
inline std::vector<std::int16_t>
buildWeightPanel(const SlicedMatrix &w, const MatrixU8 &ho_mask, int v)
{
    const std::size_t kk = w.cols();
    const std::size_t levels = w.levels();
    const std::size_t uv = static_cast<std::size_t>(v);
    const std::size_t m_groups = w.rows() / uv;
    const std::size_t steps = panelSteps(kk);
    const std::size_t band = panelBandSize(kk, levels, v);
    std::vector<std::int16_t> panel(m_groups * band, 0);
    parallelFor(0, m_groups, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t mg = b; mg < e; ++mg) {
            const std::uint8_t *mask = ho_mask.row(mg).data();
            for (std::size_t l = 0; l < levels; ++l) {
                const bool is_ho = l + 1 == levels;
                const Slice *base = w.planes[l].data.data().data();
                std::int16_t *dst =
                    panel.data() + mg * band + l * steps * uv;
                for (std::size_t i = 0; i < uv; ++i) {
                    const Slice *src = base + (mg * uv + i) * kk;
                    for (std::size_t k = 0; k < kk; ++k)
                        if (!is_ho || mask[k] == 0)
                            dst[panelOffset(k, i, uv)] = src[k];
                }
            }
        }
    });
    return panel;
}

/**
 * Widened (int16) copies of a matrix's slice planes, [level][k][n]: the
 * operand format of the pair passes' 16-bit multiplies. Parallel over
 * rows; every chunk writes disjoint elements of the pre-sized output,
 * so the result is byte-identical for any thread count.
 */
inline std::vector<std::int16_t>
widenSlicePlanes(const SlicedMatrix &sliced)
{
    const std::size_t kk = sliced.rows();
    const std::size_t n = sliced.cols();
    const std::size_t levels = sliced.levels();
    std::vector<std::int16_t> out(levels * kk * n);
    for (std::size_t xl = 0; xl < levels; ++xl) {
        const Slice *src = sliced.planes[xl].data.data().data();
        std::int16_t *dst = out.data() + xl * kk * n;
        parallelFor(0, kk, [&](std::size_t b, std::size_t e, int) {
            for (std::size_t k = b; k < e; ++k)
                for (std::size_t j = 0; j < n; ++j)
                    dst[k * n + j] = src[k * n + j];
        });
    }
    return out;
}

} // namespace detail
} // namespace panacea

#endif // PANACEA_CORE_OPERAND_PACK_H
