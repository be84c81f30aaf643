#include "core/legacy_gemm.h"

#include <vector>

#include "slicing/sparsity.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

double
LegacyStats::macReduction() const
{
    if (denseOuterProducts == 0 || macsPerOuterProduct <= 0.0)
        return 0.0;
    return 1.0 - static_cast<double>(mults) /
                     (static_cast<double>(denseOuterProducts) *
                      macsPerOuterProduct);
}

LegacyStats &
LegacyStats::operator+=(const LegacyStats &other)
{
    // Dense-OP-weighted blend keeps the macReduction() denominator
    // exact when merging runs with different vector lengths.
    const double d_old = static_cast<double>(denseOuterProducts);
    const double d_other = static_cast<double>(other.denseOuterProducts);
    if (d_old + d_other > 0.0)
        macsPerOuterProduct = (macsPerOuterProduct * d_old +
                               other.macsPerOuterProduct * d_other) /
                              (d_old + d_other);
    denseOuterProducts += other.denseOuterProducts;
    executedOuterProducts += other.executedOuterProducts;
    skippedOuterProducts += other.skippedOuterProducts;
    mults += other.mults;
    adds += other.adds;
    emaNibbles += other.emaNibbles;
    // Sparsities of merged records: keep the weighted blend by dense OPs
    // so model-level aggregation stays meaningful.
    double w_total = static_cast<double>(denseOuterProducts);
    if (w_total > 0.0) {
        double w_old = w_total - static_cast<double>(
            other.denseOuterProducts);
        rhoW = (rhoW * w_old + other.rhoW *
                static_cast<double>(other.denseOuterProducts)) / w_total;
        rhoX = (rhoX * w_old + other.rhoX *
                static_cast<double>(other.denseOuterProducts)) / w_total;
    }
    return *this;
}

namespace {

/** Integer counters of one parallel band (exact sums, reduced later). */
struct LegacyBandCounters
{
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
};

/**
 * Band [mg0, mg1) of the legacy bit-slice GEMM: the per-element loop
 * nest over (m-group, n-group, k, weight plane, activation plane),
 * skipping the HO plane of whichever operand side `skip_weight` picks
 * wherever that side's vector is all-zero. Accumulates in int64, so it
 * is exact for any reduction depth and vector length.
 */
void
legacyBand(const SlicedMatrix &w, const SlicedMatrix &x, int v,
           bool skip_weight, const MatrixU8 &w_mask,
           const MatrixU8 &x_mask, std::size_t mg0, std::size_t mg1,
           MatrixI64 &acc, LegacyBandCounters &counters)
{
    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    const std::size_t w_levels = w.levels();
    const std::size_t x_levels = x.levels();
    const std::size_t w_ho = w_levels - 1;
    const std::size_t x_ho = x_levels - 1;

    for (std::size_t mg = mg0; mg < mg1; ++mg) {
        for (std::size_t ng = 0; ng < n / v; ++ng) {
            for (std::size_t k = 0; k < kk; ++k) {
                const bool w_comp = skip_weight && w_mask(mg, k) != 0;
                const bool x_comp = !skip_weight && x_mask(k, ng) != 0;
                for (std::size_t wl = 0; wl < w_levels; ++wl) {
                    if (w_comp && wl == w_ho) {
                        counters.skipped += x_levels;
                        continue;
                    }
                    const SlicePlane &wp = w.planes[wl];
                    for (std::size_t xl = 0; xl < x_levels; ++xl) {
                        if (x_comp && xl == x_ho) {
                            ++counters.skipped;
                            continue;
                        }
                        const SlicePlane &xp = x.planes[xl];
                        const int shift = wp.shift + xp.shift;
                        ++counters.executed;
                        for (int i = 0; i < v; ++i) {
                            const std::int64_t ws = wp.data(mg * v + i, k);
                            for (int j = 0; j < v; ++j) {
                                const std::int64_t xs =
                                    xp.data(k, ng * v + j);
                                acc(mg * v + i, ng * v + j) +=
                                    (ws * xs) << shift;
                            }
                        }
                    }
                }
            }
        }
    }
}

} // namespace

MatrixI64
legacyBitsliceGemm(const SlicedMatrix &w, const SlicedMatrix &x, int v,
                   SibiaSkipSide side, LegacyStats *stats)
{
    const std::size_t m = w.rows();
    const std::size_t kk = w.cols();
    const std::size_t n = x.cols();
    panic_if(x.rows() != kk, "legacy GEMM shape mismatch");
    panic_if(m % v != 0 || n % v != 0,
             "legacy GEMM needs M and N divisible by v=", v);

    const MatrixU8 w_mask = weightVectorMask(w.hoPlane().data, v);
    const MatrixU8 x_mask = activationVectorMask(x.hoPlane().data, v, 0);

    LegacyStats local;
    local.rhoW = maskDensityOfOnes(w_mask);
    local.rhoX = maskDensityOfOnes(x_mask);
    local.macsPerOuterProduct = static_cast<double>(v) * v;

    bool skip_weight;
    switch (side) {
      case SibiaSkipSide::Weight:     skip_weight = true; break;
      case SibiaSkipSide::Activation: skip_weight = false; break;
      case SibiaSkipSide::Auto:
      default:
        skip_weight = local.rhoW >= local.rhoX;
        break;
    }
    local.skippedWeightSide = skip_weight;

    const std::size_t m_groups = m / static_cast<std::size_t>(v);
    const std::size_t n_groups = n / static_cast<std::size_t>(v);
    local.denseOuterProducts =
        m_groups * n_groups * kk * w.levels() * x.levels();

    MatrixI64 acc(m, n);

    // Parallel over m-groups (disjoint accumulator rows); the per-band
    // counters are exact integer sums, so results and statistics are
    // bit-identical for any thread count.
    const int chunks = parallelChunkCount(m_groups);
    std::vector<LegacyBandCounters> partial(
        static_cast<std::size_t>(chunks));
    parallelFor(0, m_groups, [&](std::size_t b, std::size_t e, int c) {
        legacyBand(w, x, v, skip_weight, w_mask, x_mask, b, e, acc,
                   partial[static_cast<std::size_t>(c)]);
    });
    for (const LegacyBandCounters &part : partial) {
        local.executedOuterProducts += part.executed;
        local.skippedOuterProducts += part.skipped;
    }

    local.mults = local.executedOuterProducts *
                  static_cast<std::uint64_t>(v) *
                  static_cast<std::uint64_t>(v);
    local.adds = local.mults;
    // Sibia ships uncompressed operands from DRAM: bits/4 nibbles each.
    local.emaNibbles =
        (static_cast<std::uint64_t>(m) * kk * w.sourceBits +
         static_cast<std::uint64_t>(kk) * n * x.sourceBits) / 4;

    if (stats)
        *stats += local;
    return acc;
}

} // namespace panacea
