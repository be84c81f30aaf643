/**
 * @file
 * The previous-generation bit-slice GEMM of Sibia (paper §II-B, Fig. 4):
 * symmetric quantization on both operands, SBR slicing on both, and
 * skipping of all-zero HO slice-vectors on ONE operand side (hardware
 * exploits max(rho_w, rho_x), not both). No compensation is needed since
 * the skipped value is zero.
 *
 * This engine is the functional Sibia reference checked by the tests:
 * its outputs equal the dense intGemm of the reconstructed codes, and
 * its counted slice operations are the baseline's figures of merit.
 */

#ifndef PANACEA_CORE_LEGACY_GEMM_H
#define PANACEA_CORE_LEGACY_GEMM_H

#include <cstdint>

#include "slicing/slice_tensor.h"
#include "util/matrix.h"

namespace panacea {

/** Which operand's zero HO vectors the legacy engine skips. */
enum class SibiaSkipSide
{
    Weight,
    Activation,
    Auto,   ///< pick the side with the larger HO vector sparsity
};

/** Execution statistics of one legacy bit-slice GEMM call. */
struct LegacyStats
{
    std::uint64_t denseOuterProducts = 0;
    std::uint64_t executedOuterProducts = 0;
    std::uint64_t skippedOuterProducts = 0;
    std::uint64_t mults = 0;
    std::uint64_t adds = 0;
    std::uint64_t emaNibbles = 0;  ///< dense DRAM format (no compression)
    double macsPerOuterProduct = 16.0; ///< v * v (dense-OP-weighted merge)
    double rhoW = 0.0;             ///< measured weight HO vector sparsity
    double rhoX = 0.0;             ///< measured activation HO vector sparsity
    bool skippedWeightSide = false;

    /** Fraction of dense bit-slice MACs eliminated. */
    double macReduction() const;

    /** Accumulate another stats record. */
    LegacyStats &operator+=(const LegacyStats &other);
};

/**
 * Execute the legacy bit-slice GEMM on SBR-sliced operands.
 *
 * Preconditions: M and N divisible by v; x.rows() == w.cols(). A scalar
 * loop nest with int64 accumulation, parallel over m-groups on the
 * shared pool; results and statistics are bit-identical for every
 * thread count, and always equal the dense intGemm of the
 * reconstructed codes (parity-checked in tests/test_kernel_parity.cpp).
 *
 * @param w SBR-sliced symmetric weight codes (M x K)
 * @param x SBR-sliced symmetric activation codes (K x N)
 * @param v slice-vector length
 * @param side which operand's sparsity to exploit
 * @return the bit-exact integer accumulator W * x.
 */
MatrixI64 legacyBitsliceGemm(const SlicedMatrix &w, const SlicedMatrix &x,
                             int v, SibiaSkipSide side,
                             LegacyStats *stats = nullptr);

} // namespace panacea

#endif // PANACEA_CORE_LEGACY_GEMM_H
