/**
 * @file
 * Reproduces paper Table I: hardware workloads (4b x 4b multiplications,
 * additions, 4-bit EMA) of the bit-slice GEMM engines as functions of
 * the HO vector sparsities, for W in Z^{4xK} and x in Z^{Kx4} with two
 * slices per operand.
 *
 * Prints the closed forms alongside the *counted* values of the
 * functional engines (constructed with exact, decorrelated sparsities)
 * so the table is validated, not just restated. Also shows the Eq. (5)
 * vs Eq. (6) compensation columns.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "core/aqs_gemm.h"
#include "core/workload_model.h"
#include "slicing/slice_tensor.h"
#include "util/random.h"
#include "util/table.h"

using namespace panacea;

namespace {

MatrixI32
weightWithSet(Rng &rng, std::size_t k, const std::vector<bool> &set)
{
    MatrixI32 w(4, k);
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t r = 0; r < 4; ++r) {
            if (set[c]) {
                w(r, c) = static_cast<std::int32_t>(rng.uniformInt(-8, 7));
            } else {
                bool neg = rng.bernoulli(0.5);
                w(r, c) = static_cast<std::int32_t>(
                    neg ? rng.uniformInt(-64, -10) : rng.uniformInt(9, 63));
            }
        }
    return w;
}

MatrixI32
activationWithSet(Rng &rng, std::size_t k, const std::vector<bool> &set,
                  std::int32_t zp)
{
    const std::int32_t r_slice = zp >> 4;
    MatrixI32 x(k, 4);
    for (std::size_t row = 0; row < k; ++row)
        for (std::size_t col = 0; col < 4; ++col) {
            if (set[row]) {
                x(row, col) =
                    (r_slice << 4) +
                    static_cast<std::int32_t>(rng.uniformInt(0, 15));
            } else {
                std::int32_t v;
                do {
                    v = static_cast<std::int32_t>(rng.uniformInt(0, 255));
                } while ((v >> 4) == r_slice);
                x(row, col) = v;
            }
        }
    return x;
}

std::vector<bool>
prefixSet(std::size_t k, double rho)
{
    std::vector<bool> set(k, false);
    auto n = static_cast<std::size_t>(std::llround(rho * k));
    for (std::size_t i = 0; i < n; ++i)
        set[i] = true;
    return set;
}

std::vector<bool>
independentSet(std::size_t k, double rho, const std::vector<bool> &other)
{
    std::size_t inside = 0;
    for (bool b : other)
        inside += b;
    auto want_in = static_cast<std::size_t>(std::llround(rho * inside));
    auto want_out =
        static_cast<std::size_t>(std::llround(rho * (k - inside)));
    std::vector<bool> set(k, false);
    std::size_t got_in = 0;
    std::size_t got_out = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (other[i] && got_in < want_in) {
            set[i] = true;
            ++got_in;
        } else if (!other[i] && got_out < want_out) {
            set[i] = true;
            ++got_out;
        }
    }
    return set;
}

} // namespace

int
main()
{
    const std::size_t k = 400;
    const std::int32_t zp = 136;

    printBanner(std::cout, "Table I: bit-slice GEMM hardware workloads"
                           " (W 4xK, x Kx4, K=400, two slices each)");

    Table table({"rho_w", "rho_x", "Sibia Mul", "Sibia EMA(nib)",
                 "Pana Mul(cnt)", "Pana Mul(form)", "Pana Add(+CS eq6)",
                 "CS Mul", "CS Add eq5", "CS Add eq6", "Pana EMA(nib)",
                 "EMA form"});

    for (double rho_w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        for (double rho_x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            Rng rng(static_cast<std::uint64_t>(rho_w * 100) * 101 +
                    static_cast<std::uint64_t>(rho_x * 100));
            std::vector<bool> w_set = prefixSet(k, rho_w);
            std::vector<bool> x_set = independentSet(k, rho_x, w_set);
            MatrixI32 w = weightWithSet(rng, k, w_set);
            MatrixI32 x = activationWithSet(rng, k, x_set, zp);

            AqsConfig cfg;
            cfg.rleIndexBits = 16;  // Table I idealizes the skip budget
            WeightOperand w_op = prepareWeights(w, 1, cfg);
            ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
            AqsStats stats;
            (void)aqsGemm(w_op, x_op, cfg, &stats);

            AqsConfig cfg5 = cfg;
            cfg5.useEq6 = false;
            AqsStats stats5;
            (void)aqsGemm(w_op, x_op, cfg5, &stats5);

            WorkloadCounts sib = sibiaWorkload(k, rho_w, rho_x);
            WorkloadCounts bs = panaceaBitsliceWorkload(k, rho_w, rho_x);

            table.newRow()
                .cell(rho_w, 2)
                .cell(rho_x, 2)
                .cell(sib.mults, 0)
                .cell(sib.emaNibbles, 0)
                .cell(static_cast<std::int64_t>(stats.mults))
                .cell(bs.mults, 0)
                .cell(static_cast<std::int64_t>(stats.totalAdds()))
                .cell(static_cast<std::int64_t>(stats.compMults))
                .cell(static_cast<std::int64_t>(stats5.compAdds))
                .cell(static_cast<std::int64_t>(stats.compAdds))
                .cell(static_cast<std::int64_t>(stats.wNibbles +
                                                stats.xNibbles))
                .cell(bs.emaNibbles, 0);
        }
    }
    table.print(std::cout);

    printBanner(std::cout,
                "Closed-form check: Eq.(5) vs Eq.(6) compensation");
    Table comp({"rho_x", "Add eq5 (8K*rho)", "Add eq6 (8K*(1-rho))",
                "extra EMA eq5", "extra EMA eq6"});
    for (double rho_x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        WorkloadCounts c5 = compensationWorkload(k, rho_x, false);
        WorkloadCounts c6 = compensationWorkload(k, rho_x, true);
        comp.newRow()
            .cell(rho_x, 2)
            .cell(c5.adds, 0)
            .cell(c6.adds, 0)
            .cell(c5.emaNibbles, 0)
            .cell(c6.emaNibbles, 0);
    }
    comp.print(std::cout);

    std::cout << "\nPaper shape check: Panacea exploits both sparsities "
                 "multiplicatively (16K(2-rx)(2-rw)) while Sibia only "
                 "max(rho) (32K(2-max)); Eq.(6) removes the Eq.(5) "
                 "compensation EMA entirely.\n";
    return 0;
}
