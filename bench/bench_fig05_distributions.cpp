/**
 * @file
 * Reproduces paper Fig. 2 and Fig. 5.
 *
 * Fig. 2-style preamble: symmetric vs asymmetric uniform quantization of
 * an asymmetric tensor (range utilization and error).
 *
 * Fig. 5(a): HO-slice value histograms of asymmetrically quantized
 * activations - the frequent non-zero slice r = HO(zp) that previous
 * bit-slice GEMMs cannot skip.
 *
 * Fig. 5(b): algorithm fidelity of dense int8 GEMM, the previous
 * bit-slice GEMM (symmetric 7-bit, Sibia-style) and the AQS-GEMM
 * (asymmetric 8-bit) on a BERT-class layer, via the quantization-
 * fidelity proxy (DESIGN.md §2) plus the bit-exactness of AQS-GEMM.
 */

#include <iostream>

#include "core/aqs_gemm.h"
#include "models/accuracy_proxy.h"
#include "models/model_workloads.h"
#include "models/model_zoo.h"
#include "models/synth_data.h"
#include "quant/calibration.h"
#include "quant/gemm_quant.h"
#include "quant/quantizer.h"
#include "slicing/slice_tensor.h"
#include "slicing/sparsity.h"
#include "util/histogram.h"
#include "util/table.h"

using namespace panacea;

int
main()
{
    Rng rng(2025);

    printBanner(std::cout, "Fig. 2: symmetric vs asymmetric quantization"
                           " of an asymmetric (post-GELU) tensor");
    MatrixF act = genActivations(rng, 256, 128, ActDistKind::PostGelu);
    QuantParams sym = chooseSymmetricParams(act.data(), 8);
    QuantParams asym = chooseAsymmetricParams(act.data(), 8);
    {
        Table t({"scheme", "scale", "zero-point", "NMSE",
                 "codes used (of 256)"});
        for (const QuantParams *p : {&sym, &asym}) {
            MatrixI32 codes = quantize(act, *p);
            Histogram h(p->codeMin(), p->codeMax());
            for (auto c : codes.data())
                h.add(c);
            std::size_t used = 0;
            for (std::int64_t v = p->codeMin(); v <= p->codeMax(); ++v)
                used += h.count(v) > 0 ? 1 : 0;
            t.newRow()
                .cell(toString(p->scheme))
                .cell(p->scale, 5)
                .cell(static_cast<std::int64_t>(p->zeroPoint))
                .cell(quantizationNmse(act, *p), 6)
                .cell(static_cast<std::int64_t>(used));
        }
        t.print(std::cout);
    }

    printBanner(std::cout, "Fig. 5(a): HO-slice histogram of the "
                           "asymmetrically quantized activation");
    {
        MatrixI32 codes = quantize(act, asym);
        SlicedMatrix sliced = activationSliceMatrix(codes, 1);
        Histogram ho(0, 15);
        for (auto s : sliced.hoPlane().data.data())
            ho.add(s);
        Table t({"HO slice", "share", "note"});
        const std::int32_t r = asym.zeroPoint >> 4;
        for (int v = 0; v <= 15; ++v) {
            double share = static_cast<double>(ho.count(v)) /
                           static_cast<double>(ho.total());
            std::string note;
            if (v == r)
                note = "<- r = HO(zp): frequent, skipped only by AQS";
            if (v == 0)
                note += (note.empty() ? "" : " ") +
                        std::string("(zero: the only slice previous "
                                    "bit-slice GEMMs skip)");
            t.newRow().cell(std::int64_t{v}).percentCell(share).cell(note);
        }
        t.print(std::cout);
    }

    printBanner(std::cout, "Fig. 5(b): fidelity of the GEMM methods on "
                           "BERT-base-class layers (proxy; lower NMSE = "
                           "higher accuracy)");
    {
        ModelBuildOptions opt;
        opt.enableDbs = false;  // isolate the quantizer comparison
        ModelBuild build = buildModel(bertBase(), opt);
        Table t({"layer", "dense int8 (sym) NMSE",
                 "prev bit-slice (sym7) NMSE", "AQS-GEMM (asym8) NMSE"});
        for (const LayerBuild &lb : build.layers) {
            // Dense designs quantize symmetrically at 8 bits.
            Rng lrng(7);
            MatrixF eval = genLayerActivations(lrng, lb.spec, 128);
            QuantParams sym8 = chooseSymmetricParams(eval.data(), 8);
            t.newRow()
                .cell(lb.spec.name)
                .cell(quantizationNmse(eval, sym8), 6)
                .cell(lb.actNmseSym, 6)
                .cell(lb.actNmseAsym, 6);
        }
        t.print(std::cout);
        std::cout << "\nproxy accuracy loss (%p, MAC-weighted): sym7="
                  << proxyAccuracyLossPct(build.meanNmseSym())
                  << "  asym8(AQS)="
                  << proxyAccuracyLossPct(build.meanNmseAsym()) << "\n";
    }

    printBanner(std::cout, "AQS-GEMM exactness spot-check (bit-identical "
                           "to the plain integer GEMM)");
    {
        MatrixF x = genActivations(rng, 64, 32, ActDistKind::PostGelu);
        QuantParams xp = chooseAsymmetricParams(x.data(), 8);
        MatrixF wf = genWeights(rng, 32, 64);
        QuantParams wp = chooseSymmetricParams(wf.data(), 7);
        MatrixI32 w_codes = quantize(wf, wp);
        MatrixI32 x_codes = quantize(x, xp);

        AqsConfig cfg;
        WeightOperand w_op = prepareWeights(w_codes, 1, cfg);
        ActivationOperand x_op =
            prepareActivations(x_codes, 1, xp.zeroPoint, cfg);
        AqsStats stats;
        MatrixI64 aqs = aqsGemm(w_op, x_op, cfg, &stats);
        MatrixI64 ref = intGemm(w_codes, x_codes);
        std::cout << "bit-exact: " << (aqs == ref ? "YES" : "NO")
                  << "   MAC reduction vs dense bit-slice: "
                  << stats.macReduction() * 100.0 << "%\n";
    }
    return 0;
}
