/**
 * @file
 * Host-kernel microbenchmark: the scalar reference AQS-GEMM versus the
 * register-blocked, skip-list-driven, multi-threaded kernel - across
 * every ISA level the host can run - plus the dense integer GEMM for
 * context, and the operand-preparation
 * stages serial vs parallel. These measure the simulator's own CPU
 * kernels, not modeled hardware.
 *
 * Usage:
 *   bench_kernels                  # human-readable table
 *   bench_kernels --json           # also write BENCH_kernels.json
 *   bench_kernels --json=out.json  # custom output path
 *   bench_kernels --quick          # fewer repetitions (CI smoke)
 *   bench_kernels --density-sweep  # static-vs-measured policy sweep
 *
 * The JSON payload records old-vs-new GMAC/s (effective dense MACs per
 * second), the speedup ratio, a per-ISA GMAC/s table at the 256^3/60%
 * reference case, the thread-scaling curve of the new kernel, the
 * serial-vs-parallel preparation-stage speedups, and a parity flag
 * asserting every kernel agreed with the reference bit-for-bit during
 * the run, and decode-shaped (N = 16 vs 256) timings whose ps/MAC
 * ratio exposes any per-call cost that does not scale with N. With
 * --density-sweep it additionally records GMAC/s of the
 * static vs measured stream/gather dispatch policy
 * (core/kernel_cost_model.h) across activation densities - the CI gate
 * asserts the measured policy never loses more than noise to the
 * static rule at any density. See README.md ("Bench JSON schema") for
 * the field list.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/aqs_gemm.h"
#include "core/kernel_cost_model.h"
#include "quant/gemm_quant.h"
#include "slicing/rle.h"
#include "slicing/slice_tensor.h"
#include "util/cpu_features.h"
#include "util/parallel_for.h"
#include "util/random.h"

using namespace panacea;

namespace {

struct BenchOptions
{
    bool writeJson = false;
    std::string jsonPath = "BENCH_kernels.json";
    double minSeconds = 0.3;
    int maxReps = 25;
    bool quick = false;
    bool densitySweep = false;
};

MatrixI32
weightCodes(Rng &rng, std::size_t m, std::size_t k, double near_zero)
{
    MatrixI32 w(m, k);
    for (auto &v : w.data())
        v = rng.bernoulli(near_zero)
                ? static_cast<std::int32_t>(rng.uniformInt(-8, 7))
                : static_cast<std::int32_t>(rng.uniformInt(-64, 63));
    return w;
}

MatrixI32
actCodes(Rng &rng, std::size_t k, std::size_t n, std::int32_t zp,
         double clustered)
{
    MatrixI32 x(k, n);
    for (auto &v : x.data())
        v = rng.bernoulli(clustered)
                ? static_cast<std::int32_t>(std::clamp<std::int64_t>(
                      zp + rng.uniformInt(-7, 7), 0, 255))
                : static_cast<std::int32_t>(rng.uniformInt(0, 255));
    return x;
}

/** Best-of repeated timing in milliseconds. */
template <typename F>
double
timeMs(const BenchOptions &opt, F &&fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm-up
    double best = 1e300;
    double total = 0.0;
    for (int rep = 0; rep < opt.maxReps; ++rep) {
        auto t0 = clock::now();
        fn();
        auto t1 = clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best = std::min(best, ms);
        total += ms * 1e-3;
        if (rep >= 2 && total >= opt.minSeconds)
            break;
    }
    return best;
}

double
gmacs(std::size_t m, std::size_t k, std::size_t n, double ms)
{
    return static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n) / (ms * 1e6);
}

struct CaseResult
{
    std::size_t dim = 0;
    int sparsityPct = 0;
    double refMs = 0.0;
    double newMs = 0.0;
    bool parity = false;

    double speedup() const { return refMs / newMs; }
};

struct IsaCase
{
    IsaLevel level = IsaLevel::Scalar;
    double ms = 0.0;
    bool parity = false;
};

struct ThreadPoint
{
    int threads = 0;
    int poolThreads = 0; ///< width the pool actually ran with
    double ms = 0.0;
    double speedupVs1 = 0.0;
};

/** One decode-shaped (narrow-N) timing point. */
struct DecodePoint
{
    std::size_t n = 0;
    double ms = 0.0;
    bool parity = false;

    double
    psPerMac(std::size_t m, std::size_t k) const
    {
        return ms * 1e9 / (static_cast<double>(m) * k * n);
    }
};

struct DensityPoint
{
    int densityPct = 0;
    double staticMs = 0.0;
    double measuredMs = 0.0;
    bool parity = false;

    double ratio() const { return staticMs / measuredMs; }
};

struct PrepStage
{
    const char *name = "";
    double serialMs = 0.0;
    double parallelMs = 0.0;

    double speedup() const { return serialMs / parallelMs; }
};

CaseResult
runCase(const BenchOptions &opt, std::size_t dim, int sparsity_pct)
{
    Rng rng(2);
    const std::int32_t zp = 136;
    const double sparsity = sparsity_pct / 100.0;
    MatrixI32 w = weightCodes(rng, dim, dim, sparsity);
    MatrixI32 x = actCodes(rng, dim, dim, zp, sparsity);

    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);

    CaseResult res;
    res.dim = dim;
    res.sparsityPct = sparsity_pct;

    AqsStats ref_stats, new_stats;
    MatrixI64 ref = aqsGemmReference(w_op, x_op, cfg, &ref_stats);
    MatrixI64 neu = aqsGemm(w_op, x_op, cfg, &new_stats);
    res.parity = ref == neu &&
                 ref_stats.executedOuterProducts ==
                     new_stats.executedOuterProducts &&
                 ref_stats.totalMults() == new_stats.totalMults();

    res.refMs = timeMs(opt, [&] { aqsGemmReference(w_op, x_op, cfg); });
    res.newMs = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            opt.writeJson = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            opt.writeJson = true;
            opt.jsonPath = arg.substr(7);
        } else if (arg == "--quick") {
            opt.minSeconds = 0.05;
            opt.maxReps = 5;
            opt.quick = true;
        } else if (arg == "--density-sweep") {
            opt.densitySweep = true;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
    }

    const int pool_threads = parallelThreads();
    const char *isa_active = toString(activeIsaLevel());
    std::cout << "AQS-GEMM kernel bench (pool threads: " << pool_threads
              << ", isa: " << isa_active
              << ", detected: " << toString(detectedIsaLevel()) << ")\n\n";

    // --- Old vs new, single-threaded (the apples-to-apples compare) ---
    setParallelThreads(1);
    std::vector<CaseResult> cases;
    std::cout << "single-thread reference vs blocked kernel (isa: "
              << isa_active << ")\n";
    std::cout << "  dim  sparsity  ref-ms   new-ms   GMAC/s(ref)  "
                 "GMAC/s(new)  speedup  parity\n";
    for (std::size_t dim : {128u, 256u, 512u}) {
        for (int sp : {0, 60, 95}) {
            if (dim != 256 && sp != 60)
                continue; // off-diagonal points add little signal
            CaseResult r = runCase(opt, dim, sp);
            cases.push_back(r);
            std::printf(
                "  %4zu  %6d%%  %7.2f  %7.2f  %11.3f  %11.3f  %6.2fx  %s\n",
                r.dim, r.sparsityPct, r.refMs, r.newMs,
                gmacs(r.dim, r.dim, r.dim, r.refMs),
                gmacs(r.dim, r.dim, r.dim, r.newMs), r.speedup(),
                r.parity ? "yes" : "NO");
        }
    }

    // --- Per-ISA single-thread GMAC/s at the 256^3/60% reference case -
    const std::size_t isa_dim = 256;
    std::vector<IsaCase> isa_cases;
    {
        Rng rng(2);
        const std::int32_t zp = 136;
        MatrixI32 w = weightCodes(rng, isa_dim, isa_dim, 0.6);
        MatrixI32 x = actCodes(rng, isa_dim, isa_dim, zp, 0.6);
        AqsConfig cfg;
        MatrixI64 ref;
        bool have_ref = false;

        std::cout << "\nper-ISA blocked kernel, single thread (dim="
                  << isa_dim << ", 60% clustered)\n";
        std::cout << "  isa       ms    GMAC/s   vs-scalar  parity\n";
        double scalar_ms = 0.0;
        for (IsaLevel lvl : runnableIsaLevels()) {
            setIsaLevel(lvl);
            // Prepare at this level so the precomputed operand caches
            // match the dispatch tier under test - otherwise rows
            // measured under a low PANACEA_ISA pin would time hidden
            // per-call paired-plane rebuilds and the two CI legs'
            // numbers would not be comparable.
            WeightOperand w_op = prepareWeights(w, 1, cfg);
            ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
            if (!have_ref) {
                ref = aqsGemmReference(w_op, x_op, cfg);
                have_ref = true;
            }
            IsaCase c;
            c.level = lvl;
            c.parity = aqsGemm(w_op, x_op, cfg) == ref;
            c.ms = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
            if (lvl == IsaLevel::Scalar)
                scalar_ms = c.ms;
            isa_cases.push_back(c);
            std::printf("  %-6s %7.2f  %8.3f  %8.2fx  %s\n",
                        toString(lvl), c.ms,
                        gmacs(isa_dim, isa_dim, isa_dim, c.ms),
                        scalar_ms > 0.0 ? scalar_ms / c.ms : 1.0,
                        c.parity ? "yes" : "NO");
        }
        resetIsaLevel();
    }

    // --- Decode shapes: per-call fixed cost at narrow N --------------
    // Decode-shaped calls are a few column groups wide, so any work
    // that does not scale with N (weight-side setup) dominates them.
    // Two single-thread points at M = K = 1024 fit ms(N) = fixed +
    // slope * N; the same-run ps/MAC ratio of the narrow to the wide
    // point is host-independent enough for CI to gate on.
    const std::size_t dec_dim = 1024;
    std::vector<DecodePoint> decode_points;
    double decode_fixed_ms = 0.0;
    double decode_ratio = 0.0;
    {
        setParallelThreads(1);
        Rng rng(11);
        const std::int32_t zp = 136;
        MatrixI32 w = weightCodes(rng, dec_dim, dec_dim, 0.6);
        AqsConfig cfg;
        WeightOperand w_op = prepareWeights(w, 1, cfg);
        std::cout << "\ndecode shapes, single thread (m=k=" << dec_dim
                  << ", 60% clustered)\n";
        std::cout << "     n       ms    ps/MAC  parity\n";
        for (std::size_t n : {std::size_t{16}, std::size_t{256}}) {
            MatrixI32 x = actCodes(rng, dec_dim, n, zp, 0.6);
            ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);
            DecodePoint p;
            p.n = n;
            p.parity =
                aqsGemm(w_op, x_op, cfg) == aqsGemmReference(w_op, x_op, cfg);
            p.ms = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
            decode_points.push_back(p);
            std::printf("  %4zu  %7.3f  %8.1f  %s\n", n, p.ms,
                        p.psPerMac(dec_dim, dec_dim),
                        p.parity ? "yes" : "NO");
        }
        const DecodePoint &lo = decode_points.front();
        const DecodePoint &hi = decode_points.back();
        const double slope = (hi.ms - lo.ms) / static_cast<double>(
                                                   hi.n - lo.n);
        decode_fixed_ms = lo.ms - slope * static_cast<double>(lo.n);
        decode_ratio =
            lo.psPerMac(dec_dim, dec_dim) / hi.psPerMac(dec_dim, dec_dim);
        std::printf("  fitted fixed cost %.3f ms/call, ps/MAC ratio "
                    "n=%zu/n=%zu %.2f\n",
                    decode_fixed_ms, lo.n, hi.n, decode_ratio);
        setParallelThreads(pool_threads);
    }

    // --- Static vs measured dispatch policy across densities ---------
    // The stream/gather crossover moves with activation density (dense
    // lists favor streaming, sparse ones gathering); this sweep pins
    // where the per-host measured-cost policy wins over the static
    // 2*nk >= kk rule and by how much. Single-threaded so the numbers
    // isolate the dispatch choice, not pool effects.
    std::vector<DensityPoint> density_points;
    if (opt.densitySweep) {
        setParallelThreads(1);
        // The CI gate compares the two policies within a 2% band, so
        // this sweep keeps a timing floor even under --quick: at the
        // densities where both policies resolve to the same mechanism
        // the true ratio is 1.0 and anything else is timer noise.
        BenchOptions sweep_opt = opt;
        sweep_opt.minSeconds = std::max(opt.minSeconds, 1.2);
        sweep_opt.maxReps = std::max(opt.maxReps, 80);
        const std::size_t ddim = 256;
        Rng drng(11);
        const std::int32_t dzp = 136;
        MatrixI32 dw = weightCodes(drng, ddim, ddim, 0.6);
        std::cout << "\nstream/gather dispatch policy sweep (dim="
                  << ddim << ", single thread, isa: "
                  << toString(activeIsaLevel()) << ")\n";
        std::cout << "  density  static-GMAC/s  measured-GMAC/s  "
                     "measured/static  parity\n";
        for (int density : {10, 30, 50, 60, 70, 90}) {
            // Density here = fraction of activations OUTSIDE the
            // skippable cluster around the zero point.
            MatrixI32 dx = actCodes(drng, ddim, ddim, dzp,
                                    1.0 - density / 100.0);
            AqsConfig cfg;
            WeightOperand w_op = prepareWeights(dw, 1, cfg);
            ActivationOperand x_op =
                prepareActivations(dx, 1, dzp, cfg);
            MatrixI64 ref = aqsGemmReference(w_op, x_op, cfg);

            DensityPoint p;
            p.densityPct = density;
            setStreamPolicy(StreamPolicy::Static);
            p.parity = aqsGemm(w_op, x_op, cfg) == ref; // also warms
            setStreamPolicy(StreamPolicy::Measured);
            p.parity = p.parity && aqsGemm(w_op, x_op, cfg) == ref;
            // Interleaved best-of: alternate the policies within each
            // repetition so host drift (frequency ramps, CI-container
            // steal time) hits both columns alike instead of biasing
            // whichever was timed second.
            using clock = std::chrono::steady_clock;
            double best_static = 1e300, best_measured = 1e300;
            double total = 0.0;
            for (int rep = 0; rep < sweep_opt.maxReps; ++rep) {
                setStreamPolicy(StreamPolicy::Static);
                auto t0 = clock::now();
                aqsGemm(w_op, x_op, cfg);
                auto t1 = clock::now();
                setStreamPolicy(StreamPolicy::Measured);
                auto t2 = clock::now();
                aqsGemm(w_op, x_op, cfg);
                auto t3 = clock::now();
                const double ms_s =
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count();
                const double ms_m =
                    std::chrono::duration<double, std::milli>(t3 - t2)
                        .count();
                best_static = std::min(best_static, ms_s);
                best_measured = std::min(best_measured, ms_m);
                total += (ms_s + ms_m) * 1e-3;
                if (rep >= 2 && total >= sweep_opt.minSeconds)
                    break;
            }
            p.staticMs = best_static;
            p.measuredMs = best_measured;
            resetStreamPolicy();
            density_points.push_back(p);
            std::printf("  %6d%%  %13.3f  %15.3f  %14.3fx  %s\n",
                        p.densityPct,
                        gmacs(ddim, ddim, ddim, p.staticMs),
                        gmacs(ddim, ddim, ddim, p.measuredMs),
                        p.ratio(), p.parity ? "yes" : "NO");
        }
    }

    // --- Thread scaling of the new kernel ----------------------------
    // A shape large enough that band parallelism dominates pool
    // overhead (512 gives 128 m-bands), in quick mode too: at 256 the
    // ladder measures pool overhead, not scaling. Each point resizes
    // the pool BEFORE the timed region so the kernel re-enters with the
    // requested width, and records the width the pool actually ran
    // with (on small machines the curve is legitimately flat - the
    // hardware concurrency is in the JSON for that).
    const std::size_t dim = 512;
    Rng rng(7);
    const std::int32_t zp = 136;
    MatrixI32 w = weightCodes(rng, dim, dim, 0.6);
    MatrixI32 x = actCodes(rng, dim, dim, zp, 0.6);
    AqsConfig cfg;
    WeightOperand w_op = prepareWeights(w, 1, cfg);
    ActivationOperand x_op = prepareActivations(x, 1, zp, cfg);

    std::vector<ThreadPoint> scaling;
    std::cout << "\nblocked kernel thread scaling (dim=" << dim
              << ", 60% clustered)\n";
    std::cout << "  threads    ms    speedup-vs-1t\n";
    // The doubling ladder plus the machine's full width: on wide hosts
    // the 8-thread cap used to hide the top of the curve, and on
    // 1-core CI containers pool_threads records that every point
    // legitimately ran at width 1 (the curve is flat, not broken).
    std::vector<int> thread_points{1, 2, 4, 8};
    const int hw =
        static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 8)
        thread_points.push_back(hw);
    double ms_1t = 0.0;
    for (int t : thread_points) {
        setParallelThreads(t);
        ThreadPoint p;
        p.threads = t;
        p.poolThreads = parallelThreads();
        p.ms = timeMs(opt, [&] { aqsGemm(w_op, x_op, cfg); });
        if (t == 1)
            ms_1t = p.ms;
        p.speedupVs1 = ms_1t / p.ms;
        scaling.push_back(p);
        std::printf("  %7d  %7.2f  %10.2fx\n", p.threads, p.ms,
                    p.speedupVs1);
    }
    setParallelThreads(pool_threads);
    // A ladder run on a 1-core host (or with every point clamped to
    // pool width 1) measures nothing about scaling: the threads exist
    // but time-slice one core, so the curve is flat by construction.
    // Label that explicitly instead of letting 1.00x read as "does
    // not scale".
    bool wide_pool = false;
    for (const ThreadPoint &p : scaling)
        wide_pool = wide_pool || p.poolThreads > 1;
    const bool scaling_measured = wide_pool && hw > 1;
    if (!scaling_measured)
        std::printf("  (host has %d hardware thread%s: the flat curve "
                    "is UNMEASURED scaling, not absent scaling)\n",
                    hw, hw == 1 ? "" : "s");

    // --- Context kernel ---------------------------------------------
    double dense_ms = timeMs(opt, [&] { intGemm(w, x); });
    std::printf("\ncontext (dim=%zu, pool=%d): dense int GEMM %.2f ms\n",
                dim, pool_threads, dense_ms);

    // --- Preparation stages, serial vs parallel ----------------------
    // The ROADMAP flagged prep as a visible serial fraction of layer
    // time; these columns track the parallel_for speedup of each stage
    // (1 thread vs the full pool).
    std::vector<PrepStage> prep{{"sbr_slice"},
                                {"prepare_weights"},
                                {"prepare_activations"}};
    for (PrepStage &stage : prep) {
        auto run = [&] {
            if (std::strcmp(stage.name, "sbr_slice") == 0)
                sbrSliceMatrix(w, 1);
            else if (std::strcmp(stage.name, "prepare_weights") == 0)
                prepareWeights(w, 1, cfg);
            else
                prepareActivations(x, 1, zp, cfg);
        };
        setParallelThreads(1);
        stage.serialMs = timeMs(opt, run);
        setParallelThreads(pool_threads);
        stage.parallelMs = timeMs(opt, run);
    }
    std::vector<Slice> rle_data(65536 * 4);
    for (std::size_t i = 0; i < 65536; ++i) {
        bool fill = rng.bernoulli(0.8);
        for (int j = 0; j < 4; ++j)
            rle_data[i * 4 + j] =
                fill ? 10 : static_cast<Slice>(rng.uniformInt(0, 15));
    }
    double rle_ms = timeMs(
        opt, [&] { RleStream::encode(rle_data, 65536, 4, 10, 4); });
    std::printf("prep (dim=%zu, pool=%d):\n", dim, pool_threads);
    for (const PrepStage &stage : prep)
        std::printf("  %-20s serial %7.2f ms  parallel %7.2f ms  "
                    "speedup %5.2fx\n",
                    stage.name, stage.serialMs, stage.parallelMs,
                    stage.speedup());
    std::printf("  single RLE stream (64Ki vectors): %.2f ms\n", rle_ms);

    bool all_parity = true;
    for (const CaseResult &r : cases)
        all_parity = all_parity && r.parity;
    for (const IsaCase &c : isa_cases)
        all_parity = all_parity && c.parity;
    for (const DensityPoint &p : density_points)
        all_parity = all_parity && p.parity;
    for (const DecodePoint &p : decode_points)
        all_parity = all_parity && p.parity;

    if (opt.writeJson) {
        std::ofstream out(opt.jsonPath);
        if (!out) {
            std::cerr << "cannot write " << opt.jsonPath << "\n";
            return 1;
        }
        out << "{\n  \"bench\": \"kernels\",\n";
        out << "  \"pool_threads\": " << pool_threads << ",\n";
        out << "  \"isa\": \"" << isa_active << "\",\n";
        out << "  \"isa_detected\": \"" << toString(detectedIsaLevel())
            << "\",\n";
        out << "  \"vnni_available\": "
            << (supportedIsaCap() >= IsaLevel::Avx512Vnni ? "true"
                                                          : "false")
            << ",\n";
        out << "  \"stream_policy\": \""
            << toString(activeStreamPolicy()) << "\",\n";
        out << "  \"parity\": " << (all_parity ? "true" : "false")
            << ",\n";
        out << "  \"single_thread_cases\": [\n";
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const CaseResult &r = cases[i];
            out << "    {\"m\": " << r.dim << ", \"k\": " << r.dim
                << ", \"n\": " << r.dim
                << ", \"sparsity_pct\": " << r.sparsityPct
                << ", \"reference_ms\": " << r.refMs
                << ", \"blocked_ms\": " << r.newMs
                << ", \"reference_gmacs\": "
                << gmacs(r.dim, r.dim, r.dim, r.refMs)
                << ", \"blocked_gmacs\": "
                << gmacs(r.dim, r.dim, r.dim, r.newMs)
                << ", \"speedup\": " << r.speedup()
                << ", \"parity\": " << (r.parity ? "true" : "false")
                << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"isa_cases\": [\n";
        for (std::size_t i = 0; i < isa_cases.size(); ++i) {
            const IsaCase &c = isa_cases[i];
            out << "    {\"isa\": \"" << toString(c.level)
                << "\", \"m\": " << isa_dim << ", \"k\": " << isa_dim
                << ", \"n\": " << isa_dim << ", \"sparsity_pct\": 60"
                << ", \"ms\": " << c.ms << ", \"gmacs\": "
                << gmacs(isa_dim, isa_dim, isa_dim, c.ms)
                << ", \"speedup_vs_scalar\": "
                << (isa_cases.front().ms / c.ms)
                << ", \"parity\": " << (c.parity ? "true" : "false")
                << "}" << (i + 1 < isa_cases.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"density_sweep\": [\n";
        for (std::size_t i = 0; i < density_points.size(); ++i) {
            const DensityPoint &p = density_points[i];
            out << "    {\"density_pct\": " << p.densityPct
                << ", \"dim\": 256"
                << ", \"static_ms\": " << p.staticMs
                << ", \"measured_ms\": " << p.measuredMs
                << ", \"static_gmacs\": "
                << gmacs(256, 256, 256, p.staticMs)
                << ", \"measured_gmacs\": "
                << gmacs(256, 256, 256, p.measuredMs)
                << ", \"measured_over_static\": " << p.ratio()
                << ", \"parity\": " << (p.parity ? "true" : "false")
                << "}" << (i + 1 < density_points.size() ? "," : "")
                << "\n";
        }
        out << "  ],\n  \"decode_shapes\": {\"m\": " << dec_dim
            << ", \"k\": " << dec_dim << ", \"threads\": 1"
            << ", \"fixed_ms\": " << decode_fixed_ms
            << ", \"ps_per_mac_ratio\": " << decode_ratio
            << ", \"points\": [\n";
        for (std::size_t i = 0; i < decode_points.size(); ++i) {
            const DecodePoint &p = decode_points[i];
            out << "    {\"n\": " << p.n << ", \"ms\": " << p.ms
                << ", \"ps_per_mac\": " << p.psPerMac(dec_dim, dec_dim)
                << ", \"parity\": " << (p.parity ? "true" : "false")
                << "}" << (i + 1 < decode_points.size() ? "," : "")
                << "\n";
        }
        out << "  ]},\n";
        // thread_scaling_measured: false when the host cannot run the
        // ladder's threads concurrently (1 hardware core, or every
        // point clamped to pool width 1) - consumers must label or
        // skip the flat curve rather than plot it as real scaling.
        out << "  \"thread_scaling_measured\": "
            << (scaling_measured ? "true" : "false") << ",\n";
        out << "  \"thread_scaling\": [\n";
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const ThreadPoint &p = scaling[i];
            out << "    {\"threads\": " << p.threads
                << ", \"pool_threads\": " << p.poolThreads
                << ", \"dim\": " << dim << ", \"ms\": " << p.ms
                << ", \"gmacs\": " << gmacs(dim, dim, dim, p.ms)
                << ", \"speedup_vs_1t\": " << p.speedupVs1 << "}"
                << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"hardware_concurrency\": "
            << static_cast<int>(std::thread::hardware_concurrency())
            << ",\n";
        out << "  \"context\": {\"dense_int_gemm_ms\": " << dense_ms
            << "},\n";
        out << "  \"prep\": {\n";
        for (std::size_t i = 0; i < prep.size(); ++i) {
            const PrepStage &stage = prep[i];
            out << "    \"" << stage.name << "\": {\"serial_ms\": "
                << stage.serialMs << ", \"parallel_ms\": "
                << stage.parallelMs << ", \"speedup\": "
                << stage.speedup() << "},\n";
        }
        out << "    \"rle_encode_ms\": " << rle_ms << "\n  }\n";
        out << "}\n";
        std::cout << "\nwrote " << opt.jsonPath << "\n";
    }

    return all_parity ? 0 : 1;
}
