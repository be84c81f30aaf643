/**
 * @file
 * Fleet benchmark: an open-loop, seeded-Poisson load generator driven
 * at fractions of the fleet's measured capacity, against N engine
 * replicas behind the shedding router (panacea::Fleet). Generalizes
 * bench_serving's arrivals harness from one Session to the fleet tier.
 *
 * Usage:
 *   bench_fleet                        # DeiT-base block, 2 replicas
 *   bench_fleet --replicas=4
 *   bench_fleet --model=opt350m
 *   bench_fleet --json[=out.json]      # write BENCH_fleet.json
 *   bench_fleet --quick                # CI smoke variant
 *
 * Method:
 *   1. Compile the model, save it as a .pncm artifact, and serve
 *      the MMAPPED load of that file - the deployment path, where all
 *      replicas share one physical copy of the weights.
 *   2. Solo-run a fixed input pool (window 1) for the bit-exactness
 *      reference and the cross-process output digest.
 *   3. Measure capacity: closed-loop throughput of the fleet with all
 *      requests pre-queued (generous bounds, nothing sheds).
 *   4. For each load factor in {0.5x, 1x, 2x capacity}: a FRESH fleet
 *      with deliberately small per-replica bounds (queue 16 columns,
 *      engine depth 8) is driven by a deterministic seeded Poisson
 *      schedule (seed 0xf1ee - the same arrival times every run at a
 *      given rate). Reports goodput, shed-rate, fleet p50/p99 latency
 *      over completed requests, GMAC/s actually served, and parity of
 *      every completed output against its solo run. `lost` counts
 *      submissions with no terminal result and MUST be zero.
 *   5. Hot-reload leg at 1x: a second .pncm version (different weight
 *      seed) is swapped in mid-stream; every completed request must
 *      match the solo reference of exactly the version the router
 *      says it ran on, with a monotone version boundary.
 *
 * The process exits nonzero on any parity failure or lost request, so
 * CI can gate on the binary alone. See README.md ("Bench JSON
 * schema") for the BENCH_fleet.json field list.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "panacea/fleet.h"
#include "panacea/models.h"
#include "panacea/runtime.h"
#include "panacea/serialize.h"
#include "panacea/session.h"
#include "panacea/util.h"
#include "util/stats.h"

using namespace panacea;

namespace {

struct BenchOptions
{
    bool writeJson = false;
    std::string jsonPath = "BENCH_fleet.json";
    std::string model = "deit";
    int replicas = 2;
    std::size_t requests = 64; ///< per load point
    std::size_t cols = 4;
    bool quick = false;
};

/** One open-loop load point (a fraction of measured capacity). */
struct LoadPoint
{
    double factor = 0.0;
    double rateReqPerS = 0.0;
    double wallMs = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t lost = 0; ///< no terminal result - must be 0
    std::uint64_t redispatched = 0;
    double goodputReqPerS = 0.0;
    double shedRate = 0.0;
    double gmacs = 0.0; ///< dense-equivalent MACs actually served
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    bool parity = true;
};

/** The mid-stream hot-reload leg at 1x capacity. */
struct ReloadLeg
{
    double rateReqPerS = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t lost = 0;
    std::uint64_t preSwap = 0;  ///< completed on the old version
    std::uint64_t postSwap = 0; ///< completed on the new version
    bool monotone = true; ///< version boundary monotone in order
    bool parity = true;
};

ModelSpec
pickModel(const std::string &name)
{
    if (name == "deit")
        return deitBase();
    if (name == "opt350m")
        return opt350m();
    if (name == "bert")
        return bertBase();
    std::cerr << "unknown --model=" << name
              << " (deit | opt350m | bert)\n";
    std::exit(1);
}

/** Unique scratch dir for the .pncm artifacts, removed at exit. */
struct TempDir
{
    std::filesystem::path path;
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("panacea_bench_fleet_" +
                std::to_string(static_cast<long>(::getpid())));
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }
};

std::vector<MatrixF>
makeInputPool(const CompiledModel &model, std::size_t cols,
              std::size_t count)
{
    Rng rng(0x5e81);
    std::vector<MatrixF> pool;
    pool.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
        MatrixF x(model.inputFeatures(), cols);
        for (auto &v : x.data())
            v = static_cast<float>(rng.gaussian(0.2, 1.0));
        pool.push_back(std::move(x));
    }
    return pool;
}

std::vector<MatrixF>
soloRun(Runtime &rt, const CompiledModel &model,
        const std::vector<MatrixF> &pool)
{
    SessionOptions sopts;
    sopts.batchWindow = 1;
    sopts.batchDeadlineMs = 0.0;
    sopts.workers = 1;
    Session session = rt.createSession(sopts);
    std::vector<MatrixF> out;
    out.reserve(pool.size());
    for (const MatrixF &x : pool)
        out.push_back(session.infer(model, x).output);
    return out;
}

std::uint64_t
outputDigest(const std::vector<MatrixF> &outputs)
{
    std::uint64_t h = fnv1a64Offset;
    for (const MatrixF &m : outputs)
        h = fnv1a64(m.data().data(), m.size() * sizeof(float), h);
    return h;
}

/** The deterministic arrival schedule: seed 0xf1ee, ms offsets. */
std::vector<double>
poissonSchedule(std::size_t requests, double rate_req_per_s)
{
    Rng rng(0xf1ee);
    std::vector<double> schedule(requests);
    double at = 0.0;
    for (double &s : schedule) {
        at += -std::log(1.0 - rng.uniformReal(0.0, 1.0)) * 1000.0 /
              rate_req_per_s;
        s = at;
    }
    return schedule;
}

/** Fleet bounds for the open-loop points: small enough that driving
 *  2x capacity visibly sheds instead of queueing without bound. */
FleetOptions
loadPointFleetOptions(int replicas)
{
    FleetOptions fopts;
    fopts.replicas = replicas;
    fopts.queueCapColumns = 16;  // 4 four-column requests queued
    fopts.engineDepthColumns = 8; // + 2 in the engine
    fopts.engine.workers = 1;
    fopts.engine.batchWindow = 8;
    fopts.engine.batchDeadlineMs = 0.0;
    return fopts;
}

/** Drive one open-loop Poisson point against a fresh fleet. */
LoadPoint
runLoadPoint(Runtime &rt, const CompiledModel &model,
             const std::vector<MatrixF> &pool,
             const std::vector<MatrixF> &solo, double factor,
             double capacity_rps, std::size_t requests, int replicas)
{
    LoadPoint lp;
    lp.factor = factor;
    lp.rateReqPerS = capacity_rps * factor;
    const std::vector<double> schedule =
        poissonSchedule(requests, lp.rateReqPerS);

    Fleet fleet = rt.createFleet(loadPointFleetOptions(replicas));
    fleet.deploy(model);

    std::vector<std::future<FleetResult>> futs;
    futs.reserve(requests);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < requests; ++r) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         schedule[r])));
        futs.push_back(
            fleet.submit(model.shared()->spec().name,
                         MatrixF(pool[r % pool.size()])));
    }
    fleet.drain();
    lp.wallMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

    std::vector<float> latencies;
    latencies.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        const FleetResult res = futs[r].get();
        if (res.outcome == FleetOutcome::Completed) {
            ++lp.completed;
            lp.parity = lp.parity &&
                        (res.result.output == solo[r % solo.size()]);
            latencies.push_back(
                static_cast<float>(res.fleetLatencyMs));
        } else {
            ++lp.rejected;
        }
    }
    const FleetStats s = fleet.stats();
    lp.submitted = s.submitted;
    lp.redispatched = s.redispatched;
    lp.lost = lp.submitted - lp.completed - lp.rejected;
    lp.goodputReqPerS =
        static_cast<double>(lp.completed) / (lp.wallMs / 1.0e3);
    lp.shedRate = lp.submitted
                      ? static_cast<double>(lp.rejected) /
                            static_cast<double>(lp.submitted)
                      : 0.0;
    const double served_cols = static_cast<double>(lp.completed) *
                               static_cast<double>(pool[0].cols());
    lp.gmacs = served_cols *
               static_cast<double>(model.macsPerColumn()) / 1.0e9 /
               (lp.wallMs / 1.0e3);
    if (!latencies.empty()) {
        lp.p50Ms = percentile(latencies, 50.0);
        lp.p99Ms = percentile(latencies, 99.0);
    }
    return lp;
}

/** The hot-reload leg: 1x-capacity Poisson stream, swap at midpoint. */
ReloadLeg
runReloadLeg(Runtime &rt, const CompiledModel &old_model,
             const CompiledModel &new_model,
             const std::vector<MatrixF> &pool,
             const std::vector<MatrixF> &solo_old,
             const std::vector<MatrixF> &solo_new, double capacity_rps,
             std::size_t requests, int replicas)
{
    ReloadLeg leg;
    leg.rateReqPerS = capacity_rps;
    const std::vector<double> schedule =
        poissonSchedule(requests, capacity_rps);

    FleetOptions fopts = loadPointFleetOptions(replicas);
    fopts.queueCapColumns = 0; // default (generous): isolate the swap
    fopts.engineDepthColumns = 0;
    Fleet fleet = rt.createFleet(fopts);
    const std::uint64_t ver_old = fleet.deploy(old_model);
    std::uint64_t ver_new = 0;

    const std::string name = old_model.shared()->spec().name;
    std::vector<std::future<FleetResult>> futs;
    futs.reserve(requests);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < requests; ++r) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         schedule[r])));
        if (r == requests / 2)
            ver_new = fleet.reload(new_model);
        futs.push_back(
            fleet.submit(name, MatrixF(pool[r % pool.size()])));
    }
    fleet.drain();

    bool saw_new = false;
    for (std::size_t r = 0; r < requests; ++r) {
        const FleetResult res = futs[r].get();
        if (res.outcome != FleetOutcome::Completed) {
            ++leg.rejected;
            continue;
        }
        ++leg.completed;
        const bool is_new = res.modelVersion == ver_new;
        if (!is_new && res.modelVersion != ver_old) {
            leg.parity = false; // unknown version: torn swap
            continue;
        }
        if (is_new)
            saw_new = true;
        else if (saw_new)
            leg.monotone = false;
        const MatrixF &want = is_new ? solo_new[r % solo_new.size()]
                                     : solo_old[r % solo_old.size()];
        leg.parity = leg.parity && (res.result.output == want);
        ++(is_new ? leg.postSwap : leg.preSwap);
    }
    leg.submitted = fleet.stats().submitted;
    leg.lost = leg.submitted - leg.completed - leg.rejected;
    return leg;
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
        } else if (arg.rfind("--model=", 0) == 0) {
            opt.model = arg.substr(8);
        } else if (arg.rfind("--replicas=", 0) == 0) {
            opt.replicas = std::stoi(arg.substr(11));
        } else if (arg.rfind("--requests=", 0) == 0) {
            opt.requests = std::stoul(arg.substr(11));
        } else if (arg.rfind("--cols=", 0) == 0) {
            opt.cols = std::stoul(arg.substr(7));
        } else if (arg == "--quick") {
            opt.quick = true;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 1;
        }
    }
    if (opt.quick)
        opt.requests = std::min<std::size_t>(opt.requests, 32);
    if (opt.replicas < 1) {
        std::cerr << "--replicas must be >= 1\n";
        return 1;
    }

    const ModelSpec spec = pickModel(opt.model);
    CompileOptions mopts;
    mopts.maxLayers = opt.quick ? 2 : 4;
    CompileOptions mopts_new = mopts;
    mopts_new.seed = mopts.seed + 1; // the hot-reload "v2" weights

    Runtime rt;
    TempDir dir;
    std::cout << "Preparing " << spec.name << " ("
              << (mopts.maxLayers ? mopts.maxLayers
                                  : spec.layers.size())
              << " layers) x2 versions, via .pncm artifacts...\n";
    // Deploy the way production does: compile once, save the .pncm v2
    // artifact, serve the MMAPPED load (replicas share the pages).
    const std::string old_path = dir.file("v1.pncm");
    const std::string new_path = dir.file("v2.pncm");
    saveCompiledModel(compileModel(spec, mopts), old_path);
    saveCompiledModel(compileModel(spec, mopts_new), new_path);
    const CompiledModel model = loadCompiledModel(old_path);
    const CompiledModel new_model = loadCompiledModel(new_path);
    const std::size_t mapped_bytes = model.mappedBytes();
    std::cout << "  serving "
              << (mapped_bytes > 0 ? "mmapped (zero-copy)" : "copied")
              << " artifact, " << opt.replicas << " replicas\n";

    // Fixed input pool; solo runs are the parity reference and digest.
    const std::vector<MatrixF> pool =
        makeInputPool(model, opt.cols, 8);
    const std::vector<MatrixF> solo = soloRun(rt, model, pool);
    const std::vector<MatrixF> solo_new =
        soloRun(rt, new_model, pool);
    const std::uint64_t digest = outputDigest(solo);

    // --- Capacity: closed-loop, everything pre-queued, generous
    // bounds so nothing sheds - the denominator for the load factors.
    double capacity_rps = 0.0;
    {
        // Same engine depth and batch window as the load points - the
        // knobs that set service rate - with a queue wide enough to
        // hold the whole run, so the measured capacity is the rate the
        // open-loop points can actually sustain.
        FleetOptions fopts = loadPointFleetOptions(opt.replicas);
        fopts.queueCapColumns =
            static_cast<int>(opt.requests * opt.cols + opt.cols);
        Fleet fleet = rt.createFleet(fopts);
        fleet.deploy(model);
        std::vector<std::future<FleetResult>> futs;
        futs.reserve(opt.requests);
        const auto t0 = nowTick();
        for (std::size_t r = 0; r < opt.requests; ++r)
            futs.push_back(fleet.submit(
                spec.name, MatrixF(pool[r % pool.size()])));
        fleet.drain();
        const double wall_ms = msSince(t0);
        std::uint64_t done = 0;
        bool parity = true;
        for (std::size_t r = 0; r < opt.requests; ++r) {
            const FleetResult res = futs[r].get();
            if (res.outcome == FleetOutcome::Completed) {
                ++done;
                parity = parity && (res.result.output ==
                                    solo[r % solo.size()]);
            }
        }
        if (done != opt.requests || !parity) {
            std::cerr << "capacity leg lost or corrupted requests ("
                      << done << "/" << opt.requests << ", parity "
                      << parity << ")\n";
            return 1;
        }
        capacity_rps =
            static_cast<double>(opt.requests) / (wall_ms / 1.0e3);
        std::cout << "  measured capacity: " << capacity_rps
                  << " req/s closed-loop (" << opt.requests
                  << " requests, " << wall_ms << " ms)\n";
    }

    // --- Open-loop Poisson load points.
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    std::vector<LoadPoint> points;
    bool all_parity = true;
    std::uint64_t total_lost = 0;
    for (double f : factors) {
        points.push_back(runLoadPoint(rt, model, pool, solo, f,
                                      capacity_rps, opt.requests,
                                      opt.replicas));
        all_parity = all_parity && points.back().parity;
        total_lost += points.back().lost;
    }

    Table t({"load", "rate r/s", "goodput r/s", "GMAC/s", "shed %",
             "p50 ms", "p99 ms", "lost", "bit-exact"});
    for (const LoadPoint &lp : points) {
        char label[32];
        std::snprintf(label, sizeof(label), "%.1fx", lp.factor);
        t.newRow()
            .cell(label)
            .cell(lp.rateReqPerS, 1)
            .cell(lp.goodputReqPerS, 1)
            .cell(lp.gmacs, 3)
            .cell(100.0 * lp.shedRate, 1)
            .cell(lp.p50Ms, 2)
            .cell(lp.p99Ms, 2)
            .cell(static_cast<double>(lp.lost), 0)
            .cell(lp.parity ? "yes" : "NO");
    }
    t.print(std::cout);
    std::cout << "\nshed % is typed FleetOutcome::Rejected - bounded "
                 "p99 under overload instead of unbounded queueing; "
                 "lost must be 0 (every submission got exactly one "
                 "terminal result).\n";

    // --- Hot-reload under 1x traffic.
    const ReloadLeg leg = runReloadLeg(
        rt, model, new_model, pool, solo, solo_new, capacity_rps,
        opt.requests, opt.replicas);
    all_parity = all_parity && leg.parity && leg.monotone;
    total_lost += leg.lost;
    std::cout << "\nhot-reload @1x: " << leg.completed << "/"
              << leg.submitted << " completed (" << leg.preSwap
              << " old + " << leg.postSwap << " new version), "
              << leg.rejected << " shed, " << leg.lost << " lost, "
              << (leg.monotone ? "monotone" : "NON-MONOTONE")
              << " version boundary, "
              << (leg.parity ? "bit-exact per version"
                             : "PARITY FAILURE")
              << "\n";

    if (opt.writeJson) {
        std::ofstream out(opt.jsonPath);
        if (!out) {
            std::cerr << "cannot write " << opt.jsonPath << "\n";
            return 1;
        }
        char digest_hex[17];
        std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        out << "{\n  \"bench\": \"fleet\",\n";
        out << "  \"model\": \"" << spec.name << "\",\n";
        out << "  \"replicas\": " << opt.replicas << ",\n";
        out << "  \"layers\": " << model.layerCount() << ",\n";
        out << "  \"requests_per_point\": " << opt.requests << ",\n";
        out << "  \"cols_per_request\": " << opt.cols << ",\n";
        out << "  \"macs_per_column\": " << model.macsPerColumn()
            << ",\n";
        out << "  \"mapped_bytes\": " << mapped_bytes << ",\n";
        out << "  \"queue_cap_columns\": "
            << loadPointFleetOptions(opt.replicas).queueCapColumns
            << ",\n";
        out << "  \"engine_depth_columns\": "
            << loadPointFleetOptions(opt.replicas).engineDepthColumns
            << ",\n";
        out << "  \"capacity_req_per_s\": " << capacity_rps << ",\n";
        out << "  \"arrival_seed\": \"0xf1ee\",\n";
        out << "  \"output_digest\": \"" << digest_hex << "\",\n";
        out << "  \"isa\": \"" << toString(activeIsaLevel()) << "\",\n";
        out << "  \"pool_threads\": " << parallelThreads() << ",\n";
        out << "  \"parity\": " << (all_parity ? "true" : "false")
            << ",\n";
        out << "  \"lost\": " << total_lost << ",\n";
        out << "  \"load_points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const LoadPoint &lp = points[i];
            out << "    {\"factor\": " << lp.factor
                << ", \"rate_req_per_s\": " << lp.rateReqPerS
                << ", \"wall_ms\": " << lp.wallMs
                << ", \"submitted\": " << lp.submitted
                << ", \"completed\": " << lp.completed
                << ", \"rejected\": " << lp.rejected
                << ", \"lost\": " << lp.lost
                << ", \"redispatched\": " << lp.redispatched
                << ",\n     \"goodput_req_per_s\": "
                << lp.goodputReqPerS
                << ", \"shed_rate\": " << lp.shedRate
                << ", \"gmacs\": " << lp.gmacs
                << ", \"p50_ms\": " << lp.p50Ms
                << ", \"p99_ms\": " << lp.p99Ms << ", \"parity\": "
                << (lp.parity ? "true" : "false") << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"hot_reload\": {\"rate_req_per_s\": "
            << leg.rateReqPerS << ", \"submitted\": " << leg.submitted
            << ", \"completed\": " << leg.completed
            << ", \"rejected\": " << leg.rejected
            << ", \"lost\": " << leg.lost
            << ", \"pre_swap\": " << leg.preSwap
            << ", \"post_swap\": " << leg.postSwap
            << ", \"monotone\": " << (leg.monotone ? "true" : "false")
            << ", \"parity\": " << (leg.parity ? "true" : "false")
            << "}\n";
        out << "}\n";
        std::cout << "wrote " << opt.jsonPath << "\n";
    }
    return (all_parity && total_lost == 0) ? 0 : 1;
}
