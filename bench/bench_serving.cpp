/**
 * @file
 * Serving-runtime benchmark: throughput of the micro-batching Session
 * versus sequential single-request execution on the same compiled
 * model, across batch windows, with per-request latency percentiles
 * and a bit-exactness check (every batched output must equal its solo
 * run). Written entirely against the public API (include/panacea/).
 *
 * Usage:
 *   bench_serving                       # DeiT-base attention block
 *   bench_serving --model=opt350m      # LLM-shaped stack
 *   bench_serving --requests=64 --cols=4
 *   bench_serving --json[=out.json]    # write BENCH_serving.json
 *   bench_serving --quick              # CI smoke variant
 *   bench_serving --save=m.pncm        # also save the compiled model
 *   bench_serving --load=m.pncm        # COLD START: load instead of
 *                                      # compiling (zero calibration/
 *                                      # slicing work), then bench.
 *                                      # The file is mmapped and
 *                                      # consumed in place; the run
 *                                      # also times the copying
 *                                      # decode of the same file, so
 *                                      # map_ms vs copy_ms lands in
 *                                      # the cold_start JSON block
 *   bench_serving --arrivals=poisson:<rate|auto>
 *                                      # open-loop Poisson arrivals
 *                                      # (seeded, deterministic
 *                                      # schedule): measures layer-0
 *                                      # batching vs CONTINUOUS
 *                                      # admission at window 16 -
 *                                      # p50/p99 latency split and
 *                                      # the admitted_at_layer
 *                                      # histogram land in the JSON
 *
 * The Poisson schedule is deterministic: inter-arrival gaps come from
 * a fixed-seed Rng, so two runs (or two modes) see the SAME arrival
 * times; "auto" scales the rate to 1.5x the measured sequential
 * throughput so arrivals land mid-stack (where continuous admission
 * matters) on any machine. Both modes run one engine worker at
 * window 16: the layer-0 server keeps a 15 ms fill deadline (the
 * window-filling wait a throughput-tuned batch server needs), the
 * continuous server starts cohorts immediately and coalesces by
 * mid-stack admission instead - which is exactly the trade the bench
 * measures.
 *
 * The JSON payload records sequential vs batched requests/s and
 * effective GMAC/s (dense-equivalent MACs served per second), the
 * speedup per batch window, batch-size and latency statistics, the
 * model-preparation time the cache amortizes, a parity flag, an
 * output digest (FNV-1a over the solo outputs - byte-stable across
 * processes at a fixed ISA leg, so a --save run and a --load run can
 * be diffed for cross-process parity), and a cold_start block
 * comparing the load cost against the build cost it avoided. See
 * README.md ("Bench JSON schema") for the field list.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "panacea/models.h"
#include "panacea/runtime.h"
#include "panacea/serialize.h"
#include "panacea/session.h"
#include "panacea/util.h"

using namespace panacea;

namespace {

struct BenchOptions
{
    bool writeJson = false;
    std::string jsonPath = "BENCH_serving.json";
    std::string model = "deit";
    std::size_t requests = 32;
    std::size_t cols = 4;
    bool quick = false;
    std::string savePath; ///< save the compiled model after the bench
    std::string loadPath; ///< cold start: load instead of compiling
    bool arrivals = false;  ///< open-loop Poisson arrivals mode
    double arrivalRate = 0; ///< req/s; 0 = auto (1.5x sequential)
    int arrivalWindow = 16; ///< batch window of the arrivals runs
};

/** One arrivals-mode configuration (layer-0 vs continuous). */
struct ArrivalResult
{
    std::string name;
    double wallMs = 0.0;
    double reqPerS = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double p50QueueMs = 0.0;
    double p99QueueMs = 0.0;
    double p50ExecMs = 0.0;
    double p99ExecMs = 0.0;
    std::vector<std::uint64_t> admittedAtLayer;
    bool parity = true;
};

/** One session configuration measured over the full request set. */
struct WindowResult
{
    int window = 0;
    double wallMs = 0.0;
    double meanBatch = 0.0;
    std::size_t maxBatch = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
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

/** Resident / anonymous footprint snapshot (/proc; zeros elsewhere). */
struct MemUsage
{
    long rssKb = 0;  ///< resident set, file-backed mappings included
    long anonKb = 0; ///< anonymous (heap) resident pages
};

/**
 * Snapshot this process's memory footprint. The ANONYMOUS delta around
 * a model load is the zero-copy smoke: an mmap load keeps heap growth
 * near zero - its RSS growth is file-backed, page-cache pages that
 * every mapper of the file shares and the kernel can drop - while a
 * copying decode allocates roughly the file size on the heap.
 */
MemUsage
memUsage()
{
    MemUsage u;
    std::ifstream st("/proc/self/smaps_rollup");
    std::string line;
    while (std::getline(st, line)) {
        long kb = 0;
        if (std::sscanf(line.c_str(), "Rss: %ld kB", &kb) == 1)
            u.rssKb = kb;
        else if (std::sscanf(line.c_str(), "Anonymous: %ld kB", &kb) ==
                 1)
            u.anonKb = kb;
    }
    return u;
}

/** FNV-1a over the solo outputs: the cross-process parity digest. */
std::uint64_t
outputDigest(const std::vector<MatrixF> &outputs)
{
    std::uint64_t h = fnv1a64Offset;
    for (const MatrixF &m : outputs)
        h = fnv1a64(m.data().data(), m.size() * sizeof(float), h);
    return h;
}

/**
 * One open-loop arrivals run: request r is submitted schedule_ms[r]
 * after t0 (the same deterministic schedule for every mode), every
 * output is parity-checked against its solo run, and the session's
 * latency split + admission histogram are captured.
 */
ArrivalResult
runArrivalMode(Runtime &rt, const CompiledModel &model,
               const std::vector<MatrixF> &inputs,
               const std::vector<MatrixF> &solo,
               const std::vector<double> &schedule_ms, int window,
               bool continuous)
{
    SessionOptions sopts;
    sopts.batchWindow = window;
    sopts.batchDeadlineMs = 15.0;
    sopts.workers = 1;
    sopts.continuous = continuous;
    sopts.maxAdmissionLayer = 0;
    Session session = rt.createSession(sopts);

    std::vector<std::future<InferenceResult>> futures;
    futures.reserve(inputs.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         schedule_ms[r])));
        futures.push_back(session.submit(model, inputs[r]));
    }
    ArrivalResult res;
    res.name = continuous ? "continuous" : "layer0";
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        const InferenceResult ir = futures[r].get();
        res.parity = res.parity && (ir.output == solo[r]);
    }
    res.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    res.reqPerS =
        static_cast<double>(inputs.size()) / (res.wallMs / 1.0e3);
    const SessionStats es = session.stats();
    res.p50Ms = es.p50LatencyMs;
    res.p99Ms = es.p99LatencyMs;
    res.p50QueueMs = es.p50QueueWaitMs;
    res.p99QueueMs = es.p99QueueWaitMs;
    res.p50ExecMs = es.p50ExecuteMs;
    res.p99ExecMs = es.p99ExecuteMs;
    res.admittedAtLayer = es.admittedAtLayer;
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
        } else if (arg.rfind("--model=", 0) == 0) {
            opt.model = arg.substr(8);
        } else if (arg.rfind("--requests=", 0) == 0) {
            opt.requests = std::stoul(arg.substr(11));
        } else if (arg.rfind("--cols=", 0) == 0) {
            opt.cols = std::stoul(arg.substr(7));
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg.rfind("--save=", 0) == 0) {
            opt.savePath = arg.substr(7);
        } else if (arg.rfind("--load=", 0) == 0) {
            opt.loadPath = arg.substr(7);
        } else if (arg.rfind("--arrivals=", 0) == 0) {
            const std::string spec_arg = arg.substr(11);
            if (spec_arg.rfind("poisson:", 0) != 0) {
                std::cerr << "bad --arrivals spec '" << spec_arg
                          << "' (want poisson:<rate|auto>)\n";
                return 1;
            }
            const std::string rate = spec_arg.substr(8);
            opt.arrivals = true;
            if (rate == "auto") {
                opt.arrivalRate = 0.0;
            } else {
                opt.arrivalRate = std::stod(rate);
                if (opt.arrivalRate <= 0.0) {
                    std::cerr << "arrival rate must be positive\n";
                    return 1;
                }
            }
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 1;
        }
    }
    if (opt.quick)
        opt.requests = std::min<std::size_t>(opt.requests, 16);

    const ModelSpec spec = pickModel(opt.model);
    CompileOptions mopts;
    mopts.maxLayers = opt.quick ? 2 : 4;

    Runtime rt;
    CompiledModel model;
    double load_ms = 0.0;  ///< wall time of the primary (served) load
    double map_ms = 0.0;   ///< = load_ms when the load was mapped
    double copy_ms = 0.0;  ///< copying decode of the same file (ref)
    std::size_t mapped_bytes = 0;
    std::uint32_t file_version = 0;
    long rss_delta_kb = 0;  ///< RSS growth across the primary load
    long anon_delta_kb = 0; ///< heap growth of the primary load - the
                            ///< zero-copy smoke (near 0 when mapped)
    long copy_anon_delta_kb = 0; ///< heap growth of the copy-decode leg
    const bool cold = !opt.loadPath.empty();
    if (cold) {
        // Cold start: consume the compiled artifact - zero
        // calibration, slicing, RLE or HO work. The file is mapped
        // read-only and its weights served in place.
        // loadCompiledModelFor() verifies the file is THE
        // compiled form of exactly this (model, options).
        std::cout << "Loading compiled " << spec.name << " from "
                  << opt.loadPath << " (cold start)...\n";
        const MemUsage mem0 = memUsage();
        const auto t0 = nowTick();
        try {
            model = loadCompiledModelFor(opt.loadPath, spec, mopts);
        } catch (const SerializeError &err) {
            std::cerr << "cold-start load failed: " << err.what()
                      << "\n";
            return 1;
        }
        load_ms = msSince(t0);
        const MemUsage mem1 = memUsage();
        rss_delta_kb = mem1.rssKb - mem0.rssKb;
        anon_delta_kb = mem1.anonKb - mem0.anonKb;
        mapped_bytes = model.mappedBytes();
        if (mapped_bytes > 0)
            map_ms = load_ms;
        try {
            file_version = peekCompiledModelVersion(opt.loadPath);
            // Reference leg: the same file through the copying decode
            // (mmap off), so one run reports map_ms vs copy_ms.
            const MemUsage mem2 = memUsage();
            const auto t1 = nowTick();
            const CompiledModel copied = loadCompiledModelFor(
                opt.loadPath, spec, mopts, /*allow_mmap=*/false);
            copy_ms = msSince(t1);
            copy_anon_delta_kb = memUsage().anonKb - mem2.anonKb;
            if (copied.mappedBytes() != 0) {
                std::cerr << "copy-decode leg unexpectedly mapped\n";
                return 1;
            }
        } catch (const SerializeError &err) {
            std::cerr << "cold-start copy-decode leg failed: "
                      << err.what() << "\n";
            return 1;
        }
        std::cout << "  loaded in " << load_ms << " ms ("
                  << (mapped_bytes > 0 ? "mmap, zero-copy"
                                       : "copying decode")
                  << ", format v" << file_version << ") vs "
                  << copy_ms << " ms copying decode vs "
                  << model.buildMs()
                  << " ms the original build spent ("
                  << model.buildMs() / load_ms << "x faster than "
                  << "building)\n";
        if (mapped_bytes > 0)
            std::cout << "  mapped " << mapped_bytes
                      << " bytes read-only; weight pages are shared "
                      << "with every process mapping this file ("
                      << (map_ms > 0.0 ? copy_ms / map_ms : 0.0)
                      << "x faster than the copying decode)\n";
        std::cout << "  load RSS delta " << rss_delta_kb << " kB ("
                  << anon_delta_kb
                  << " kB heap) vs copy-decode heap delta "
                  << copy_anon_delta_kb << " kB"
                  << (mapped_bytes > 0
                          ? " - zero-copy: the weights stay in "
                            "file-backed pages every mapper shares"
                          : "")
                  << "\n";
    } else {
        std::cout << "Preparing " << spec.name << " ("
                  << (mopts.maxLayers ? mopts.maxLayers
                                      : spec.layers.size())
                  << " layers) for serving...\n";
        model = rt.compile(spec, mopts);
        std::cout << "  prepared in " << model.buildMs() << " ms ("
                  << model.macsPerColumn() / 1.0e6
                  << " dense MMAC per column; cached for every "
                  << "session)\n";
    }

    // Request set: Gaussian activations, opt.cols columns each.
    Rng rng(0x5e81);
    std::vector<MatrixF> inputs;
    inputs.reserve(opt.requests);
    for (std::size_t r = 0; r < opt.requests; ++r) {
        MatrixF x(model.inputFeatures(), opt.cols);
        for (auto &v : x.data())
            v = static_cast<float>(rng.gaussian(0.2, 1.0));
        inputs.push_back(std::move(x));
    }

    // --- Sequential baseline: one request at a time, wait for each.
    // Its outputs double as the solo-run reference for the parity
    // check (window 1 = no batching by construction).
    std::vector<MatrixF> solo(opt.requests);
    double seq_ms = 0.0;
    {
        SessionOptions sopts;
        sopts.batchWindow = 1;
        sopts.batchDeadlineMs = 0.0;
        sopts.workers = 1;
        Session session = rt.createSession(sopts);
        const auto t0 = nowTick();
        for (std::size_t r = 0; r < opt.requests; ++r)
            solo[r] = session.infer(model, inputs[r]).output;
        seq_ms = msSince(t0);
    }
    const double total_cols =
        static_cast<double>(opt.requests) * static_cast<double>(opt.cols);
    const double total_gmacs =
        total_cols * static_cast<double>(model.macsPerColumn()) / 1.0e9;
    const double seq_rps =
        static_cast<double>(opt.requests) / (seq_ms / 1.0e3);
    const std::uint64_t digest = outputDigest(solo);

    // --- Batched: submit everything, sweep the batch window.
    std::vector<int> windows =
        opt.quick ? std::vector<int>{2, 8}
                  : std::vector<int>{2, 4, 8, 16};
    std::vector<WindowResult> results;
    bool all_parity = true;
    for (int window : windows) {
        SessionOptions sopts;
        sopts.batchWindow = window;
        sopts.batchDeadlineMs = 5.0;
        sopts.workers = 2;
        Session session = rt.createSession(sopts);
        std::vector<std::future<InferenceResult>> futures;
        futures.reserve(opt.requests);
        const auto t0 = nowTick();
        for (const MatrixF &x : inputs)
            futures.push_back(session.submit(model, x));
        WindowResult wr;
        wr.window = window;
        for (std::size_t r = 0; r < opt.requests; ++r) {
            InferenceResult res = futures[r].get();
            wr.parity = wr.parity && (res.output == solo[r]);
        }
        wr.wallMs = msSince(t0);
        const SessionStats es = session.stats();
        wr.meanBatch = es.meanBatch;
        wr.maxBatch = es.maxBatch;
        wr.p50Ms = es.p50LatencyMs;
        wr.p99Ms = es.p99LatencyMs;
        all_parity = all_parity && wr.parity;
        results.push_back(wr);
    }

    Table t({"mode", "wall ms", "req/s", "GMAC/s", "speedup",
             "mean batch", "p50 ms", "p99 ms", "bit-exact"});
    t.newRow()
        .cell("sequential")
        .cell(seq_ms, 2)
        .cell(seq_rps, 1)
        .cell(total_gmacs / (seq_ms / 1.0e3), 3)
        .cell("1.00x")
        .cell(1.0, 2)
        .cell("-")
        .cell("-")
        .cell("ref");
    for (const WindowResult &wr : results) {
        t.newRow()
            .cell("window " + std::to_string(wr.window))
            .cell(wr.wallMs, 2)
            .cell(static_cast<double>(opt.requests) / (wr.wallMs / 1e3),
                  1)
            .cell(total_gmacs / (wr.wallMs / 1.0e3), 3)
            .ratioCell(seq_ms / wr.wallMs)
            .cell(wr.meanBatch, 2)
            .cell(wr.p50Ms, 2)
            .cell(wr.p99Ms, 2)
            .cell(wr.parity ? "yes" : "NO");
    }
    t.print(std::cout);
    std::cout << "\nGMAC/s counts dense-equivalent MACs served; "
                 "bit-exact means every batched output equals its "
                 "solo run.\n";

    // --- Open-loop Poisson arrivals: layer-0 batching vs continuous
    // admission over the SAME deterministic arrival schedule.
    std::vector<ArrivalResult> arrivals;
    double arrival_rate = 0.0;
    if (opt.arrivals) {
        arrival_rate = opt.arrivalRate > 0.0 ? opt.arrivalRate
                                             : seq_rps * 1.5;
        Rng arng(0xa221); // fixed seed: the schedule is reproducible
        std::vector<double> schedule(opt.requests);
        double at = 0.0;
        for (double &s : schedule) {
            at += -std::log(1.0 - arng.uniformReal(0.0, 1.0)) *
                  1000.0 / arrival_rate;
            s = at;
        }
        std::cout << "\nOpen-loop Poisson arrivals: "
                  << arrival_rate << " req/s (seed 0xa221), window "
                  << opt.arrivalWindow << ", " << opt.requests
                  << " requests\n";
        arrivals.push_back(runArrivalMode(rt, model, inputs, solo,
                                          schedule, opt.arrivalWindow,
                                          false));
        arrivals.push_back(runArrivalMode(rt, model, inputs, solo,
                                          schedule, opt.arrivalWindow,
                                          true));
        all_parity = all_parity && arrivals[0].parity &&
                     arrivals[1].parity;

        Table at_table({"mode", "req/s", "p50 ms", "p99 ms",
                        "p50 queue", "p99 queue", "p50 exec",
                        "p99 exec", "bit-exact"});
        for (const ArrivalResult &ar : arrivals) {
            at_table.newRow()
                .cell(ar.name)
                .cell(ar.reqPerS, 1)
                .cell(ar.p50Ms, 2)
                .cell(ar.p99Ms, 2)
                .cell(ar.p50QueueMs, 2)
                .cell(ar.p99QueueMs, 2)
                .cell(ar.p50ExecMs, 2)
                .cell(ar.p99ExecMs, 2)
                .cell(ar.parity ? "yes" : "NO");
        }
        at_table.print(std::cout);
        const ArrivalResult &l0 = arrivals[0];
        const ArrivalResult &ct = arrivals[1];
        std::cout << "admitted_at_layer (continuous): [";
        for (std::size_t i = 0; i < ct.admittedAtLayer.size(); ++i)
            std::cout << (i ? ", " : "") << ct.admittedAtLayer[i];
        std::cout << "]\ncontinuous vs layer0: p99 "
                  << ct.p99Ms << " vs " << l0.p99Ms << " ms ("
                  << (l0.p99Ms > 0.0
                          ? 100.0 * (l0.p99Ms - ct.p99Ms) / l0.p99Ms
                          : 0.0)
                  << "% lower), throughput " << ct.reqPerS << " vs "
                  << l0.reqPerS << " req/s\n";
    }

    if (!opt.savePath.empty()) {
        try {
            saveCompiledModel(model, opt.savePath);
            std::cout << "\nsaved compiled model to " << opt.savePath
                      << " (format v" << kCompiledModelFormatVersion
                      << "; reload with --load=" << opt.savePath
                      << " for a zero-preparation cold start)\n";
        } catch (const SerializeError &err) {
            std::cerr << "saving compiled model failed: " << err.what()
                      << "\n";
            return 1;
        }
    }

    if (opt.writeJson) {
        std::ofstream out(opt.jsonPath);
        if (!out) {
            std::cerr << "cannot write " << opt.jsonPath << "\n";
            return 1;
        }
        out << "{\n  \"bench\": \"serving\",\n";
        out << "  \"model\": \"" << spec.name << "\",\n";
        out << "  \"layers\": " << model.layerCount() << ",\n";
        out << "  \"input_features\": " << model.inputFeatures()
            << ",\n";
        out << "  \"requests\": " << opt.requests << ",\n";
        out << "  \"cols_per_request\": " << opt.cols << ",\n";
        out << "  \"macs_per_column\": " << model.macsPerColumn()
            << ",\n";
        out << "  \"model_build_ms\": " << model.buildMs() << ",\n";
        out << "  \"cold_start\": {\"loaded\": "
            << (cold ? "true" : "false")
            << ", \"load_ms\": " << load_ms
            << ", \"map_ms\": " << map_ms
            << ", \"copy_ms\": " << copy_ms
            << ", \"mapped_bytes\": " << mapped_bytes
            << ", \"format_version\": " << file_version
            << ", \"rss_delta_kb\": " << rss_delta_kb
            << ", \"anon_delta_kb\": " << anon_delta_kb
            << ", \"copy_anon_delta_kb\": " << copy_anon_delta_kb
            << ", \"build_ms_saved\": "
            << (cold ? model.buildMs() : 0.0) << "},\n";
        char digest_hex[17];
        std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        out << "  \"output_digest\": \"" << digest_hex << "\",\n";
        out << "  \"isa\": \"" << toString(activeIsaLevel()) << "\",\n";
        out << "  \"pool_threads\": " << parallelThreads() << ",\n";
        out << "  \"hardware_concurrency\": "
            << static_cast<int>(std::thread::hardware_concurrency())
            << ",\n";
        out << "  \"parity\": " << (all_parity ? "true" : "false")
            << ",\n";
        out << "  \"sequential\": {\"wall_ms\": " << seq_ms
            << ", \"req_per_s\": " << seq_rps
            << ", \"gmacs\": " << total_gmacs / (seq_ms / 1.0e3)
            << "},\n";
        out << "  \"windows\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const WindowResult &wr = results[i];
            out << "    {\"window\": " << wr.window
                << ", \"wall_ms\": " << wr.wallMs << ", \"req_per_s\": "
                << static_cast<double>(opt.requests) / (wr.wallMs / 1e3)
                << ", \"gmacs\": " << total_gmacs / (wr.wallMs / 1.0e3)
                << ", \"speedup_vs_sequential\": " << seq_ms / wr.wallMs
                << ", \"mean_batch\": " << wr.meanBatch
                << ", \"max_batch\": " << wr.maxBatch
                << ", \"p50_ms\": " << wr.p50Ms << ", \"p99_ms\": "
                << wr.p99Ms << ", \"parity\": "
                << (wr.parity ? "true" : "false") << "}"
                << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"arrivals\": {\"enabled\": "
            << (opt.arrivals ? "true" : "false");
        if (opt.arrivals) {
            out << ", \"mode\": \"poisson\", \"rate_req_per_s\": "
                << arrival_rate << ", \"seed\": \"0xa221\""
                << ", \"window\": " << opt.arrivalWindow
                << ", \"requests\": " << opt.requests << ",\n"
                << "    \"modes\": [\n";
            for (std::size_t i = 0; i < arrivals.size(); ++i) {
                const ArrivalResult &ar = arrivals[i];
                out << "      {\"name\": \"" << ar.name
                    << "\", \"wall_ms\": " << ar.wallMs
                    << ", \"req_per_s\": " << ar.reqPerS
                    << ", \"p50_ms\": " << ar.p50Ms << ", \"p99_ms\": "
                    << ar.p99Ms << ", \"p50_queue_ms\": "
                    << ar.p50QueueMs << ", \"p99_queue_ms\": "
                    << ar.p99QueueMs << ", \"p50_exec_ms\": "
                    << ar.p50ExecMs << ", \"p99_exec_ms\": "
                    << ar.p99ExecMs << ",\n       \"models\": [{"
                    << "\"name\": \"" << spec.name
                    << "\", \"p50_ms\": " << ar.p50Ms
                    << ", \"p99_ms\": " << ar.p99Ms << "}],\n"
                    << "       \"admitted_at_layer\": [";
                for (std::size_t h = 0; h < ar.admittedAtLayer.size();
                     ++h)
                    out << (h ? ", " : "") << ar.admittedAtLayer[h];
                out << "], \"parity\": "
                    << (ar.parity ? "true" : "false") << "}"
                    << (i + 1 < arrivals.size() ? "," : "") << "\n";
            }
            out << "    ]}\n";
        } else {
            out << "}\n";
        }
        out << "}\n";
        std::cout << "\nwrote " << opt.jsonPath << "\n";
    }
    return all_parity ? 0 : 1;
}
