/**
 * @file
 * Serving benchmark driver: three workloads (decode, prefill, fleet)
 * through the public Runtime / Session / Fleet API, every output
 * checked byte-for-byte against a solo reference computed untimed from
 * the same inputs. servebench/run.py builds and runs this program; see
 * servebench/README.md for the workloads, the metrics and why each
 * exists.
 *
 *   servebench --workload decode|prefill|fleet --seed N --seconds S
 *              --trace 0|1 [--out DIR] [--commit ID]
 *   servebench --selftest
 *
 * --trace 0 prints the end-to-end metrics of one untraced run.
 * --trace 1 runs the same workload untraced, then traced (request
 * spans recorded from this file around each call into the library),
 * then replays the workload's inputs stage by stage through the public
 * functions ServedModel::forwardPreparedStep is made of, and prints the
 * per-layer metrics. Spans go to DIR/spans-<workload>-<seed>.json.
 *
 * The last stdout line is one JSON object with exactly the keys
 * correct, attempted, failed and metrics; the line before it records
 * the host and configuration. The exit code is nonzero when any
 * output differs from its reference.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/kernel_cost_model.h"
#include "panacea/panacea.h"

using namespace panacea;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point
plusMs(Clock::time_point t, double ms)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------
// Fixed load. Every count and rate below is an absolute constant: the
// load never scales with a pass measured at run time, so two runs of
// one seed offer the same work whatever the host's speed that minute.
// ---------------------------------------------------------------------

/** Shared thread-pool width. One lane: decode-shaped GEMMs hand the
 *  pool many small jobs, and at two or four lanes their wake-ups made
 *  throughput and fleet latency swing by a tenth to a third between
 *  runs; two fleet replicas sharing one helper lane also raced for it. */
constexpr int kPoolWidth = 1;
/**
 * The stream/gather policy serving runs under: the static rule, not the
 * default measured one. The measured policy's per-process calibration (a
 * microbenchmark of about 10 us per kernel) lands in one of two clusters
 * and flips the stream/gather choice of many GEMM passes, so under it one
 * decode run read 100 to 164 col/s and fleet latency doubled from one
 * process to the next (README.md). The calibration still runs, timed, in
 * every set-up, and the traced replay times the measured policy's GEMMs
 * against these (core.gemm_measured_over_static).
 */
constexpr StreamPolicy kServePolicy = StreamPolicy::Static;
/** Engine worker threads per Session / per fleet replica. */
constexpr int kEngineWorkers = 1;
constexpr int kReplicas = 2;
/** Closed-loop ramp before the measured window opens. */
constexpr double kWarmupMs = 500.0;
/** Cold set-ups per process of the fleet workload, whose set-up takes
 *  milliseconds; decode and prefill set up once per process. */
constexpr int kFleetSetups = 3;

/** opt350m's first served layers: 4 for decode, as bench_generation
 *  serves it; 2 for prefill, so that a run holds the 100 requests a p90
 *  needs. */
constexpr std::size_t kDecodeLayers = 4;
constexpr std::size_t kPrefillLayers = 2;

constexpr int kDecodeClients = 4;
constexpr std::size_t kDecodePromptGroups = 2;
constexpr std::size_t kDecodeSteps = 8;
constexpr std::size_t kDecodePool = 2;
/** How long the decode engine waits for a round's steps to arrive;
 *  the pump submits them within a millisecond or two of each other. */
constexpr double kDecodeFillMs = 20.0;

constexpr int kPrefillClients = 2;
constexpr std::size_t kPrefillGroups = 32; ///< cohorts of two are 64 wide
constexpr std::size_t kPrefillPool = 4;

/** Light enough that short requests rarely queue: at 8/s with 10% long,
 *  or 6/s with 10% long, about a fifth of them did (behind a long one
 *  on the other replica, or behind a slow kernel calibration) and their
 *  p90 moved by a third to a half between runs. 6/s still gives the 100
 *  short requests a p90 needs in a 20 s run. */
constexpr double kFleetRatePerS = 6.0;
constexpr double kFleetLongShare = 0.05;
constexpr std::size_t kFleetShortGroups = 1;
constexpr std::size_t kFleetLongGroups = 50; ///< one DeiT image, 200 cols
constexpr std::size_t kFleetShortPool = 4;
constexpr std::size_t kFleetLongPool = 2;
/** Generator lateness above this makes fleet latencies suspect (the
 *  host stalled the generator); such a run is flagged, not failed. */
constexpr double kLateLimitMs = 25.0;

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** A percentile is reported only with this many samples beyond it. */
constexpr std::size_t kMinBeyond = 10;

struct Quantile
{
    double value = 0.0;
    std::size_t samples = 0;
    bool supported = false; ///< >= kMinBeyond samples lie beyond it
};

/** Nearest-rank percentile q in (0, 1) of `xs`. */
Quantile
quantile(std::vector<double> xs, double q)
{
    Quantile r;
    r.samples = xs.size();
    if (xs.empty())
        return r;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    r.value = xs[rank - 1];
    r.supported = n - rank >= kMinBeyond;
    return r;
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------

struct Arrival
{
    double atMs = 0.0;     ///< due time from the schedule origin
    bool isLong = false;
    std::size_t input = 0; ///< index into the short or long input pool
};

/**
 * A Poisson arrival process of `count` arrivals over [0, spanMs),
 * conditioned on that count: given their number, Poisson arrival times
 * are i.i.d. uniform over the span. Exactly `long_count` of them
 * (positions drawn from the seed) are long. Conditioning fixes the
 * offered work per run, so run-to-run spread measures the system, not
 * the draw.
 */
std::vector<Arrival>
poissonSchedule(std::uint64_t seed, std::size_t count, double span_ms,
                std::size_t long_count, std::size_t short_inputs,
                std::size_t long_inputs)
{
    Rng rng(seed ^ 0x5c4ed01eull);
    std::vector<Arrival> out(count);
    for (Arrival &a : out)
        a.atMs = rng.uniformReal(0.0, span_ms);
    std::sort(out.begin(), out.end(), [](const Arrival &a, const Arrival &b) {
        return a.atMs < b.atMs;
    });
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i)
        order[i] = i;
    for (std::size_t i = count; i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i - 1)))]);
    for (std::size_t i = 0; i < std::min(long_count, count); ++i)
        out[order[i]].isLong = true;
    std::size_t ns = 0, nl = 0;
    for (Arrival &a : out)
        a.input = a.isLong ? nl++ % long_inputs : ns++ % short_inputs;
    return out;
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/** One operation a closed-loop client ran. */
struct OpRecord
{
    Clock::time_point start;
    Clock::time_point end;
    bool ok = false;
    std::size_t columns = 0;
};

/**
 * `clients` threads, each running op(seq) back to back until `stop`:
 * a client starts an operation only before `stop`, and every started
 * operation runs to its end, so attempted = records.size(). `seq` is
 * a global start counter (it picks the op's input). An op that throws
 * is recorded as failed. With `lockstep`, the clients run in rounds:
 * all of them start together, and the next round starts when the last
 * op of this one has ended, so every round offers the engine the same
 * overlap instead of whatever phase the clients drifted into.
 */
std::vector<OpRecord>
runClosedLoop(int clients, Clock::time_point stop,
              const std::function<OpRecord(std::size_t)> &op,
              bool lockstep = false)
{
    std::mutex mutex;
    std::vector<OpRecord> records;
    std::atomic<std::size_t> next{0};
    bool more = true; // written only by the round's completion step
    std::barrier round(clients, [&]() noexcept {
        more = Clock::now() < stop;
    });
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                if (lockstep) {
                    round.arrive_and_wait();
                    if (!more)
                        break;
                } else if (Clock::now() >= stop) {
                    break;
                }
                const std::size_t seq = next.fetch_add(1);
                OpRecord rec;
                rec.start = Clock::now();
                try {
                    rec = op(seq);
                } catch (const std::exception &e) {
                    std::cerr << "servebench: operation failed: "
                              << e.what() << "\n";
                    rec.ok = false;
                    rec.end = Clock::now();
                }
                std::lock_guard<std::mutex> lock(mutex);
                records.push_back(rec);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return records;
}

/**
 * Served columns per second over [t0, t1). An operation that straddles
 * a window edge counts for the share of its duration inside the window,
 * so the rate is not quantized to whole requests.
 */
double
columnsPerSecond(const std::vector<OpRecord> &records,
                 Clock::time_point t0, Clock::time_point t1)
{
    double cols = 0.0;
    for (const OpRecord &r : records) {
        const double inside =
            msBetween(std::max(r.start, t0), std::min(r.end, t1));
        const double length = msBetween(r.start, r.end);
        if (r.ok && inside > 0.0 && length > 0.0)
            cols += static_cast<double>(r.columns) * inside / length;
    }
    return cols / (msBetween(t0, t1) / 1000.0);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< spans of one request share it
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
};

/** In-memory span store, written out when the run ends. Disabled
 *  tracers record nothing and return id 0. */
class Tracer
{
  public:
    Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

    bool on() const { return on_; }

    std::uint64_t
    add(const std::string &name, std::uint64_t request,
        std::uint64_t parent, Clock::time_point start,
        Clock::time_point end)
    {
        if (!on_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        Span s;
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.request = request;
        s.name = name;
        s.startUs = 1000.0 * msBetween(origin_, start);
        s.endUs = 1000.0 * msBetween(origin_, end);
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    std::uint64_t nextRequest() { return ++requests_; }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        out << "{\"spans\": [\n";
        char buf[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "\"start_us\": %.3f, \"end_us\": %.3f}",
                          s.startUs, s.endUs);
            out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
                << ", \"request\": " << s.request << ", \"name\": \""
                << s.name << "\", " << buf
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool on_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> requests_{0};
};

// ---------------------------------------------------------------------
// Metrics and output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
joined(const std::vector<std::string> &parts)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += parts[i];
    }
    return out;
}

/** The result line: exactly correct, attempted, failed, metrics. */
std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", " : "") + jsonString(metrics[i].name) + ": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": " +
             jsonString(metrics[i].unit) + "}";
    }
    return s + "}}";
}

/** What one run of a workload produced. */
struct Outcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> sample count behind each reported percentile. */
    std::map<std::string, std::size_t> samples;
    std::vector<std::string> unsupported;
    std::map<std::string, std::string> info;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    addQuantile(const std::string &name, const Quantile &q)
    {
        metrics.push_back({name, q.value, "ms"});
        samples[name] = q.samples;
        if (!q.supported)
            unsupported.push_back(name);
    }
};

bool
sameBytes(const MatrixF &a, const MatrixF &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

MatrixF
makeInput(std::size_t features, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    MatrixF x(features, cols);
    for (float &v : x.data())
        v = static_cast<float>(rng.gaussian(0.2, 1.0));
    return x;
}

/** `groups` column groups cycling through `units` (all same rows). */
MatrixF
tileGroups(const std::vector<MatrixF> &units, std::size_t groups,
           std::size_t v)
{
    MatrixF out(units.front().rows(), groups * v);
    std::size_t g = 0;
    for (std::size_t u = 0; g < groups; u = (u + 1) % units.size()) {
        const MatrixF &src = units[u];
        const std::size_t take = std::min(src.cols() / v, groups - g);
        for (std::size_t r = 0; r < out.rows(); ++r)
            std::copy_n(src.row(r).begin(), take * v,
                        out.row(r).begin() +
                            static_cast<std::ptrdiff_t>(g * v));
        g += take;
    }
    return out;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** cgroup CPU quota: v2 cpu.max, else v1 quota/period. */
std::string
cpuQuota()
{
    std::string v2 = readFirstLine("/sys/fs/cgroup/cpu.max");
    if (!v2.empty())
        return v2;
    const std::string q = readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const std::string p =
        readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (q.empty())
        return "unknown";
    return (q == "-1" ? std::string("max") : q) + " " + p;
}

/** The calibrated pass4 stream cost over its gather cost, active ISA. */
double
streamGatherRatio()
{
    const detail::KernelCostEntry &e =
        detail::kernelCostTable()
            .entries[static_cast<std::size_t>(activeIsaLevel())]
                    [static_cast<std::size_t>(detail::KernelFamily::Pass4)];
    if (!e.measured || e.gather_ps_per_step == 0)
        return 0.0;
    return static_cast<double>(e.stream_ps_per_pair) /
           static_cast<double>(e.gather_ps_per_step);
}

std::string
calibrationJson()
{
    const detail::KernelCostTable &t = detail::kernelCostTable();
    std::vector<std::string> cells;
    for (std::size_t l = 0; l < kIsaLevelCount; ++l) {
        for (std::size_t f = 0; f < detail::kKernelFamilyCount; ++f) {
            const detail::KernelCostEntry &e = t.entries[l][f];
            if (!e.measured)
                continue;
            cells.push_back("{\"isa\": " +
                 jsonString(toString(static_cast<IsaLevel>(l))) +
                 ", \"family\": " + jsonString(f == 0 ? "pass4" : "generic") +
                 ", \"gather_ps_per_step\": " +
                 std::to_string(e.gather_ps_per_step) +
                 ", \"stream_ps_per_pair\": " +
                 std::to_string(e.stream_ps_per_pair) + "}");
        }
    }
    return "[" + joined(cells) + "]";
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< the whole run; this process measures a part
    int part = 0;          ///< which part of the run this process is
    int parts = 1;
    bool trace = false;
    std::string out = ".bench_out";
    std::string commit = "unknown";
};

/** A served model and the Runtime that owns it. */
struct Served
{
    std::unique_ptr<Runtime> rt;
    CompiledModel model;
};

/** A fresh empty directory under the run's output directory. */
std::string
freshDir(const RunArgs &a, const std::string &tag)
{
    const fs::path dir = fs::path(a.out) /
                         (tag + "-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

struct SetupTimes
{
    std::vector<double> totalS;
    std::vector<double> calibrateMs;
    std::vector<double> compileMs;
};

/**
 * One cold set-up of opt350m: an empty private cache dir, kernel
 * calibration into it, a fresh Runtime on it, and compile (including
 * the disk write-back).
 */
Served
coldCompile(const RunArgs &a, std::size_t layers, SetupTimes &times,
            Tracer &tracer)
{
    const std::string dir = freshDir(a, "cache");
    const auto t0 = Clock::now();
    detail::setKernelCostCacheDir(dir);
    detail::reloadKernelCosts();
    const auto t1 = Clock::now();
    RuntimeOptions ro;
    ro.cacheDir = dir;
    Served s;
    s.rt = std::make_unique<Runtime>(ro);
    CompileOptions co;
    co.maxLayers = layers;
    s.model = s.rt->compile(opt350m(), co);
    const auto t2 = Clock::now();
    times.totalS.push_back(msBetween(t0, t2) / 1000.0);
    times.calibrateMs.push_back(msBetween(t0, t1));
    times.compileMs.push_back(msBetween(t1, t2));
    const std::uint64_t req = tracer.nextRequest();
    const std::uint64_t root = tracer.add("setup", req, 0, t0, t2);
    tracer.add("kernel_cost_model.calibrate", req, root, t0, t1);
    tracer.add("operand_cache.compile", req, root, t1, t2);
    return s;
}

SessionOptions
sessionOptions()
{
    SessionOptions so;
    so.continuous = true;
    so.workers = kEngineWorkers;
    so.batchWindow = 8;
    so.batchDeadlineMs = 0.0;
    return so;
}

/**
 * The decode session forms each cohort at layer 0 and waits up to
 * kDecodeFillMs for all kDecodeClients steps of a round. Under
 * continuous admission the generation pump's one-by-one submits race
 * the worker: the first step starts alone and the rest splice in at
 * layer 1 after a catch-up replay, or they all start together, and a
 * cohort cost 120 or 140 ms on that coin flip, which moved the
 * inter-token median between runs by up to a third.
 */
SessionOptions
decodeSessionOptions()
{
    SessionOptions so = sessionOptions();
    so.continuous = false;
    so.batchWindow = kDecodeClients;
    so.batchDeadlineMs = kDecodeFillMs;
    return so;
}

/** An untimed one-request-at-a-time session for the references. */
Session
soloSession(Runtime &rt)
{
    SessionOptions so;
    so.batchWindow = 1;
    so.batchDeadlineMs = 0.0;
    so.workers = 1;
    return rt.createSession(so);
}

// ---------------------------------------------------------------------
// Stage replay
// ---------------------------------------------------------------------

/** Stage times of one cohort, summed over the layers (ms). */
struct StageTimes
{
    double prep = 0.0, count = 0.0, gemm = 0.0, dequant = 0.0, adapt = 0.0;
    double sum() const { return prep + count + gemm + dequant + adapt; }
};

/**
 * Feeds inputs through the stages ServedModel::forwardPreparedStep is
 * made of - prepareStepInput, aqsCountStatsBatch, forwardPrepared,
 * dequantizeOutput, adaptFeatures - timing each, and checks the final
 * output against the same input served by the engine.
 */
class StageReplay
{
  public:
    StageReplay(const CompiledModel &model, Tracer &tracer)
        : model_(*model.shared()), tracer_(tracer)
    {
        for (std::size_t l = 0; l < model_.layerCount(); ++l)
            caches_.push_back(buildWeightCountingCache(
                model_.layer(l).weights(), model_.options().v));
    }

    /** One pass over the stack; returns the final output. */
    MatrixF
    pass(const MatrixF &input, StageTimes &t)
    {
        const std::uint64_t req = tracer_.nextRequest();
        const auto t_root = Clock::now();
        const std::size_t v = static_cast<std::size_t>(model_.options().v);
        const std::size_t offsets[2] = {0, input.cols() / v};
        MatrixF x = input;
        std::vector<std::pair<std::string, std::pair<Clock::time_point,
                                                     Clock::time_point>>>
            marks;
        for (std::size_t l = 0; l < model_.layerCount(); ++l) {
            const AqsLinearLayer &layer = model_.layer(l);
            const auto a = Clock::now();
            const ActivationOperand op = model_.prepareStepInput(l, x);
            const auto b = Clock::now();
            const std::vector<AqsStats> stats = aqsCountStatsBatch(
                layer.weights(), op, layer.config(), caches_[l], offsets);
            const auto c = Clock::now();
            const MatrixI64 acc = layer.forwardPrepared(op, nullptr);
            const auto d = Clock::now();
            MatrixF y = layer.dequantizeOutput(acc);
            const auto e = Clock::now();
            if (l + 1 < model_.layerCount())
                y = serve::ServedModel::adaptFeatures(
                    std::move(y), model_.layer(l + 1).weights().sliced.cols());
            const auto f = Clock::now();
            x = std::move(y);
            t.prep += msBetween(a, b);
            t.count += msBetween(b, c);
            t.gemm += msBetween(c, d);
            t.dequant += msBetween(d, e);
            t.adapt += msBetween(e, f);
            if (stats.size() != 1)
                throw std::runtime_error("replay: one stats range expected");
            marks.push_back({"quant.prep", {a, b}});
            marks.push_back({"core.count", {b, c}});
            marks.push_back({"core.gemm", {c, d}});
            marks.push_back({"quant.dequant", {d, e}});
            marks.push_back({"serve.adapt", {e, f}});
        }
        const std::uint64_t root =
            tracer_.add("replay.cohort", req, 0, t_root, Clock::now());
        for (const auto &m : marks)
            tracer_.add(m.first, req, root, m.second.first, m.second.second);
        return x;
    }

    /** Median stage times of `reps` passes over `input`; `ok` is
     *  cleared when a pass differs from the engine's output. */
    StageTimes
    measure(const MatrixF &input, const MatrixF &expect, int reps, bool &ok)
    {
        std::vector<StageTimes> all;
        for (int r = 0; r < reps; ++r) {
            StageTimes t;
            const MatrixF y = pass(input, t);
            ok = ok && sameBytes(y, expect);
            all.push_back(t);
        }
        auto med = [&](double StageTimes::*field) {
            std::vector<double> xs;
            for (const StageTimes &t : all)
                xs.push_back(t.*field);
            return median(xs);
        };
        StageTimes m;
        m.prep = med(&StageTimes::prep);
        m.count = med(&StageTimes::count);
        m.gemm = med(&StageTimes::gemm);
        m.dequant = med(&StageTimes::dequant);
        m.adapt = med(&StageTimes::adapt);
        return m;
    }

  private:
    const serve::ServedModel &model_;
    Tracer &tracer_;
    std::vector<WeightCountingCache> caches_;
};

/** Median engine executeMs of `reps` solo runs of `input`. */
double
engineExecuteMs(Session &solo, const CompiledModel &model,
                const MatrixF &input, int reps, MatrixF *output)
{
    std::vector<double> xs;
    for (int r = 0; r < reps; ++r) {
        InferenceResult res = solo.infer(model, input);
        xs.push_back(res.executeMs);
        if (output)
            *output = std::move(res.output);
    }
    return median(xs);
}


/**
 * The replay half of a traced run: stage times at the workload's own
 * cohort widths (summed over those widths), the GEMM fit from 1- and
 * 64-group cohorts, and the stage sum's share of the engine's execute
 * time for cohorts of the same widths. `ok` is cleared on any output
 * that differs from the engine's.
 */
void
replayStages(const CompiledModel &model, Session &solo,
             const std::vector<MatrixF> &units,
             const std::vector<std::size_t> &widths, Tracer &tracer,
             Outcome &o, bool &ok)
{
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    StageReplay replay(model, tracer);
    std::vector<std::size_t> all = widths;
    all.push_back(1);
    all.push_back(64);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());

    const auto reps = [](std::size_t groups) { return groups >= 32 ? 5 : 15; };
    std::map<std::size_t, StageTimes> at;
    std::map<std::size_t, double> engine_ms;
    std::map<std::size_t, MatrixF> expect;
    for (std::size_t g : all) {
        const MatrixF x = tileGroups(units, g, v);
        engine_ms[g] = engineExecuteMs(solo, model, x, reps(g), &expect[g]);
        at[g] = replay.measure(x, expect[g], reps(g), ok);
    }
    // The default measured policy at the same widths (nothing else runs
    // a GEMM now; the policy is process-global). Outputs must not move.
    double measured_gemm = 0.0;
    setStreamPolicy(StreamPolicy::Measured);
    for (std::size_t g : widths)
        measured_gemm +=
            replay.measure(tileGroups(units, g, v), expect[g], reps(g), ok)
                .gemm;
    setStreamPolicy(kServePolicy);
    StageTimes sum;
    double engine = 0.0;
    for (std::size_t g : widths) {
        sum.prep += at[g].prep;
        sum.count += at[g].count;
        sum.gemm += at[g].gemm;
        sum.dequant += at[g].dequant;
        sum.adapt += at[g].adapt;
        engine += engine_ms[g];
    }
    o.add("quant.prep_ms", sum.prep, "ms");
    o.add("core.count_ms", sum.count, "ms");
    o.add("core.gemm_ms", sum.gemm, "ms");
    o.add("core.gemm_measured_over_static",
          sum.gemm > 0.0 ? measured_gemm / sum.gemm : 0.0, "ratio");
    o.add("quant.dequant_ms", sum.dequant, "ms");
    o.add("serve.adapt_ms", sum.adapt, "ms");
    o.add("trace.stage_share", engine > 0.0 ? sum.sum() / engine : 0.0,
          "ratio");
    // gemm_ms(groups) ~ fixed + slope * MACs: the intercept is the
    // per-call weight-side work, the slope the pair-pass cost per MAC.
    const double macs_per_group =
        static_cast<double>(model.macsPerColumn()) * static_cast<double>(v);
    const double slope = (at[64].gemm - at[1].gemm) / (63.0 * macs_per_group);
    o.add("core.gemm_fixed_ms", at[1].gemm - slope * macs_per_group, "ms");
    o.add("core.gemm_ps_per_mac", slope * 1e9, "ps/MAC");
    std::vector<std::string> w;
    for (std::size_t g : widths)
        w.push_back(std::to_string(g));
    o.info["replay_widths_groups"] = "[" + joined(w) + "]";
}

/** Aggregate AQS counters of the reference pass, per served column. */
void
addStatsMetrics(const CompiledModel &model, const AqsStats &stats,
                std::uint64_t columns, Outcome &o)
{
    o.add("core.macs_dense_per_col",
          static_cast<double>(model.macsPerColumn()), "count");
    o.add("core.mac_reduction", stats.macReduction(), "ratio");
    o.add("core.traffic_nibbles_per_col",
          columns ? static_cast<double>(stats.totalTrafficNibbles()) /
                        static_cast<double>(columns)
                  : 0.0,
          "count");
}

/** Median mmap load of the model saved once to a private directory. */
void
addLoadMetrics(const RunArgs &a, const CompiledModel &model, Outcome &o)
{
    const std::string dir = freshDir(a, "artifact");
    const std::string path = dir + "/model.pncm";
    saveCompiledModel(model, path);
    std::vector<double> ms;
    std::size_t mapped = 0;
    for (int i = 0; i < kFleetSetups; ++i) {
        const auto t0 = Clock::now();
        const CompiledModel loaded = loadCompiledModel(path);
        ms.push_back(msBetween(t0, Clock::now()));
        mapped = loaded.mappedBytes();
    }
    o.add("model_serialize.load_ms", median(ms), "ms");
    o.add("model_serialize.mapped_mb",
          static_cast<double>(mapped) / (1024.0 * 1024.0), "MiB");
    fs::remove_all(dir);
}

/** Takes Session::stats() at the window's two edges, off the clients'
 *  threads. */
class WindowSnapshots
{
  public:
    WindowSnapshots(const Session &s, Clock::time_point t0,
                    Clock::time_point t1)
        : thread_([this, &s, t0, t1] {
              std::this_thread::sleep_until(t0);
              first = s.stats();
              std::this_thread::sleep_until(t1);
              last = s.stats();
          })
    {}
    ~WindowSnapshots() { join(); }
    WindowSnapshots(const WindowSnapshots &) = delete;
    WindowSnapshots &operator=(const WindowSnapshots &) = delete;

    void
    join()
    {
        if (thread_.joinable())
            thread_.join();
    }

    SessionStats first, last;

  private:
    std::thread thread_;
};

/** Samples of one measured window of a workload. */
struct Pool
{
    double windowMs = 0.0; ///< measured time
    double columns = 0.0;  ///< columns served inside the window
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latency; ///< the end-to-end latency samples
    /** Per-layer samples by name (a percentile or mean is taken). */
    std::map<std::string, std::vector<double>> samples;
    /** Engine counter deltas over the window (Session workloads). */
    double requests = 0.0, batches = 0.0, gemmMs = 0.0, prepMs = 0.0;
    SessionStats lastStats;
    /** Fleet router counter deltas. */
    std::vector<double> dispatched;
    double rejected = 0.0, redispatched = 0.0;
    double lateMaxMs = 0.0;

    void
    addEngine(const SessionStats &s0, const SessionStats &s1)
    {
        requests += static_cast<double>(s1.requests - s0.requests);
        batches += static_cast<double>(s1.batches - s0.batches);
        gemmMs += s1.gemmMs - s0.gemmMs;
        prepMs += s1.prepMs - s0.prepMs;
        lastStats = s1;
        std::uint64_t spliced = 0, total = 0;
        for (std::size_t i = 0; i < s1.admittedAtLayer.size(); ++i) {
            const std::uint64_t before = i < s0.admittedAtLayer.size()
                                             ? s0.admittedAtLayer[i]
                                             : 0;
            total += s1.admittedAtLayer[i] - before;
            spliced += i > 0 ? s1.admittedAtLayer[i] - before : 0;
        }
        samples["engine.admitted"].push_back(static_cast<double>(total));
        samples["engine.spliced"].push_back(static_cast<double>(spliced));
    }

    std::vector<double> &operator[](const std::string &name)
    {
        return samples[name];
    }
};

/** The median of cohort sizes, as a whole number of at least 1. */
std::size_t
medianWidth(const std::vector<double> &sizes)
{
    return static_cast<std::size_t>(std::max(1.0, std::round(median(sizes))));
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s;
}

/** The end-to-end view of one window (run.py computes the reported
 *  metrics the same way over a run's pooled parts). */
Outcome
endToEnd(const Pool &p)
{
    Outcome o;
    o.add("tokens_per_s", p.columns / (p.windowMs / 1000.0), "col/s");
    o.add("latency_mean_ms", mean(p.latency), "ms");
    o.addQuantile("latency_p90_ms", quantile(p.latency, 0.9));
    return o;
}

/** Engine busy shares and cohort size over the window. */
void
addEngineBusy(const Pool &p, Outcome &o)
{
    o.add("serve.engine.cohort_mean",
          p.batches > 0 ? p.requests / p.batches : 0.0, "count");
    o.add("serve.engine.gemm_busy_share", p.gemmMs / p.windowMs, "ratio");
    o.add("serve.engine.prep_busy_share", p.prepMs / p.windowMs, "ratio");
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ------------------------------- decode ------------------------------

struct DecodeJob
{
    MatrixF prompt;
    std::uint64_t samplerSeed = 0;
    MatrixF refPrefill;
    MatrixF refOutput;
    MatrixF firstStep; ///< the sampler's first decode input
};

/** The seeded chat pool and its manual-loop references. */
std::vector<DecodeJob>
decodeJobs(const CompiledModel &model, Session &solo, std::uint64_t seed,
           AqsStats &stats, std::uint64_t &columns)
{
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    std::vector<DecodeJob> jobs(kDecodePool);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        DecodeJob &j = jobs[i];
        j.prompt = makeInput(model.inputFeatures(), kDecodePromptGroups * v,
                             mixSeed(seed, 100 + i));
        j.samplerSeed = mixSeed(seed, 200 + i);
        TokenSampler sampler(j.samplerSeed);
        InferenceResult pre = solo.infer(model, j.prompt);
        stats += pre.stats;
        columns += j.prompt.cols();
        j.refPrefill = std::move(pre.output);
        j.refOutput = MatrixF(model.outputFeatures(), kDecodeSteps * v);
        MatrixF prev = j.refPrefill;
        for (std::size_t step = 0; step < kDecodeSteps; ++step) {
            MatrixF x = sampler.next(prev, model.inputFeatures(), v);
            if (step == 0)
                j.firstStep = x;
            InferenceResult r = solo.infer(model, std::move(x));
            stats += r.stats;
            columns += v;
            for (std::size_t row = 0; row < r.output.rows(); ++row)
                std::copy_n(r.output.row(row).begin(), v,
                            j.refOutput.row(row).begin() +
                                static_cast<std::ptrdiff_t>(step * v));
            prev = std::move(r.output);
        }
    }
    return jobs;
}

/** Scheduling facts of one generation (outputs already checked). */
struct GenSample
{
    Clock::time_point start;
    double ttftMs = 0.0, prefillMs = 0.0;
    std::vector<float> gaps;
    std::vector<GenerationStepMeta> decodeMeta;
};

void
traceGeneration(Tracer &tracer, const GenSample &g, Clock::time_point end)
{
    if (!tracer.on())
        return;
    const std::uint64_t req = tracer.nextRequest();
    const std::uint64_t root =
        tracer.add("serve.generation.request", req, 0, g.start, end);
    tracer.add("serve.generation.prefill", req, root, g.start,
               plusMs(g.start, g.prefillMs));
    double c = g.ttftMs;
    for (std::size_t k = 0; k < g.decodeMeta.size(); ++k) {
        if (k > 0)
            c += g.gaps[k - 1];
        tracer.add("serve.generation.decode_step", req, root,
                   plusMs(g.start, c - g.decodeMeta[k].latencyMs),
                   plusMs(g.start, c));
    }
}

/** A closed-loop decode window of `seconds` after its warm-up, the
 *  clients running in rounds (runClosedLoop's lockstep). */
void
decodeWindow(Session &s, const CompiledModel &model,
              const std::vector<DecodeJob> &jobs, double seconds,
              Tracer &tracer, Pool &p)
{
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    const auto t0 = plusMs(Clock::now(), kWarmupMs);
    const auto t1 = plusMs(t0, seconds * 1000.0);
    WindowSnapshots snaps(s, t0, t1);
    std::mutex mutex;
    std::vector<GenSample> gens;
    const std::vector<OpRecord> records =
        runClosedLoop(kDecodeClients, t1, [&](std::size_t seq) {
            const DecodeJob &job = jobs[seq % jobs.size()];
            GenerationRequest req;
            req.prompt = job.prompt;
            req.maxSteps = kDecodeSteps;
            req.samplerSeed = job.samplerSeed;
            OpRecord rec;
            rec.start = Clock::now();
            GenerationResult r = s.generate(model, std::move(req)).get();
            rec.end = Clock::now();
            rec.ok = sameBytes(r.prefillOutput, job.refPrefill) &&
                     sameBytes(r.output, job.refOutput) &&
                     r.interTokenMs.size() + 1 == kDecodeSteps;
            rec.columns = kDecodeSteps * v;
            GenSample g;
            g.start = rec.start;
            g.ttftMs = r.ttftMs;
            g.prefillMs = r.prefillMs;
            g.gaps = std::move(r.interTokenMs);
            for (const GenerationStepMeta &m : r.stepMeta)
                if (m.phase == GenerationPhase::Decode)
                    g.decodeMeta.push_back(m);
            if (!rec.ok)
                return rec;
            traceGeneration(tracer, g, rec.end);
            std::lock_guard<std::mutex> lock(mutex);
            gens.push_back(std::move(g));
            return rec;
        },
        true);
    snaps.join();

    p.windowMs += seconds * 1000.0;
    p.attempted += records.size();
    for (const OpRecord &r : records)
        p.failed += r.ok ? 0 : 1;
    p.addEngine(snaps.first, snaps.last);
    for (const GenSample &g : gens) {
        if (g.start >= t0 && g.start < t1) {
            p["ttft"].push_back(g.ttftMs);
            p["prefill"].push_back(g.prefillMs);
        }
        // Step k completes ttft + gaps[0..k-1] after the start.
        double c = g.ttftMs;
        for (std::size_t k = 0; k < g.decodeMeta.size(); ++k) {
            if (k > 0)
                c += g.gaps[k - 1];
            const auto done = plusMs(g.start, c);
            if (done < t0 || done >= t1)
                continue;
            p.columns += static_cast<double>(v);
            p["step"].push_back(g.decodeMeta[k].latencyMs);
            p["cohort"].push_back(
                static_cast<double>(g.decodeMeta[k].batchSize));
            if (k > 0) {
                p.latency.push_back(g.gaps[k - 1]);
                p["pump_gap"].push_back(g.gaps[k - 1] -
                                        g.decodeMeta[k].latencyMs);
            }
        }
    }
}

/** Per-layer traffic metrics of decode windows. */
Outcome
decodeLayers(Pool &p, const Session &s)
{
    Outcome l;
    l.addQuantile("serve.generation.step_ms_p50", quantile(p["step"], 0.5));
    l.addQuantile("serve.generation.pump_gap_ms_p50",
                  quantile(p["pump_gap"], 0.5));
    l.add("serve.generation.decode_cohort_mean", mean(p["cohort"]), "count");
    l.addQuantile("serve.generation.prefill_ms_p50",
                  quantile(p["prefill"], 0.5));
    l.addQuantile("serve.generation.ttft_ms_p50", quantile(p["ttft"], 0.5));
    l.add("serve.generation.failed",
          static_cast<double>(s.generationStats().failed), "count");
    // Decode steps expose no queue/execute split; these are the
    // engine-wide medians SessionStats keeps.
    l.add("serve.engine.queue_wait_ms_p50", p.lastStats.p50QueueWaitMs, "ms");
    l.add("serve.engine.execute_ms_p50", p.lastStats.p50ExecuteMs, "ms");
    const double admitted = sum(p["engine.admitted"]);
    l.add("serve.engine.splice_share",
          admitted > 0 ? sum(p["engine.spliced"]) / admitted : 0.0, "ratio");
    addEngineBusy(p, l);
    return l;
}

// ------------------------------ prefill ------------------------------

struct PromptRef
{
    MatrixF input;
    MatrixF output;
};

/** Per-request engine facts of a Session or Fleet request. */
struct RequestSample
{
    Clock::time_point due;   ///< scheduled (open loop) or submit time
    Clock::time_point start; ///< actual submit
    Clock::time_point end;
    InferenceResult result; ///< output dropped once checked
};

void
traceRequest(Tracer &tracer, const RequestSample &r, const char *root_name)
{
    if (!tracer.on())
        return;
    const std::uint64_t req = tracer.nextRequest();
    const std::uint64_t root = tracer.add(root_name, req, 0, r.due, r.end);
    if (r.start > r.due)
        tracer.add("loadgen.late", req, root, r.due, r.start);
    const auto admitted = plusMs(r.end, -r.result.executeMs);
    tracer.add("serve.engine.queue_wait", req, root,
               plusMs(admitted, -r.result.queueWaitMs), admitted);
    tracer.add("serve.engine.execute", req, root, admitted, r.end);
}

/** Queue/execute split and splicing of one served request. */
void
addRequestSample(const RequestSample &r, Pool &p)
{
    p["queue_wait"].push_back(r.result.queueWaitMs);
    p["execute"].push_back(r.result.executeMs);
    p["cohort"].push_back(static_cast<double>(r.result.batchSize));
    p["spliced"].push_back(r.result.admittedAtLayer > 0 ? 1.0 : 0.0);
}

/** Engine metrics shared by the Session and Fleet request paths. */
Outcome
requestLayers(Pool &p)
{
    Outcome l;
    l.addQuantile("serve.engine.queue_wait_ms_p50",
                  quantile(p["queue_wait"], 0.5));
    l.addQuantile("serve.engine.queue_wait_ms_p90",
                  quantile(p["queue_wait"], 0.9));
    l.addQuantile("serve.engine.execute_ms_p50", quantile(p["execute"], 0.5));
    l.add("serve.engine.splice_share", mean(p["spliced"]), "ratio");
    return l;
}

/** A closed-loop prefill window of `seconds` after its warm-up. */
void
prefillWindow(Session &s, const CompiledModel &model,
               const std::vector<PromptRef> &prompts, double seconds,
               Tracer &tracer, Pool &p)
{
    const auto t0 = plusMs(Clock::now(), kWarmupMs);
    const auto t1 = plusMs(t0, seconds * 1000.0);
    WindowSnapshots snaps(s, t0, t1);
    std::mutex mutex;
    std::vector<RequestSample> samples;
    const std::vector<OpRecord> records =
        runClosedLoop(kPrefillClients, t1, [&](std::size_t seq) {
            const PromptRef &ref = prompts[seq % prompts.size()];
            RequestSample rs;
            rs.start = rs.due = Clock::now();
            rs.result = s.submit(model, ref.input).get();
            rs.end = Clock::now();
            OpRecord rec{rs.start, rs.end,
                         sameBytes(rs.result.output, ref.output),
                         ref.input.cols()};
            rs.result.output = MatrixF();
            if (!rec.ok)
                return rec;
            traceRequest(tracer, rs, "serve.request");
            std::lock_guard<std::mutex> lock(mutex);
            samples.push_back(std::move(rs));
            return rec;
        });
    snaps.join();

    p.windowMs += seconds * 1000.0;
    p.attempted += records.size();
    for (const OpRecord &r : records)
        p.failed += r.ok ? 0 : 1;
    p.columns += columnsPerSecond(records, t0, t1) * seconds;
    p.addEngine(snaps.first, snaps.last);
    for (const RequestSample &r : samples) {
        if (r.start < t0 || r.start >= t1)
            continue;
        p.latency.push_back(msBetween(r.start, r.end));
        addRequestSample(r, p);
    }
}

// ------------------------------- fleet -------------------------------

/** A deployed fleet and what keeps it alive; members are destroyed in
 *  reverse order, so the fleet goes before its Runtime. */
struct FleetServed
{
    std::unique_ptr<Runtime> rt;
    CompiledModel model;
    Fleet fleet;
};

FleetOptions
fleetOptions()
{
    FleetOptions fo;
    fo.replicas = kReplicas;
    fo.engine = sessionOptions();
    // Bounds far above the offered load: nothing may shed.
    fo.queueCapColumns = 16384;
    fo.engineDepthColumns = 1024;
    return fo;
}

/**
 * An open-loop fleet window: `plan` (due times from the window's
 * origin) replayed by this thread, which only sleeps and submits; the
 * window ends when every request has completed.
 */
void
fleetWindow(FleetServed &fs_, const std::vector<PromptRef> &shorts,
             const std::vector<PromptRef> &longs,
             const std::vector<Arrival> &plan, Tracer &tracer, Pool &p)
{
    const std::string name = fs_.model.spec().name;
    const FleetStats f0 = fs_.fleet.stats();
    // Inputs are copied before the clock starts.
    std::vector<MatrixF> inputs;
    for (const Arrival &a : plan)
        inputs.push_back(a.isLong ? longs[a.input].input
                                  : shorts[a.input].input);
    std::vector<std::future<FleetResult>> futures;
    std::vector<RequestSample> samples(plan.size());
    const auto origin = plusMs(Clock::now(), 20.0);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        samples[i].due = plusMs(origin, plan[i].atMs);
        std::this_thread::sleep_until(samples[i].due);
        samples[i].start = Clock::now();
        futures.push_back(fs_.fleet.submit(name, std::move(inputs[i])));
    }
    p.attempted += plan.size();
    Clock::time_point last = origin;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        FleetResult fr = futures[i].get();
        RequestSample &r = samples[i];
        const PromptRef &ref =
            plan[i].isLong ? longs[plan[i].input] : shorts[plan[i].input];
        p.lateMaxMs = std::max(p.lateMaxMs, msBetween(r.due, r.start));
        if (fr.outcome != FleetOutcome::Completed ||
            !sameBytes(fr.result.output, ref.output)) {
            ++p.failed;
            continue;
        }
        r.end = plusMs(r.start, fr.fleetLatencyMs);
        r.result = std::move(fr.result);
        r.result.output = MatrixF();
        traceRequest(tracer, r, "serve.fleet.request");
        const double from_due = msBetween(r.due, r.end);
        (plan[i].isLong ? p["long_latency"] : p.latency).push_back(from_due);
        p["router_wait"].push_back(from_due - r.result.latencyMs);
        addRequestSample(r, p);
        p.columns += static_cast<double>(ref.input.cols());
        last = std::max(last, r.end);
    }
    // Served columns from the origin to the last completion.
    p.windowMs += msBetween(origin, last);
    const FleetStats f1 = fs_.fleet.stats();
    p.dispatched.resize(f1.replicas.size(), 0.0);
    for (std::size_t i = 0; i < f1.replicas.size(); ++i)
        p.dispatched[i] += static_cast<double>(
            f1.replicas[i].dispatched -
            (i < f0.replicas.size() ? f0.replicas[i].dispatched : 0));
    p.rejected += static_cast<double>(f1.rejected - f0.rejected);
    p.redispatched += static_cast<double>(f1.redispatched - f0.redispatched);
}

Outcome
fleetLayers(Pool &p)
{
    Outcome l = requestLayers(p);
    l.add("serve.engine.cohort_mean", mean(p["cohort"]), "count");
    l.addQuantile("serve.fleet.router_wait_ms_p50",
                  quantile(p["router_wait"], 0.5));
    l.addQuantile("serve.fleet.long_latency_ms_p50",
                  quantile(p["long_latency"], 0.5));
    const double total = sum(p.dispatched);
    const double busiest =
        p.dispatched.empty()
            ? 0.0
            : *std::max_element(p.dispatched.begin(), p.dispatched.end());
    l.add("serve.fleet.dispatch_imbalance",
          total > 0 ? busiest * static_cast<double>(p.dispatched.size()) /
                              total -
                          1.0
                    : 0.0,
          "ratio");
    l.add("serve.fleet.rejected", p.rejected, "count");
    l.add("serve.fleet.redispatched", p.redispatched, "count");
    l.add("loadgen.late_ms_max", p.lateMaxMs, "ms");
    return l;
}

// ----------------------------- assembly ------------------------------

/** Every per-layer metric, in output order; a workload that does not
 *  exercise a layer reports 0 for it (listed under not_exercised). */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"kernel_cost_model.calibrate_ms", "ms"},
        {"kernel_cost_model.stream_gather_ratio", "ratio"},
        {"operand_cache.compile_ms", "ms"},
        {"model_serialize.load_ms", "ms"},
        {"model_serialize.mapped_mb", "MiB"},
        {"quant.prep_ms", "ms"},
        {"core.count_ms", "ms"},
        {"core.gemm_ms", "ms"},
        {"core.gemm_fixed_ms", "ms"},
        {"core.gemm_ps_per_mac", "ps/MAC"},
        {"core.gemm_measured_over_static", "ratio"},
        {"quant.dequant_ms", "ms"},
        {"serve.adapt_ms", "ms"},
        {"trace.stage_share", "ratio"},
        {"core.macs_dense_per_col", "count"},
        {"core.mac_reduction", "ratio"},
        {"core.traffic_nibbles_per_col", "count"},
        {"serve.engine.queue_wait_ms_p50", "ms"},
        {"serve.engine.queue_wait_ms_p90", "ms"},
        {"serve.engine.execute_ms_p50", "ms"},
        {"serve.engine.cohort_mean", "count"},
        {"serve.engine.splice_share", "ratio"},
        {"serve.engine.gemm_busy_share", "ratio"},
        {"serve.engine.prep_busy_share", "ratio"},
        {"serve.generation.step_ms_p50", "ms"},
        {"serve.generation.pump_gap_ms_p50", "ms"},
        {"serve.generation.decode_cohort_mean", "count"},
        {"serve.generation.prefill_ms_p50", "ms"},
        {"serve.generation.ttft_ms_p50", "ms"},
        {"serve.generation.failed", "count"},
        {"serve.fleet.router_wait_ms_p50", "ms"},
        {"serve.fleet.long_latency_ms_p50", "ms"},
        {"serve.fleet.dispatch_imbalance", "ratio"},
        {"serve.fleet.rejected", "count"},
        {"serve.fleet.redispatched", "count"},
        {"loadgen.late_ms_max", "ms"},
        {"trace.overhead_share", "ratio"},
        {"util.parallel_for.width", "count"},
    };
    return names;
}

/** Merge `from` into `into` (metrics, sample counts, support notes). */
void
merge(Outcome &into, const Outcome &from)
{
    into.metrics.insert(into.metrics.end(), from.metrics.begin(),
                        from.metrics.end());
    into.samples.insert(from.samples.begin(), from.samples.end());
    into.unsupported.insert(into.unsupported.end(), from.unsupported.begin(),
                            from.unsupported.end());
    for (const auto &kv : from.info)
        into.info[kv.first] = kv.second;
}

double
valueOf(const Outcome &o, const std::string &name)
{
    for (const Metric &m : o.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

/** Everything a workload run hands back to main(). */
struct WorkloadRun
{
    Pool plain;    ///< the untraced window (trace 0 reports it raw)
    Outcome layer; ///< traced window + replay + set-up layers (trace 1)
    std::vector<double> setupS; ///< this process's cold set-ups
    std::map<std::string, std::string> info; ///< configuration notes
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * The measured window, untraced; with tracing, the same traffic again,
 * traced, and the overhead share between the two. `layers` turns the
 * traced window into the workload's per-layer traffic metrics.
 */
void
runWindows(const RunArgs &a, const std::function<void(Tracer &, Pool &)> &window,
           const std::function<Outcome(Pool &)> &layers, Tracer &tracer,
           WorkloadRun &run, Pool &traced)
{
    Tracer off(false, Clock::now());
    window(off, run.plain);
    run.attempted += run.plain.attempted;
    run.failed += run.plain.failed;
    if (!a.trace)
        return;
    window(tracer, traced);
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    merge(run.layer, layers(traced));
    const double base = valueOf(endToEnd(run.plain), "latency_mean_ms");
    run.layer.add("trace.overhead_share",
                  base > 0.0
                      ? valueOf(endToEnd(traced), "latency_mean_ms") / base - 1.0
                      : 0.0,
                  "ratio");
}

void
addSetupLayers(const SetupTimes &t, Outcome &l)
{
    l.add("kernel_cost_model.calibrate_ms", median(t.calibrateMs), "ms");
    l.add("operand_cache.compile_ms", median(t.compileMs), "ms");
}

WorkloadRun
runDecode(const RunArgs &a, Tracer &tracer)
{
    WorkloadRun run;
    SetupTimes times;
    Served sv = coldCompile(a, kDecodeLayers, times, tracer);
    run.setupS = times.totalS;
    Session solo = soloSession(*sv.rt);
    AqsStats stats;
    std::uint64_t columns = 0;
    const std::vector<DecodeJob> jobs =
        decodeJobs(sv.model, solo, a.seed, stats, columns);
    Session s = sv.rt->createSession(decodeSessionOptions());
    Pool traced;
    runWindows(
        a,
        [&](Tracer &t, Pool &p) {
            decodeWindow(s, sv.model, jobs, a.seconds / a.parts, t, p);
        },
        [&](Pool &p) { return decodeLayers(p, s); }, tracer, run, traced);
    if (a.trace) {
        addSetupLayers(times, run.layer);
        addLoadMetrics(a, sv.model, run.layer);
        addStatsMetrics(sv.model, stats, columns, run.layer);
        std::vector<MatrixF> units;
        for (const DecodeJob &j : jobs)
            units.push_back(j.firstStep);
        const std::vector<std::size_t> widths = {medianWidth(traced["cohort"])};
        bool ok = true;
        replayStages(sv.model, solo, units, widths, tracer, run.layer, ok);
        run.failed += ok ? 0 : 1;
    }
    return run;
}

std::vector<PromptRef>
promptRefs(const CompiledModel &model, Session &solo, std::uint64_t seed,
           std::uint64_t salt, std::size_t count, std::size_t groups,
           AqsStats &stats, std::uint64_t &columns)
{
    const std::size_t v = static_cast<std::size_t>(model.options().v);
    std::vector<PromptRef> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i].input = makeInput(model.inputFeatures(), groups * v,
                                 mixSeed(seed, salt + i));
        InferenceResult r = solo.infer(model, out[i].input);
        stats += r.stats;
        columns += out[i].input.cols();
        out[i].output = std::move(r.output);
    }
    return out;
}

WorkloadRun
runPrefill(const RunArgs &a, Tracer &tracer)
{
    WorkloadRun run;
    SetupTimes times;
    Served sv = coldCompile(a, kPrefillLayers, times, tracer);
    run.setupS = times.totalS;
    Session solo = soloSession(*sv.rt);
    AqsStats stats;
    std::uint64_t columns = 0;
    const std::vector<PromptRef> prompts = promptRefs(
        sv.model, solo, a.seed, 300, kPrefillPool, kPrefillGroups, stats,
        columns);
    Session s = sv.rt->createSession(sessionOptions());
    Pool traced;
    runWindows(
        a,
        [&](Tracer &t, Pool &p) {
            prefillWindow(s, sv.model, prompts, a.seconds / a.parts, t, p);
        },
        [&](Pool &p) {
            Outcome l = requestLayers(p);
            addEngineBusy(p, l);
            return l;
        },
        tracer, run, traced);
    if (a.trace) {
        addSetupLayers(times, run.layer);
        addLoadMetrics(a, sv.model, run.layer);
        addStatsMetrics(sv.model, stats, columns, run.layer);
        std::vector<MatrixF> units;
        for (const PromptRef &p : prompts)
            units.push_back(p.input);
        const std::vector<std::size_t> widths = {
            kPrefillGroups * medianWidth(traced["cohort"])};
        bool ok = true;
        replayStages(sv.model, solo, units, widths, tracer, run.layer, ok);
        run.failed += ok ? 0 : 1;
    }
    return run;
}

WorkloadRun
runFleet(const RunArgs &a, Tracer &tracer)
{
    WorkloadRun run;
    // The artifact: calibrated and compiled untimed, saved as .pncm v2.
    const std::string dir = freshDir(a, "fleet");
    const std::string path = dir + "/deit.pncm";
    double calibrate_ms = 0.0, compile_ms = 0.0;
    {
        const auto t0 = Clock::now();
        detail::setKernelCostCacheDir(dir);
        detail::reloadKernelCosts();
        const auto t1 = Clock::now();
        Runtime rb;
        saveCompiledModel(rb.compile(deitBase()), path);
        calibrate_ms = msBetween(t0, t1);
        compile_ms = msBetween(t1, Clock::now());
    }
    // Timed set-up: mmap load into a fresh Runtime, createFleet, deploy.
    FleetServed fs_;
    std::vector<double> setup_s, load_ms;
    for (int i = 0; i < kFleetSetups; ++i) {
        fs_.fleet = Fleet(); // the fleet goes before its Runtime
        fs_.model = CompiledModel();
        fs_.rt.reset();
        const auto t0 = Clock::now();
        fs_.rt = std::make_unique<Runtime>();
        fs_.model = loadCompiledModel(path);
        const auto t1 = Clock::now();
        fs_.fleet = fs_.rt->createFleet(fleetOptions());
        fs_.fleet.deploy(fs_.model);
        const auto t2 = Clock::now();
        setup_s.push_back(msBetween(t0, t2) / 1000.0);
        load_ms.push_back(msBetween(t0, t1));
        const std::uint64_t req = tracer.nextRequest();
        const std::uint64_t root = tracer.add("setup", req, 0, t0, t2);
        tracer.add("model_serialize.load", req, root, t0, t1);
        tracer.add("serve.fleet.deploy", req, root, t1, t2);
    }
    run.setupS = setup_s;
    run.info["setups"] = std::to_string(kFleetSetups);

    Session solo = soloSession(*fs_.rt);
    AqsStats stats;
    std::uint64_t columns = 0;
    const std::vector<PromptRef> shorts =
        promptRefs(fs_.model, solo, a.seed, 400, kFleetShortPool,
                   kFleetShortGroups, stats, columns);
    const std::vector<PromptRef> longs =
        promptRefs(fs_.model, solo, a.seed, 500, kFleetLongPool,
                   kFleetLongGroups, stats, columns);
    // Warm the replicas (pages, lazy counting caches) before timing.
    for (const std::vector<PromptRef> *pool : {&shorts, &longs})
        for (const PromptRef &p : *pool) {
            const FleetResult fr =
                fs_.fleet.submit(fs_.model, p.input).get();
            ++run.attempted;
            if (fr.outcome != FleetOutcome::Completed ||
                !sameBytes(fr.result.output, p.output))
                ++run.failed;
        }
    // The whole run's schedule; this process replays its part of it.
    const std::size_t count = static_cast<std::size_t>(
        std::llround(kFleetRatePerS * a.seconds));
    const std::size_t long_count = static_cast<std::size_t>(
        std::llround(kFleetLongShare * static_cast<double>(count)));
    const double part_ms = a.seconds * 1000.0 / a.parts;
    std::vector<Arrival> plan;
    for (Arrival ar : poissonSchedule(a.seed, count, a.seconds * 1000.0,
                                      long_count, shorts.size(),
                                      longs.size())) {
        const int k =
            std::min(a.parts - 1, static_cast<int>(ar.atMs / part_ms));
        ar.atMs -= k * part_ms;
        if (k == a.part)
            plan.push_back(ar);
    }
    Pool traced;
    runWindows(
        a,
        [&](Tracer &t, Pool &p) { fleetWindow(fs_, shorts, longs, plan, t, p); },
        fleetLayers, tracer, run, traced);
    const double late = std::max(run.plain.lateMaxMs, traced.lateMaxMs);
    run.info["late_ms_max"] = number(late);
    run.info["late_limit_ms"] = number(kLateLimitMs);
    if (late > kLateLimitMs)
        std::cerr << "servebench: load generator ran " << late
                  << " ms late (limit " << kLateLimitMs
                  << " ms); fleet latencies are suspect\n";
    run.info["replicas"] = std::to_string(fs_.fleet.replicaCount());
    run.info["fleet_rate_per_s"] = number(kFleetRatePerS);
    run.info["fleet_long_share"] = number(kFleetLongShare);
    if (a.trace) {
        run.layer.add("kernel_cost_model.calibrate_ms", calibrate_ms, "ms");
        run.layer.add("operand_cache.compile_ms", compile_ms, "ms");
        run.layer.add("model_serialize.load_ms", median(load_ms), "ms");
        run.layer.add("model_serialize.mapped_mb",
                      static_cast<double>(fs_.model.mappedBytes()) /
                          (1024.0 * 1024.0),
                      "MiB");
        addStatsMetrics(fs_.model, stats, columns, run.layer);
        std::vector<MatrixF> units;
        for (const std::vector<PromptRef> *pool : {&shorts, &longs})
            for (const PromptRef &p : *pool)
                units.push_back(p.input);
        bool ok = true;
        replayStages(fs_.model, solo, units,
                     {kFleetShortGroups, kFleetLongGroups}, tracer, run.layer,
                     ok);
        run.failed += ok ? 0 : 1;
    }
    return run;
}

/**
 * An untraced part, raw: run.py pools the parts of a run and computes
 * the end-to-end metrics over the pooled samples.
 */
std::string
rawLine(const WorkloadRun &run)
{
    const auto list = [](const std::vector<double> &xs) {
        std::vector<std::string> parts;
        for (double x : xs)
            parts.push_back(number(x));
        return "[" + joined(parts) + "]";
    };
    return "{\"raw\": {\"setup_s\": " + list(run.setupS) +
           ", \"rss_mb\": " + number(peakRssMb()) +
           ", \"attempted\": " + std::to_string(run.attempted) +
           ", \"failed\": " + std::to_string(run.failed) +
           ", \"columns\": " + number(run.plain.columns) +
           ", \"window_ms\": " + number(run.plain.windowMs) +
           ", \"latency_ms\": " + list(run.plain.latency) + "}}";
}

// ----------------------------- self-test -----------------------------

int selfTestFailures = 0;

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++selfTestFailures;
    }
}

int
selfTest()
{
    // Percentile rule: p90 needs 100 samples (10 beyond rank 90), p50
    // needs 20.
    std::vector<double> xs;
    for (int i = 1; i <= 99; ++i)
        xs.push_back(i);
    check(!quantile(xs, 0.9).supported, "p90 of 99 samples unsupported");
    check(quantile(xs, 0.5).supported, "p50 of 99 samples supported");
    xs.push_back(100);
    const Quantile p90 = quantile(xs, 0.9);
    check(p90.supported && p90.value == 90.0 && p90.samples == 100,
          "p90 of 1..100 is 90 and supported");
    check(quantile({1, 2, 3}, 0.5).value == 2.0, "p50 of 1,2,3 is 2");
    std::vector<double> few(19, 1.0);
    check(!quantile(few, 0.5).supported, "p50 of 19 samples unsupported");
    few.push_back(1.0);
    check(quantile(few, 0.5).supported, "p50 of 20 samples supported");
    check(!quantile({}, 0.5).supported, "empty quantile unsupported");

    // Poisson schedule: a pure function of the seed.
    const auto a = poissonSchedule(7, 200, 10000.0, 20, 8, 4);
    const auto b = poissonSchedule(7, 200, 10000.0, 20, 8, 4);
    const auto c = poissonSchedule(8, 200, 10000.0, 20, 8, 4);
    bool same = a.size() == b.size(), differs = false, sorted = true,
         in_span = true;
    std::size_t longs = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].atMs == b[i].atMs && a[i].isLong == b[i].isLong &&
               a[i].input == b[i].input;
        differs = differs || a[i].atMs != c[i].atMs;
        sorted = sorted && (i == 0 || a[i - 1].atMs <= a[i].atMs);
        in_span = in_span && a[i].atMs >= 0.0 && a[i].atMs < 10000.0 &&
                  a[i].input < (a[i].isLong ? 4u : 8u);
        longs += a[i].isLong ? 1 : 0;
    }
    check(same, "same seed gives the same schedule");
    check(differs, "another seed gives other arrival times");
    check(sorted && in_span, "arrivals sorted inside the span");
    check(longs == 20 && a.size() == 200, "exact arrival and long counts");
    // 200 uniform arrivals leave only a few mean gaps at either end.
    check(std::abs(a.back().atMs - a.front().atMs - 10000.0) < 500.0,
          "arrivals cover the span");

    // Closed loop: every started op is recorded once, none starts after
    // the stop time, and failures (returned or thrown) are counted.
    const auto stop = plusMs(Clock::now(), 200.0);
    std::atomic<int> after_stop{0};
    const std::vector<OpRecord> recs =
        runClosedLoop(3, stop, [&](std::size_t seq) {
            OpRecord r;
            r.start = Clock::now();
            if (r.start >= stop)
                ++after_stop;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (seq == 3)
                throw std::runtime_error("injected by the self-test");
            r.end = Clock::now();
            r.ok = seq % 5 != 0;
            r.columns = 4;
            return r;
        });
    std::size_t failed = 0, ok_cols = 0;
    for (const OpRecord &r : recs) {
        failed += r.ok ? 0 : 1;
        ok_cols += r.ok ? r.columns : 0;
    }
    std::size_t want_failed = 0;
    for (std::size_t seq = 0; seq < recs.size(); ++seq)
        want_failed += (seq == 3 || seq % 5 == 0) ? 1 : 0;
    check(after_stop.load() == 0, "no op starts after the stop time");
    check(recs.size() >= 3 && failed == want_failed,
          "attempted = records, failures = failed returns + throws");
    const auto t_first = recs.front().start;
    const double rate =
        columnsPerSecond(recs, t_first, plusMs(Clock::now(), 1.0));
    check(rate > 0.0 && rate * msBetween(t_first, Clock::now()) / 1000.0 <=
                            static_cast<double>(ok_cols) + 1e-6,
          "rate counts only served columns");

    // Lockstep: whole rounds only, and no op of a round starts before
    // every op of the round before it has ended.
    const auto lock_stop = plusMs(Clock::now(), 100.0);
    const std::vector<OpRecord> rounds = runClosedLoop(
        3, lock_stop,
        [&](std::size_t seq) {
            OpRecord r;
            r.start = Clock::now();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 + 3 * (seq % 3)));
            r.end = Clock::now();
            r.ok = true;
            return r;
        },
        true);
    std::vector<OpRecord> by_start = rounds;
    std::sort(by_start.begin(), by_start.end(),
              [](const OpRecord &x, const OpRecord &y) {
                  return x.start < y.start;
              });
    bool in_rounds = by_start.size() >= 3 && by_start.size() % 3 == 0;
    for (std::size_t i = 3; in_rounds && i < by_start.size(); ++i)
        for (std::size_t j = i - i % 3 - 3; j < i - i % 3; ++j)
            in_rounds = in_rounds && by_start[j].end <= by_start[i].start;
    check(in_rounds, "lockstep clients run in whole rounds");

    // Output schema: exactly the four keys, values with full digits.
    const std::string line =
        resultLine(true, 3, 0, {{"latency_ms", 1.0 / 3.0, "ms"}});
    check(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                     "\"metrics\": {\"latency_ms\": {\"value\": ",
                     0) == 0,
          "result line key order");
    const std::size_t at = line.find("\"value\": ") + 9;
    check(std::strtod(line.c_str() + at, nullptr) == 1.0 / 3.0,
          "values round-trip exactly");
    check(number(std::nan("")) == "0", "non-finite values print as 0");
    std::cout << (selfTestFailures ? "selftest: FAILED" : "selftest: ok")
              << "\n";
    return selfTestFailures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest")
            return selfTest();
        if (!has_value) {
            std::cerr << "servebench: " << arg << " needs a value\n";
            return 2;
        }
        const std::string val = argv[++i];
        if (arg == "--workload")
            a.workload = val;
        else if (arg == "--seed")
            a.seed = std::stoull(val);
        else if (arg == "--seconds")
            a.seconds = std::stod(val);
        else if (arg == "--part")
            a.part = std::stoi(val);
        else if (arg == "--parts")
            a.parts = std::stoi(val);
        else if (arg == "--trace")
            a.trace = val == "1";
        else if (arg == "--out")
            a.out = val;
        else if (arg == "--commit")
            a.commit = val;
        else {
            std::cerr << "servebench: unknown option " << arg << "\n";
            return 2;
        }
    }
    if (a.workload != "decode" && a.workload != "prefill" &&
        a.workload != "fleet") {
        std::cerr << "servebench: --workload must be decode, prefill or "
                     "fleet\n";
        return 2;
    }
    if (!(a.seconds > 0.0) || a.parts < 1 || a.part < 0 ||
        a.part >= a.parts) {
        std::cerr << "servebench: need --seconds > 0 and 0 <= --part < "
                     "--parts\n";
        return 2;
    }
    fs::create_directories(a.out);
    setParallelThreads(kPoolWidth);
    setStreamPolicy(kServePolicy);
    Tracer tracer(a.trace, Clock::now());

    WorkloadRun run = a.workload == "decode"    ? runDecode(a, tracer)
                      : a.workload == "prefill" ? runPrefill(a, tracer)
                                                : runFleet(a, tracer);
    for (const auto &entry : fs::directory_iterator(a.out))
        if (entry.is_directory() &&
            entry.path().filename().string().ends_with(
                "-" + std::to_string(::getpid())))
            fs::remove_all(entry.path());

    std::vector<Metric> metrics;
    std::vector<std::string> not_exercised;
    if (a.trace) {
        run.layer.add("kernel_cost_model.stream_gather_ratio",
                      streamGatherRatio(), "ratio");
        run.layer.add("util.parallel_for.width", parallelThreads(), "count");
        for (const auto &[name, unit] : perLayerMetrics()) {
            bool found = false;
            for (const Metric &m : run.layer.metrics)
                if (m.name == name) {
                    metrics.push_back({name, m.value, unit});
                    found = true;
                    break;
                }
            if (!found) {
                metrics.push_back({name, 0.0, unit});
                not_exercised.push_back(name);
            }
        }
        const std::string spans = a.out + "/spans-" + a.workload + "-" +
                                  std::to_string(a.seed) + ".json";
        if (!tracer.write(spans))
            std::cerr << "servebench: cannot write " << spans << "\n";
        run.info["spans_file"] = jsonString(spans);
    }

    // The configuration line: host, settings, calibration, sample counts.
    const Outcome &shown = run.layer;
    std::string info = "{\"servebench\": {\"workload\": " + jsonString(a.workload) +
                       ", \"seed\": " + std::to_string(a.seed) +
                       ", \"seconds\": " + number(a.seconds) +
                       ", \"trace\": " + (a.trace ? "1" : "0") +
                       ", \"commit\": " + jsonString(a.commit) +
                       ", \"isa\": " + jsonString(toString(activeIsaLevel())) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"cpu_max\": " + jsonString(cpuQuota()) +
                       ", \"pool_width\": " + std::to_string(parallelThreads()) +
                       ", \"engine_workers\": " +
                       std::to_string(kEngineWorkers) +
                       ", \"stream_policy\": " +
                       jsonString(toString(activeStreamPolicy())) +
                       ", \"calibration\": " + calibrationJson();
    for (const auto *notes : {&run.info, &run.layer.info})
        for (const auto &kv : *notes)
            info += ", " + jsonString(kv.first) + ": " + kv.second;
    std::vector<std::string> samples, unsupported, skipped;
    for (const auto &kv : shown.samples)
        samples.push_back(jsonString(kv.first) + ": " +
                          std::to_string(kv.second));
    for (const std::string &n : shown.unsupported)
        unsupported.push_back(jsonString(n));
    for (const std::string &n : not_exercised)
        skipped.push_back(jsonString(n));
    info += ", \"samples\": {" + joined(samples) + "}, \"unsupported\": [" +
            joined(unsupported) + "], \"not_exercised\": [" +
            joined(skipped) + "]}}";
    std::cout << info << "\n";
    for (const std::string &n : shown.unsupported)
        std::cerr << "servebench: " << n
                  << " has fewer than 10 samples beyond it\n";

    const bool correct = run.failed == 0;
    if (a.trace)
        std::cout << resultLine(correct, run.attempted, run.failed, metrics)
                  << std::endl;
    else
        std::cout << rawLine(run) << std::endl;
    return correct ? 0 : 1;
}
