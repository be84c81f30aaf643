/**
 * @file
 * Compiled-model serialization tests: the on-disk format must be a
 * faithful, versioned, integrity-checked image of the prepared state.
 *
 *  - round trip: save -> load -> save reproduces IDENTICAL bytes, and
 *    the loaded model produces byte-identical outputs and AqsStats to
 *    the freshly built one at every runnable ISA level;
 *  - rejection: wrong magic, unknown (or retired v1/v2) format
 *    version, checksum mismatch, a wrongly sized section, truncation
 *    at any boundary, trailing bytes and fingerprint mismatches all
 *    throw SerializeError - a load never returns a half-built model;
 *  - disk tier: a cold PreparedModelCache pointed at a directory a
 *    warm cache populated serves the model with ZERO builds
 *    (CacheStats::misses == 0, diskHits == 1) and bit-equal behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "isa_guard.h"
#include "panacea/compiled_model.h"
#include "panacea/runtime.h"
#include "panacea/serialize.h"
#include "serve/model_serialize.h"
#include "serve/operand_cache.h"
#include "util/cpu_features.h"
#include "util/fnv.h"
#include "util/random.h"

namespace panacea {
namespace {

/** Three layers over distinct distributions + a feature-width bend. */
ModelSpec
tinySpec()
{
    ModelSpec spec;
    spec.name = "serialize-test-tiny";
    spec.seqLen = 16;
    LayerSpec l0;
    l0.name = "L0.FC1";
    l0.m = 24;
    l0.kDim = 16;
    l0.dist = ActDistKind::LayerNormGauss;
    LayerSpec l1;
    l1.name = "L1.FC2";
    l1.m = 16;
    l1.kDim = 24;
    l1.dist = ActDistKind::PostGelu;
    LayerSpec l2;
    l2.name = "L2.PROJ";
    l2.m = 20;
    l2.kDim = 12;
    l2.dist = ActDistKind::PostAttention;
    spec.layers = {l0, l1, l2};
    return spec;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("panacea_serialize_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
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
    static int &
    counter()
    {
        static int c = 0;
        return c;
    }
};

void
expectStatsEqual(const AqsStats &a, const AqsStats &b)
{
    EXPECT_EQ(a.denseOuterProducts, b.denseOuterProducts);
    EXPECT_EQ(a.executedOuterProducts, b.executedOuterProducts);
    EXPECT_EQ(a.skippedOuterProducts, b.skippedOuterProducts);
    EXPECT_EQ(a.mults, b.mults);
    EXPECT_EQ(a.adds, b.adds);
    EXPECT_EQ(a.compMults, b.compMults);
    EXPECT_EQ(a.compAdds, b.compAdds);
    EXPECT_EQ(a.compExtraEmaNibbles, b.compExtraEmaNibbles);
    EXPECT_EQ(a.wNibbles, b.wNibbles);
    EXPECT_EQ(a.xNibbles, b.xNibbles);
    EXPECT_EQ(a.wIndexBits, b.wIndexBits);
    EXPECT_EQ(a.xIndexBits, b.xIndexBits);
    EXPECT_EQ(a.denseNibbles, b.denseNibbles);
    EXPECT_DOUBLE_EQ(a.macsPerOuterProduct, b.macsPerOuterProduct);
}

std::uint32_t
fieldU32(const std::string &bytes, std::size_t off)
{
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
}

std::uint64_t
fieldU64(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
}

/** One deterministic request through a model's stack. */
serve::ServedModel::BatchResult
runOnce(const serve::ServedModel &model)
{
    Rng rng(0xf00d);
    MatrixF x(model.inputFeatures(), 8);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian(0.2, 1.0));
    const std::size_t offsets[] = {0, 2};
    return model.runPrepared(model.prepareInput(x), offsets);
}

TEST(ModelSerialize, RoundTripIsByteIdenticalAndBitExactAcrossIsa)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel fresh = compileModel(spec, opts);

    const std::string path_a = dir.file("a.pncm");
    saveCompiledModel(fresh, path_a);
    const CompiledModel loaded = loadCompiledModel(path_a);

    // save -> load -> save: identical bytes.
    const std::string path_b = dir.file("b.pncm");
    saveCompiledModel(loaded, path_b);
    const std::string bytes_a = readFile(path_a);
    const std::string bytes_b = readFile(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);

    // Identity of everything observable.
    EXPECT_EQ(loaded.key(), fresh.key());
    EXPECT_EQ(loaded.layerCount(), fresh.layerCount());
    EXPECT_EQ(loaded.inputFeatures(), fresh.inputFeatures());
    EXPECT_EQ(loaded.outputFeatures(), fresh.outputFeatures());
    EXPECT_EQ(loaded.macsPerColumn(), fresh.macsPerColumn());
    EXPECT_DOUBLE_EQ(loaded.buildMs(), fresh.buildMs());

    // The loaded model is behaviourally byte-identical at every ISA
    // level - outputs AND statistics.
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        const auto ref = runOnce(*fresh.shared());
        const auto got = runOnce(*loaded.shared());
        EXPECT_TRUE(got.output == ref.output)
            << "outputs diverge at isa=" << toString(isa);
        ASSERT_EQ(got.perRequest.size(), ref.perRequest.size());
        for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
            expectStatsEqual(got.perRequest[i], ref.perRequest[i]);
    }
}

TEST(ModelSerialize, FingerprintMismatchIsRejected)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);

    // The right (spec, opts) loads...
    EXPECT_NO_THROW(loadCompiledModelFor(path, spec, opts));

    // ...anything that changes the prepared bytes does not.
    CompileOptions other_opts = opts;
    other_opts.seed += 1;
    EXPECT_THROW(loadCompiledModelFor(path, spec, other_opts),
                 SerializeError);
    ModelSpec other_spec = spec;
    other_spec.layers[0].kDim += 4;
    EXPECT_THROW(loadCompiledModelFor(path, other_spec, opts),
                 SerializeError);

    // A tampered stored key no longer matches the body fingerprint.
    std::string bytes = readFile(path);
    const std::size_t key_payload = 8 + 8; // magic+version, key length
    ASSERT_GT(bytes.size(), key_payload + 1);
    bytes[key_payload] ^= 0x01; // first key character
    const std::string tampered = dir.file("tampered.pncm");
    writeFile(tampered, bytes);
    EXPECT_THROW(loadCompiledModel(tampered), SerializeError);
}

TEST(ModelSerialize, VersionMagicChecksumAndTruncationAreRejected)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    opts.maxLayers = 1; // small file: truncation sweep stays cheap
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);
    ASSERT_GT(good.size(), 32u);

    const auto expectRejected = [&](std::string bytes,
                                    const char *what) {
        const std::string p = dir.file("bad.pncm");
        writeFile(p, bytes);
        EXPECT_THROW(loadCompiledModel(p), SerializeError) << what;
    };

    // Magic.
    {
        std::string bad = good;
        bad[0] = 'X';
        expectRejected(bad, "magic");
    }
    // Unknown format version.
    {
        std::string bad = good;
        bad[4] = static_cast<char>(bad[4] + 1);
        expectRejected(bad, "version");
    }
    // Payload corruption -> checksum mismatch.
    {
        std::string bad = good;
        bad[good.size() / 2] ^= 0x40;
        expectRejected(bad, "checksum");
    }
    // Checksum corruption itself.
    {
        std::string bad = good;
        bad[good.size() - 1] ^= 0x01;
        expectRejected(bad, "trailer");
    }
    // Truncation at every kind of boundary: inside the envelope,
    // inside the payload, and just shy of the full file.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{8},
          std::size_t{15}, good.size() / 3, good.size() / 2,
          good.size() - 9, good.size() - 1}) {
        expectRejected(good.substr(0, cut), "truncation");
    }
    // Trailing garbage after a valid image.
    expectRejected(good + std::string(4, '\0'), "trailing bytes");

    // Missing file.
    EXPECT_THROW(loadCompiledModel(dir.file("absent.pncm")),
                 SerializeError);

    // The original still loads after all that.
    EXPECT_NO_THROW(loadCompiledModel(path));
}

TEST(ModelSerialize, DiskTierServesColdStartWithZeroBuilds)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;

    // Warm process: builds once, writes through to disk.
    serve::PreparedModelCache warm;
    warm.setDiskDir(dir.path.string());
    auto built = warm.acquire(spec, opts);
    EXPECT_EQ(warm.stats().misses, 1u);
    EXPECT_EQ(warm.stats().diskHits, 0u);
    const std::string file =
        (dir.path / serve::compiledModelFileName(built->key())).string();
    EXPECT_TRUE(std::filesystem::exists(file));

    // Cold process (fresh cache object): the file is found, decoded,
    // and NOTHING is built - the zero-preparation cold start.
    serve::PreparedModelCache cold;
    cold.setDiskDir(dir.path.string());
    auto loaded = cold.acquire(spec, opts);
    const auto cstats = cold.stats();
    EXPECT_EQ(cstats.misses, 0u) << "cold start rebuilt the model";
    EXPECT_EQ(cstats.diskHits, 1u);
    EXPECT_EQ(cstats.hits, 0u);
    EXPECT_GT(cstats.buildMsSaved, 0.0);
    EXPECT_GE(cstats.loadMsTotal, 0.0);

    // Same behaviour, bit for bit.
    const auto ref = runOnce(*built);
    const auto got = runOnce(*loaded);
    EXPECT_TRUE(got.output == ref.output);
    for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
        expectStatsEqual(got.perRequest[i], ref.perRequest[i]);

    // Second acquire in the cold cache: memory hit, no extra disk I/O.
    cold.acquire(spec, opts);
    EXPECT_EQ(cold.stats().hits, 1u);
    EXPECT_EQ(cold.stats().diskHits, 1u);

    // A corrupt file degrades to a rebuild, never a failure.
    std::string bytes = readFile(file);
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(file, bytes);
    serve::PreparedModelCache recover;
    recover.setDiskDir(dir.path.string());
    auto rebuilt = recover.acquire(spec, opts);
    EXPECT_EQ(recover.stats().misses, 1u);
    EXPECT_EQ(recover.stats().diskHits, 0u);
    EXPECT_TRUE(runOnce(*rebuilt).output == ref.output);
}

TEST(ModelSerialize, SectionDirectoryIsAlignedAndCoversFile)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 32u);

    // Envelope: magic, current version, declared size == actual size.
    EXPECT_EQ(bytes.substr(0, 4), "PNCM");
    EXPECT_EQ(fieldU32(bytes, 4), kCompiledModelFormatVersion);
    EXPECT_EQ(fieldU64(bytes, 8), bytes.size());

    // Directory: 1 META section + 7 bulk sections per layer, offsets
    // 64-byte aligned, ascending, non-overlapping, in bounds, and the
    // last section ends exactly at the declared file size (no slack a
    // mapped reader could silently run past).
    const std::uint64_t sections = fieldU64(bytes, 24);
    EXPECT_EQ(sections, 1u + 7u * model.layerCount());
    const std::size_t dir_end = 32 + sections * 16;
    ASSERT_LT(dir_end, bytes.size());
    std::uint64_t prev_end = dir_end;
    for (std::uint64_t s = 0; s < sections; ++s) {
        const std::uint64_t off = fieldU64(bytes, 32 + s * 16);
        const std::uint64_t size = fieldU64(bytes, 32 + s * 16 + 8);
        EXPECT_EQ(off % 64, 0u) << "section " << s << " misaligned";
        EXPECT_GE(off, prev_end) << "section " << s << " overlaps";
        EXPECT_LE(off + size, bytes.size()) << "section " << s;
        // Alignment gaps are zero-filled - the bytes are a pure
        // function of the prepared state, nothing leaks in.
        for (std::uint64_t p = prev_end; p < off; ++p)
            ASSERT_EQ(bytes[p], '\0') << "gap byte " << p;
        prev_end = off + size;
    }
    EXPECT_EQ(prev_end, bytes.size()) << "last section must end at EOF";
}

TEST(ModelSerialize, MappedAndCopyingLoadsAreBitExactAcrossIsa)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    const CompiledModel fresh = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(fresh, path);

    // allow_mmap=true serves the weights from the mapping; the
    // copying decode of the SAME file owns everything.
    const CompiledModel mapped = loadCompiledModel(path, true);
    const CompiledModel copied = loadCompiledModel(path, false);
    EXPECT_GT(mapped.mappedBytes(), 0u);
    EXPECT_EQ(mapped.mappedBytes(), std::filesystem::file_size(path));
    EXPECT_EQ(copied.mappedBytes(), 0u);

    // PANACEA_MMAP=0 is the operational kill switch: it wins over the
    // caller and forces the copying decode.
    ::setenv("PANACEA_MMAP", "0", 1);
    const CompiledModel killed = loadCompiledModel(path, true);
    ::unsetenv("PANACEA_MMAP");
    EXPECT_EQ(killed.mappedBytes(), 0u);

    // All three serve bit-identically to the fresh build at every
    // runnable ISA level - outputs AND statistics.
    IsaGuard isa_guard;
    for (IsaLevel isa : runnableIsaLevels()) {
        setIsaLevel(isa);
        const auto ref = runOnce(*fresh.shared());
        for (const CompiledModel *m : {&mapped, &copied, &killed}) {
            const auto got = runOnce(*m->shared());
            EXPECT_TRUE(got.output == ref.output)
                << "outputs diverge at isa=" << toString(isa);
            ASSERT_EQ(got.perRequest.size(), ref.perRequest.size());
            for (std::size_t i = 0; i < ref.perRequest.size(); ++i)
                expectStatsEqual(got.perRequest[i], ref.perRequest[i]);
        }
    }
}

TEST(ModelSerialize, WrongSizedPanelSectionIsRejected)
{
    TempDir dir;
    const ModelSpec spec = tinySpec();
    CompileOptions opts;
    opts.maxLayers = 1;
    const CompiledModel model = compileModel(spec, opts);
    const std::string path = dir.file("m.pncm");
    saveCompiledModel(model, path);
    const std::string good = readFile(path);

    // Layer 0's kernel panel is section 2 (after META and the slice
    // planes). Shrink its directory size by one int16 and re-seal the
    // checksum, so only the size check can catch it.
    const std::size_t size_field = 32 + 2 * 16 + 8;
    std::string bad = good;
    const std::uint64_t panel_bytes = fieldU64(bad, size_field);
    ASSERT_GT(panel_bytes, 2u);
    const std::uint64_t shrunk = panel_bytes - 2;
    std::memcpy(bad.data() + size_field, &shrunk, sizeof(shrunk));
    const std::uint64_t sum =
        fnv1a64Striped(bad.data() + 24, bad.size() - 24);
    std::memcpy(bad.data() + 16, &sum, sizeof(sum));
    const std::string bad_path = dir.file("bad.pncm");
    writeFile(bad_path, bad);
    EXPECT_THROW(loadCompiledModel(bad_path, true), SerializeError);
    EXPECT_THROW(loadCompiledModel(bad_path, false), SerializeError);
    EXPECT_NO_THROW(loadCompiledModel(path));
}

TEST(ModelSerialize, RetiredVersionsAreRejectedSweptAndRebuilt)
{
    // v1 (the copying format) and v2 (total codes instead of the
    // kernel panel) are both retired.
    for (const std::uint32_t retired : {1u, 2u}) {
        SCOPED_TRACE("retired version " + std::to_string(retired));
        TempDir dir;
        const ModelSpec spec = tinySpec();
        CompileOptions opts;
        opts.maxLayers = 1;
        const CompiledModel fresh = compileModel(spec, opts);

        // A hand-made envelope: magic, the retired u32 version, then
        // payload bytes. Only the envelope matters; no decoder for a
        // retired version exists.
        std::string old("PNCM");
        old.append(reinterpret_cast<const char *>(&retired),
                   sizeof(retired));
        old.append(64, '\x5a');

        // Both load paths fail the envelope check with a typed error.
        const std::string old_path = dir.file("old.pncm");
        writeFile(old_path, old);
        EXPECT_EQ(peekCompiledModelVersion(old_path), retired);
        EXPECT_THROW(loadCompiledModel(old_path, true), SerializeError);
        EXPECT_THROW(loadCompiledModel(old_path, false), SerializeError);

        // The sweep counts the retired file (and a future version) as
        // stale, a bad envelope as corrupt, keeps the current file and
        // ignores non-.pncm files.
        saveCompiledModel(fresh, dir.file("current.pncm"));
        std::string future = readFile(dir.file("current.pncm"));
        future[4] = static_cast<char>(future[4] + 55);
        writeFile(dir.file("future.pncm"), future);
        writeFile(dir.file("garbage.pncm"), "not a compiled model");
        writeFile(dir.file("notes.txt"), "ignored: wrong extension");
        const serve::CacheDirReport report =
            serve::sweepCompiledModelDir(dir.path.string());
        EXPECT_EQ(report.scanned, 4u);
        EXPECT_EQ(report.staleVersion, 2u);
        EXPECT_EQ(report.corrupt, 1u);
        EXPECT_EQ(report.evicted, 0u);
        EXPECT_FALSE(std::filesystem::exists(old_path));
        EXPECT_FALSE(std::filesystem::exists(dir.file("future.pncm")));
        EXPECT_FALSE(std::filesystem::exists(dir.file("garbage.pncm")));
        EXPECT_TRUE(std::filesystem::exists(dir.file("current.pncm")));
        EXPECT_TRUE(std::filesystem::exists(dir.file("notes.txt")));
        EXPECT_NO_THROW(loadCompiledModel(dir.file("current.pncm")));

        // A Runtime whose disk tier holds the retired file under the
        // model's key treats it as a miss: it rebuilds, writes a
        // current-version file back, and serves outputs equal to a
        // fresh build.
        TempDir cache;
        const std::string keyed =
            cache.file(serve::compiledModelFileName(fresh.key()));
        writeFile(keyed, old);
        RuntimeOptions ropts;
        ropts.cacheDir = cache.path.string();
        Runtime rt(ropts);
        const CompiledModel rebuilt = rt.compile(spec, opts);
        EXPECT_EQ(rt.cacheStats().misses, 1u);
        EXPECT_EQ(rt.cacheStats().diskHits, 0u);
        EXPECT_EQ(peekCompiledModelVersion(keyed),
                  kCompiledModelFormatVersion);
        EXPECT_TRUE(runOnce(*rebuilt.shared()).output ==
                    runOnce(*fresh.shared()).output);
    }
}

} // namespace
} // namespace panacea
