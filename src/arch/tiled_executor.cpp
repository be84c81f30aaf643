#include "arch/tiled_executor.h"

#include <algorithm>
#include <vector>

#include "arch/compensator.h"
#include "arch/memory_manager.h"
#include "arch/s_acc.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace panacea {

namespace {

/**
 * Process one PEA band (v rows starting at band*v) against one n-tile
 * column range over the full K reduction, exactly as the PEA's DWOs,
 * SWOs and CS would.
 */
void
processBand(const WeightOperand &w, const ActivationOperand &x,
            std::size_t band, std::size_t ng_begin, std::size_t ng_end,
            int v, ActSkipMode skip_mode,
            std::span<const std::int64_t> b_prime, MatrixI64 &acc,
            TiledExecutionStats &st)
{
    const std::size_t kk = w.sliced.cols();
    const std::size_t w_levels = w.sliced.levels();
    const std::size_t x_levels = x.sliced.levels();
    const bool w_skippable = w_levels >= 2;
    const bool r_skip = skip_mode == ActSkipMode::RValued;
    const bool x_skippable = skip_mode != ActSkipMode::None;
    const int x_ho_shift = x.sliced.hoPlane().shift;

    for (std::size_t ng = ng_begin; ng < ng_end; ++ng) {
        // One compensator per output block, fed by the weight columns
        // loaded for the uncompressed activation vectors.
        Compensator cs(v, x_ho_shift);

        for (std::size_t k = 0; k < kk; ++k) {
            const bool w_comp =
                w_skippable && w.hoMask(band, k) != 0;
            const bool x_comp = x_skippable && x.hoMask(k, ng) != 0;

            if (r_skip && !x_comp) {
                for (const SlicePlane &plane : w.sliced.planes) {
                    Slice column[16];
                    panic_if(v > 16, "band height exceeds CS width");
                    for (int i = 0; i < v; ++i)
                        column[i] = plane.data(band * v +
                                               static_cast<std::size_t>(i),
                                               k);
                    cs.absorbColumn(
                        std::span<const Slice>(column,
                                               static_cast<std::size_t>(v)),
                        plane.shift);
                }
            }

            for (std::size_t wl = 0; wl < w_levels; ++wl) {
                const bool w_is_ho =
                    w_levels >= 2 && wl == w_levels - 1;
                if (w_is_ho && w_comp)
                    continue;
                const SlicePlane &wp = w.sliced.planes[wl];
                for (std::size_t xl = 0; xl < x_levels; ++xl) {
                    const bool x_is_ho = xl == x_levels - 1;
                    if (x_is_ho && x_comp)
                        continue;
                    const SlicePlane &xp = x.sliced.planes[xl];
                    const int shift = sAccShift(wp.shift, xp.shift);
                    ++st.outerProducts;
                    for (int i = 0; i < v; ++i) {
                        const std::int64_t ws =
                            wp.data(band * v + static_cast<std::size_t>(i),
                                    k);
                        for (int j = 0; j < v; ++j) {
                            const std::int64_t xs = xp.data(
                                k,
                                ng * v + static_cast<std::size_t>(j));
                            acc(band * v + static_cast<std::size_t>(i),
                                ng * v + static_cast<std::size_t>(j)) +=
                                (ws * xs) << shift;
                        }
                    }
                }
            }
        }

        if (r_skip) {
            std::vector<std::int64_t> band_b_prime(
                b_prime.begin() + static_cast<std::ptrdiff_t>(band * v),
                b_prime.begin() +
                    static_cast<std::ptrdiff_t>((band + 1) * v));
            std::vector<std::int64_t> comp =
                cs.finish(band_b_prime, x.r);
            ++st.compensations;
            for (int i = 0; i < v; ++i)
                for (int j = 0; j < v; ++j)
                    acc(band * v + static_cast<std::size_t>(i),
                        ng * v + static_cast<std::size_t>(j)) += comp[i];
        }
        ++st.bandsProcessed;
    }
}

} // namespace

MatrixI64
executeTiled(const WeightOperand &w, const ActivationOperand &x,
             const PanaceaConfig &cfg, TiledExecutionStats *stats)
{
    cfg.validate();
    const std::size_t m = w.sliced.rows();
    const std::size_t kk = w.sliced.cols();
    const std::size_t n = x.sliced.cols();
    panic_if(x.sliced.rows() != kk, "tiled executor shape mismatch");
    const int v = cfg.v;
    panic_if(m % v != 0 || n % v != 0,
             "M and N must be divisible by v");

    TiledExecutionStats st;
    const bool r_skip = cfg.actSkip == ActSkipMode::RValued;

    // Offline b' = r * 2^shift * row sums of the total weight codes.
    std::vector<std::int64_t> b_prime(m, 0);
    if (r_skip) {
        const int x_ho_shift = x.sliced.hoPlane().shift;
        for (std::size_t row = 0; row < m; ++row)
            b_prime[row] = w.rowSums[row] * (static_cast<std::int64_t>(x.r)
                                             << x_ho_shift);
    }

    // Tile traversal of Fig. 12: m-supers (DTP pairs), n-tiles, bands.
    GemmWorkload wl;
    wl.m = m;
    wl.k = kk;
    wl.n = n;
    wl.wLevels = static_cast<int>(w.sliced.levels());
    wl.xLevels = static_cast<int>(x.sliced.levels());
    wl.weightHoSkippable = w.sliced.levels() >= 2;
    wl.wMask = w.hoMask;
    wl.xMask = x.hoMask;
    TrafficPlan plan = MemoryManager(cfg).plan(wl);
    st.dtpUsed = plan.dtpEnabled;

    const std::size_t bands_per_tile =
        static_cast<std::size_t>(cfg.tileM / v);
    const std::size_t total_bands = m / static_cast<std::size_t>(v);
    const std::size_t m_tiles =
        (total_bands + bands_per_tile - 1) / bands_per_tile;
    const std::size_t groups_per_ntile =
        static_cast<std::size_t>(cfg.tileN / v);
    const std::size_t n_groups = n / static_cast<std::size_t>(v);
    const std::size_t n_tiles =
        (n_groups + groups_per_ntile - 1) / groups_per_ntile;
    const std::size_t tile_stride = plan.dtpEnabled ? 2 : 1;

    MatrixI64 acc(m, n);
    std::vector<std::size_t> bands;
    bands.reserve(tile_stride * bands_per_tile);
    std::vector<TiledExecutionStats> partial;
    for (std::size_t t0 = 0; t0 < m_tiles; t0 += tile_stride) {
        const std::size_t tiles_now =
            std::min<std::size_t>(tile_stride, m_tiles - t0);
        for (std::size_t nt = 0; nt < n_tiles; ++nt) {
            const std::size_t g0 = nt * groups_per_ntile;
            const std::size_t g1 =
                std::min(n_groups, g0 + groups_per_ntile);
            bands.clear();
            for (std::size_t dt = 0; dt < tiles_now; ++dt) {
                for (std::size_t p = 0; p < bands_per_tile; ++p) {
                    const std::size_t band =
                        (t0 + dt) * bands_per_tile + p;
                    if (band < total_bands)
                        bands.push_back(band);
                }
            }
            // The PEAs of one tile pass run concurrently: bands own
            // disjoint accumulator rows, and the per-band counters are
            // exact integer sums, so the result and the statistics are
            // bit-identical for any thread count.
            const int chunks = parallelChunkCount(bands.size());
            partial.assign(static_cast<std::size_t>(chunks),
                           TiledExecutionStats{});
            parallelFor(0, bands.size(),
                        [&](std::size_t b, std::size_t e, int c) {
                            for (std::size_t idx = b; idx < e; ++idx)
                                processBand(w, x, bands[idx], g0, g1, v,
                                            cfg.actSkip, b_prime, acc,
                                            partial[static_cast<
                                                std::size_t>(c)]);
                        });
            for (const TiledExecutionStats &part : partial) {
                st.bandsProcessed += part.bandsProcessed;
                st.outerProducts += part.outerProducts;
                st.compensations += part.compensations;
            }
            ++st.tilesVisited;
        }
    }

    if (stats)
        *stats = st;
    return acc;
}

} // namespace panacea
