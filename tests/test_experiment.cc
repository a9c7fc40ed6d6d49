/**
 * @file
 * Unit tests for the population runners and the TRR experiment.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "hammer/experiment.h"
#include "mitigation/countermeasures.h"
#include "obs/metrics.h"

namespace {

using namespace pud;
using namespace pud::hammer;

PopulationConfig
tinyPopulation()
{
    PopulationConfig cfg;
    cfg.moduleId = "HMA81GU7AFR8N-UH";
    cfg.modules = 1;
    cfg.victimsPerSubarray = 4;
    cfg.rowsPerSubarray = 128;
    return cfg;
}

TEST(Population, SeriesAlignedAcrossMeasures)
{
    ModuleTester::Options opt;
    const auto series = measurePopulation(
        tinyPopulation(),
        {[&](ModuleTester &t, dram::RowId v) {
             return t.rhDouble(v, opt);
         },
         [&](ModuleTester &t, dram::RowId v) {
             return t.comraDouble(v, opt);
         }});
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].size(), series[1].size());
    EXPECT_GT(series[0].size(), 10u);
}

TEST(Population, ModulesMultiplyVictims)
{
    PopulationConfig one = tinyPopulation();
    PopulationConfig two = tinyPopulation();
    two.modules = 2;
    ModuleTester::Options opt;
    const MeasureFn fn = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };
    const auto s1 = measurePopulation(one, {fn});
    const auto s2 = measurePopulation(two, {fn});
    EXPECT_EQ(s2[0].size(), 2 * s1[0].size());
}

/**
 * Empty-module audit: instances with zero victims still get one
 * (empty) shard each, in module order, so telemetry covers the whole
 * population and shard order stays aligned with slot order.
 */
TEST(Population, ZeroVictimModulesYieldEmptyAlignedShards)
{
    PopulationConfig cfg = tinyPopulation();
    cfg.modules = 3;
    cfg.victimsPerSubarray = 0;
    ModuleTester::Options opt;
    PopulationTelemetry tele;
    const auto series = measurePopulation(
        cfg,
        {[&](ModuleTester &t, dram::RowId v) {
            return t.rhDouble(v, opt);
        }},
        &tele);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_TRUE(series[0].empty());
    ASSERT_EQ(tele.shards.size(), 3u);
    for (std::size_t i = 0; i < tele.shards.size(); ++i) {
        EXPECT_EQ(tele.shards[i].module, static_cast<int>(i));
        EXPECT_EQ(tele.shards[i].victims, 0u);
        EXPECT_EQ(tele.shards[i].firstSlot, 0u);
    }
}

/**
 * A victim chunk larger than the module's victim list degenerates to
 * one whole-module chunk, which starts from a pristine tester exactly
 * like the module-granularity path -- so the two must agree sample for
 * sample, not just statistically.
 */
TEST(Population, OversizedChunkMatchesModuleGranularity)
{
    PopulationConfig plain = tinyPopulation();
    plain.modules = 2;
    PopulationConfig chunked = plain;
    chunked.perVictimChunks = true;
    chunked.victimChunk = 100000;

    ModuleTester::Options opt;
    const MeasureFn fn = [&](ModuleTester &t, dram::RowId v) {
        return t.rhDouble(v, opt);
    };
    const auto a = measurePopulation(plain, {fn});
    const auto b = measurePopulation(chunked, {fn});
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a[0].size(), b[0].size());
    for (std::size_t i = 0; i < a[0].size(); ++i) {
        if (std::isnan(a[0][i]))
            EXPECT_TRUE(std::isnan(b[0][i])) << "slot " << i;
        else
            EXPECT_DOUBLE_EQ(a[0][i], b[0][i]) << "slot " << i;
    }
}

TEST(DropIncomplete, RemovesNanPairsKeepingAlignment)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::vector<double>> in{{1, nan, 3, 4},
                                              {10, 20, nan, 40}};
    const auto out = dropIncomplete(in);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<double>{1, 4}));
    EXPECT_EQ(out[1], (std::vector<double>{10, 40}));
}

TEST(DropIncomplete, RaggedInputPanics)
{
    EXPECT_DEATH(dropIncomplete({{1.0}, {1.0, 2.0}}), "ragged");
}

class TrrExperimentTest : public ::testing::Test
{
  protected:
    static dram::DeviceConfig
    config(std::uint64_t seed = 21)
    {
        dram::DeviceConfig cfg =
            dram::makeConfig("HMA81GU7AFR8N-UH", seed);
        cfg.banks = 1;
        cfg.subarraysPerBank = 4;
        cfg.rowsPerSubarray = 128;
        cfg.cols = 256;
        return cfg;
    }

    static TrrConfig
    trrConfig()
    {
        TrrConfig cfg;
        cfg.simraN = 16;  // spaced group: victims invisible to TRR
        cfg.hammersPerAggressor = 150000;
        return cfg;
    }
};

TEST_F(TrrExperimentTest, RowHammerFlipsWithoutTrr)
{
    ModuleTester t(config());
    const auto flips = runTrrExperiment(t, TrrTechnique::RowHammer,
                                        trrConfig(), false);
    EXPECT_GT(flips, 0u);
}

TEST_F(TrrExperimentTest, TrrSuppressesRowHammer)
{
    ModuleTester without(config());
    const auto flips_without = runTrrExperiment(
        without, TrrTechnique::RowHammer, trrConfig(), false);
    ModuleTester with(config());
    const auto flips_with = runTrrExperiment(
        with, TrrTechnique::RowHammer, trrConfig(), true);
    ASSERT_GT(flips_without, 0u);
    // Obs. 25/26: TRR reduces RowHammer bitflips greatly (99.89%).
    EXPECT_LT(static_cast<double>(flips_with),
              0.2 * static_cast<double>(flips_without));
}

TEST_F(TrrExperimentTest, SimraBypassesTrr)
{
    ModuleTester without(config());
    const auto flips_without = runTrrExperiment(
        without, TrrTechnique::Simra, trrConfig(), false);
    ModuleTester with(config());
    const auto flips_with = runTrrExperiment(
        with, TrrTechnique::Simra, trrConfig(), true);
    ASSERT_GT(flips_without, 0u);
    // Obs. 26: only ~15% average reduction with TRR.
    EXPECT_GT(static_cast<double>(flips_with),
              0.5 * static_cast<double>(flips_without));
}

TEST_F(TrrExperimentTest, SimraBeatsRowHammerUnderTrr)
{
    ModuleTester rh(config());
    const auto rh_flips = runTrrExperiment(
        rh, TrrTechnique::RowHammer, trrConfig(), true);
    ModuleTester si(config());
    const auto si_flips = runTrrExperiment(
        si, TrrTechnique::Simra, trrConfig(), true);
    // Obs. 25: SiMRA induces orders of magnitude more bitflips than
    // RowHammer in the presence of TRR.
    EXPECT_GT(si_flips, 50 * std::max<std::uint64_t>(1, rh_flips));
}

TEST_F(TrrExperimentTest, ComraFlipsUnderTrrExperiment)
{
    ModuleTester t(config());
    const auto flips = runTrrExperiment(t, TrrTechnique::Comra,
                                        trrConfig(), false);
    EXPECT_GT(flips, 0u);
}

/**
 * Regression: runTrrExperiment used to enable TRR *before* the U-TRR
 * profiling sweep, so (a) profiling measured the mechanism instead of
 * the chip's intrinsic vulnerability and (b) thousands of profiling
 * ACTs were still sitting in the sampler ring when the measured
 * pattern started, soaking up its first TRR decisions.  With a
 * deliberately tiny measured pattern (far fewer ACTs than the
 * 450-entry sampler window) the sampler must end well below full;
 * the old ordering left it saturated by the profiling sweep.
 */
TEST_F(TrrExperimentTest, ProfilingActsDoNotLeakIntoMeasuredSampler)
{
    ModuleTester t(config());
    TrrConfig cfg;
    cfg.nSided = 2;
    cfg.actsPerTrefi = 30;
    cfg.hammersPerAggressor = 15;  // one paced tREFI cycle
    runTrrExperiment(t, TrrTechnique::RowHammer, cfg, true);
    const std::size_t fill = t.device().trrSamplerFill(0);
    EXPECT_GT(fill, 0u);    // the measured pattern itself was sampled
    EXPECT_LT(fill, 450u);  // profiling ACTs were cleared first
}

TEST_F(TrrExperimentTest, TrrDisabledAfterRun)
{
    ModuleTester t(config());
    runTrrExperiment(t, TrrTechnique::RowHammer, trrConfig(), true);
    EXPECT_FALSE(t.device().trrEnabled());
}

/** Value of one obs counter (0 if it was never interned). */
std::uint64_t
counterValue(const char *name)
{
    for (const auto &c : obs::metrics().snapshot().counters)
        if (c.name == name)
            return c.value;
    return 0;
}

/**
 * A hooked loop that never becomes steady -- a REF-free hammer, which
 * close-by-close reuse does not take -- burns its two recording
 * strikes and finishes naively; --metrics must count that.  fig24's
 * REF-bearing hooked loop replays close by close instead, and a
 * REF-free hammer without a hook fast-paths: neither may count.
 */
TEST_F(TrrExperimentTest, StrikeFallbacksCountHookedRunsOnly)
{
    obs::metrics().reset();
    obs::metrics().setEnabled(true);

    ModuleTester t(config());
    const dram::DeviceConfig &dc = t.device().config();
    mitigation::PracMitigation prac(mitigation::PracConfig{}, dc.banks,
                                    dc.rowsPerBank(), dc.rowsPerSubarray);
    t.device().setMitigation(&prac);
    t.rhDouble(200, ModuleTester::Options{});
    t.device().setMitigation(nullptr);
    EXPECT_GT(counterValue("executor.strike_fallbacks"), 0u);

    obs::metrics().reset();
    ModuleTester fig24(config());
    mitigation::PracMitigation prac24(mitigation::PracConfig{}, dc.banks,
                                      dc.rowsPerBank(),
                                      dc.rowsPerSubarray);
    TrrConfig cfg = trrConfig();
    cfg.hammersPerAggressor = 20000;
    const std::uint64_t before =
        fig24.bench().executor().stats().fastPathIterations;
    runTrrExperiment(fig24, TrrTechnique::RowHammer, cfg, false, &prac24);
    EXPECT_GT(fig24.bench().executor().stats().fastPathIterations,
              before);
    EXPECT_EQ(counterValue("executor.strike_fallbacks"), 0u);

    obs::metrics().reset();
    ModuleTester fast(config());
    fast.rhDouble(200, ModuleTester::Options{});
    EXPECT_GT(counterValue("executor.fastpath_iterations"), 0u);
    EXPECT_EQ(counterValue("executor.strike_fallbacks"), 0u);

    obs::metrics().setEnabled(false);
    obs::metrics().reset();
}

} // namespace
