/**
 * @file
 * Unit tests for the bender program builder and executor, including
 * the exactness of the loop fast-path against naive execution.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzz.h"
#include "hammer/patterns.h"
#include "mitigation/countermeasures.h"

namespace {

using namespace pud;
using namespace pud::bender;
using namespace pud::dram;

DeviceConfig
smallConfig(std::uint64_t seed = 1)
{
    DeviceConfig cfg = makeConfig("HMA81GU7AFR8N-UH", seed);
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    return cfg;
}

TEST(Program, BuilderTracksLoopBalance)
{
    Program p;
    EXPECT_TRUE(p.balanced());
    p.loopBegin(10);
    EXPECT_FALSE(p.balanced());
    p.act(0, 1, 100).pre(0, 100);
    p.loopEnd();
    EXPECT_TRUE(p.balanced());
}

TEST(Program, LoopEndWithoutBeginIsFatal)
{
    Program p;
    EXPECT_DEATH(p.loopEnd(), "loopEnd without loopBegin");
}

TEST(Program, WrWithDanglingDataIndexIsFatal)
{
    Program p;
    // Empty data table: every index is out of range.
    EXPECT_DEATH(p.wr(0, 0, 100), "outside the data table");
    EXPECT_DEATH(p.wr(0, -1, 100), "outside the data table");
    p.addData(dram::RowData(8));
    p.wr(0, 0, 100);  // now in range
    EXPECT_DEATH(p.wr(0, 1, 100), "outside the data table");
}

TEST(Program, WrUncheckedBypassesTheBuildTimeCheck)
{
    // The escape hatch exists so tests and demo programs can build
    // intentionally-broken instructions for lint to catch.
    Program p;
    p.wrUnchecked(0, 7, 100);
    ASSERT_EQ(p.insts().size(), 1u);
    EXPECT_EQ(p.insts()[0].dataIndex, 7);
}

TEST(Program, WithLoopCountCopiesWithoutMutating)
{
    Program p;
    p.loopBegin(1).act(0, 1, 10).pre(0, 20).loopEnd();
    EXPECT_EQ(p.loopCount(), 1u);
    const Program q = p.withLoopCount(0, 500);
    EXPECT_EQ(p.insts()[0].count, 1u);
    EXPECT_EQ(q.insts()[0].count, 500u);
    EXPECT_EQ(q.insts().size(), p.insts().size());
}

TEST(Program, SetLoopCountPatchesTheRightLoop)
{
    Program p;
    p.loopBegin(1).act(0, 1, 10).loopEnd();
    p.loopBegin(2).act(0, 2, 10).loopEnd();
    p.setLoopCount(1, 99);
    int seen = 0;
    for (const auto &inst : p.insts()) {
        if (inst.op == Op::LoopBegin) {
            EXPECT_EQ(inst.count, ++seen == 1 ? 1u : 99u);
        }
    }
    EXPECT_DEATH(p.setLoopCount(5, 1), "no loop");
}

TEST(Executor, UnbalancedProgramIsFatal)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(3).act(0, 1, 100);
    EXPECT_DEATH(ex.run(p), "unbalanced");
}

TEST(Executor, CollectsReads)
{
    TestBench bench(smallConfig());
    const RowData d(256, DataPattern::PAA);
    bench.writeRow(0, 5, d);
    Program p;
    p.act(0, 5, units::fromNs(15)).rd(0, units::fromNs(15))
        .pre(0, units::fromNs(36));
    const auto result = bench.run(p);
    ASSERT_EQ(result.reads.size(), 1u);
    EXPECT_EQ(result.reads[0], d);
}

TEST(Executor, TimeAdvancesByGapSum)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.act(0, 1, units::fromNs(100)).pre(0, units::fromNs(50));
    const auto r = ex.run(p);
    EXPECT_EQ(r.endTime - r.startTime, units::fromNs(150));
}

TEST(Executor, LoopTimeScalesWithTripCount)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(1000)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    const auto r = ex.run(p);
    EXPECT_EQ(r.endTime - r.startTime, 1000 * units::fromNs(51));
    EXPECT_GT(r.fastPathIterations, 0u);
}

TEST(Executor, FastPathReplaysRefLoops)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(20).ref(units::fromNs(7800)).loopEnd();
    const auto r = ex.run(p);
    // 2 warm-ups + 1 recorded iteration run live; the remaining 17
    // replay arithmetically -- with the refresh counter still
    // advancing exactly as if each REF had issued.
    EXPECT_EQ(r.fastPathIterations, 17u);
    EXPECT_EQ(dev.counters().refs, 20u);
}

TEST(Executor, FastPathEngagesExactlyAtThreshold)
{
    const std::uint64_t trips[] = {1, 2, 3, 7, 8, 9};
    for (std::uint64_t n : trips) {
        Device dev(smallConfig());
        Executor ex(dev);
        Program p;
        p.loopBegin(n)
            .act(0, 1, units::fromNs(15))
            .pre(0, units::fromNs(36))
            .loopEnd();
        const auto r = ex.run(p);
        if (n >= Executor::kFastPathThreshold)
            EXPECT_EQ(r.fastPathIterations, n - 3) << "n=" << n;
        else
            EXPECT_EQ(r.fastPathIterations, 0u) << "n=" << n;
        // Trip-count-exact command counters and duration either way.
        EXPECT_EQ(dev.counters().acts, n) << "n=" << n;
        EXPECT_EQ(dev.counters().pres, n) << "n=" << n;
        EXPECT_EQ(r.endTime - r.startTime, n * units::fromNs(51))
            << "n=" << n;
    }
}

TEST(Executor, PlanCacheSharedAcrossTripCounts)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program base;
    base.loopBegin(1)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    const std::uint64_t probes[] = {10, 100, 1000, 50, 17};
    for (std::uint64_t n : probes)
        ex.run(base.withLoopCount(0, n));
    // All five probes share one shape: one compile, four cache hits.
    EXPECT_EQ(ex.stats().planCacheMisses, 1u);
    EXPECT_EQ(ex.stats().planCacheHits, 4u);

    Program other;
    other.loopBegin(10)
        .act(0, 2, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    ex.run(other);
    EXPECT_EQ(ex.stats().planCacheMisses, 2u);
}

TEST(Executor, NestedLoopsExecute)
{
    Device dev(smallConfig());
    Executor ex(dev);
    Program p;
    p.loopBegin(3);
    p.loopBegin(4)
        .act(0, 1, units::fromNs(15))
        .pre(0, units::fromNs(36))
        .loopEnd();
    p.loopEnd();
    ex.run(p);
    EXPECT_EQ(dev.counters().acts, 12u);
}

/**
 * The critical property: fast-path execution must produce the same
 * victim bitflips as naive execution for every pattern class.
 */
class FastPathEquivalence : public ::testing::TestWithParam<int>
{};

TEST_P(FastPathEquivalence, MatchesNaiveExecution)
{
    const int pattern_kind = GetParam();
    constexpr std::uint64_t kHammers = 4000;

    auto run = [&](bool fast) {
        TestBench bench(smallConfig(7));
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();

        const RowId victim = 33;
        const RowData aggr(256, DataPattern::P55);
        const RowData vict(256, DataPattern::PAA);
        for (RowId r = 28; r <= 38; ++r)
            bench.writeRow(0, dev.toLogical(r),
                           r == victim ? vict : aggr);

        hammer::PatternTimings t;
        Program p;
        switch (pattern_kind) {
          case 0:
            p = hammer::doubleSidedRowHammer(
                0, dev.toLogical(32), dev.toLogical(34), kHammers, t);
            break;
          case 1:
            p = hammer::singleSidedRowHammer(0, dev.toLogical(32),
                                             kHammers, t);
            break;
          case 2:
            p = hammer::comraHammer(0, dev.toLogical(32),
                                    dev.toLogical(34), kHammers, t);
            break;
          case 3:
            p = hammer::simraHammer(0, dev.toLogical(32),
                                    dev.toLogical(38), kHammers, t);
            break;
          default:
            t.tAggOn = units::fromNs(7800);
            p = hammer::doubleSidedRowHammer(
                0, dev.toLogical(32), dev.toLogical(34), kHammers, t);
        }
        bench.run(p);

        // Compare the damage of every cell in the neighbourhood.
        std::vector<float> damage;
        for (RowId r = 28; r <= 38; ++r)
            for (const auto &cell :
                 dev.weakCells(0, dev.toLogical(r)))
                damage.push_back(cell.totalDamage());
        return damage;
    };

    const auto fast = run(true);
    const auto naive = run(false);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], naive[i],
                    1e-4f + 0.002f * std::abs(naive[i]))
            << "cell " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Patterns, FastPathEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

/** Everything observable after a REF-interleaved hammering run. */
struct RunState
{
    std::uint64_t flips = 0;
    std::size_t samplerFill = 0;
    DeviceCounters counters;
    Time duration = 0;
    RowData victimData;
    std::vector<float> damage;
};

/**
 * Run a REF-interleaved double-sided pattern, then probe the TRR
 * sampler ring: enable TRR and fire one REF, whose victim refresh
 * draws from the ring the pattern left behind.  Identical ring
 * contents, position, and RNG state are the only way the probe can
 * behave identically across executor modes.
 */
RunState
runRefInterleaved(bool fast, bool trr, std::uint64_t hammers,
                  const DeviceConfig &cfg)
{
    TestBench bench(cfg);
    bench.executor().setFastPath(fast);
    dram::Device &dev = bench.device();
    dev.setTrrEnabled(trr);

    const RowId victim = 33;
    const RowData aggr(cfg.cols, DataPattern::P55);
    const RowData vict(cfg.cols, DataPattern::PAA);
    for (RowId r = 30; r <= 36; ++r)
        bench.writeRow(0, dev.toLogical(r), r == victim ? vict : aggr);

    hammer::PatternTimings t;
    t.base = cfg.timings;
    const Program p = hammer::withRefInterleave(
        hammer::doubleSidedRowHammer(0, dev.toLogical(32),
                                     dev.toLogical(34), hammers, t),
        t.base);
    const auto result = bench.run(p);

    dev.setTrrEnabled(true);
    Program probe;
    probe.ref(units::fromNs(500));
    bench.run(probe);

    RunState s;
    s.flips = bench.countBitflips(0, dev.toLogical(victim), vict);
    s.samplerFill = dev.trrSamplerFill(0);
    s.counters = dev.counters();
    s.duration = result.endTime - result.startTime;
    s.victimData = dev.readRowDirect(0, dev.toLogical(victim));
    for (RowId r = 30; r <= 36; ++r)
        for (const auto &cell : dev.weakCells(0, dev.toLogical(r)))
            s.damage.push_back(cell.totalDamage());
    return s;
}

void
expectSameRun(const RunState &fast, const RunState &naive)
{
    EXPECT_EQ(fast.flips, naive.flips);
    EXPECT_EQ(fast.samplerFill, naive.samplerFill);
    EXPECT_EQ(fast.duration, naive.duration);
    EXPECT_TRUE(fast.victimData == naive.victimData);
    EXPECT_EQ(fast.counters.acts, naive.counters.acts);
    EXPECT_EQ(fast.counters.pres, naive.counters.pres);
    EXPECT_EQ(fast.counters.refs, naive.counters.refs);
    EXPECT_EQ(fast.counters.trrRefreshes, naive.counters.trrRefreshes);
    ASSERT_EQ(fast.damage.size(), naive.damage.size());
    for (std::size_t i = 0; i < fast.damage.size(); ++i) {
        EXPECT_NEAR(fast.damage[i], naive.damage[i],
                    1e-4f + 0.002f * std::abs(naive.damage[i]))
            << "cell " << i;
    }
}

/** {TRR enabled during the pattern, hammer count}. */
class RefFastPathEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(RefFastPathEquivalence, MatchesNaiveExecution)
{
    const bool trr = std::get<0>(GetParam());
    const std::uint64_t hammers = std::get<1>(GetParam());
    const DeviceConfig cfg = smallConfig(11);
    expectSameRun(runRefInterleaved(true, trr, hammers, cfg),
                  runRefInterleaved(false, trr, hammers, cfg));
}

// Hammer counts chosen to cover a partially-filled sampler ring (100
// iterations push 200 ACTs < the 450-entry window) and a saturated,
// wrapped one; each with the pattern running TRR-off (pure replay)
// and TRR-on (replay phase-breaks on TRR victim refreshes and the
// executor falls back to live execution).
INSTANTIATE_TEST_SUITE_P(
    TrrAndScale, RefFastPathEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(100u, 4000u)));

TEST(Executor, RefStripePhaseBreakMatchesNaive)
{
    // A dense stripe-refresh cadence (16 rows per REF) sweeps the
    // refresh pointer across the hammered neighbourhood many times per
    // run, forcing replay phase breaks and re-records.
    DeviceConfig cfg = smallConfig(13);
    cfg.timings.refsPerWindow = 8;
    expectSameRun(runRefInterleaved(true, false, 2000, cfg),
                  runRefInterleaved(false, false, 2000, cfg));
}

TEST(Executor, NestedLoopFastPathMatchesNaive)
{
    auto run = [&](bool fast) {
        TestBench bench(smallConfig(17));
        bench.executor().setFastPath(fast);
        dram::Device &dev = bench.device();

        const RowId victim = 33;
        const RowData aggr(256, DataPattern::P55);
        const RowData vict(256, DataPattern::PAA);
        for (RowId r = 30; r <= 38; ++r)
            bench.writeRow(0, dev.toLogical(r),
                           r == victim ? vict : aggr);

        hammer::PatternTimings t;
        Program p;
        p.loopBegin(50);
        p.loopBegin(64)
            .act(0, dev.toLogical(32), t.base.tRP)
            .pre(0, t.aggOn())
            .act(0, dev.toLogical(34), t.base.tRP)
            .pre(0, t.aggOn())
            .loopEnd();
        p.act(0, dev.toLogical(36), t.base.tRP)
            .pre(0, t.aggOn())
            .loopEnd();
        const auto result = bench.run(p);

        RunState s;
        s.flips = bench.countBitflips(0, dev.toLogical(victim), vict);
        s.samplerFill = dev.trrSamplerFill(0);
        s.counters = dev.counters();
        s.duration = result.endTime - result.startTime;
        s.victimData = dev.readRowDirect(0, dev.toLogical(victim));
        for (RowId r = 30; r <= 38; ++r)
            for (const auto &cell : dev.weakCells(0, dev.toLogical(r)))
                s.damage.push_back(cell.totalDamage());
        EXPECT_EQ(s.counters.acts, 50u * (64u * 2u + 1u));
        return s;
    };

    expectSameRun(run(true), run(false));
}

// ---- record reuse across phase breaks --------------------------------

/** The fuzzer's campaign device: one 128-row bank of 64-bit rows. */
DeviceConfig
campaignConfig(std::uint64_t seed)
{
    fuzz::CampaignConfig cc;
    cc.seed = seed;
    return fuzz::campaignDeviceConfig(cc);
}

/** Issue insts [begin, end) of a flat body as Executor::execOne does. */
void
issueBody(Device &dev, const Program &p, std::size_t begin,
          std::size_t end, Time &cursor)
{
    for (std::size_t i = begin; i < end; ++i) {
        const Inst &inst = p.insts()[i];
        cursor += inst.gap;
        switch (inst.op) {
          case Op::Act:
            dev.act(cursor, inst.bank, inst.row);
            break;
          case Op::Pre:
            dev.pre(cursor, inst.bank);
            break;
          case Op::Ref:
            dev.ref(cursor);
            break;
          case Op::Nop:
            break;
          default:
            FAIL() << "unexpected op in a flat test body";
        }
    }
}

/**
 * The executor's chunk loop for a program that is one flat loop, with
 * every chunk recorded afresh: after each phase break, two live
 * warm-ups and a live recorded iteration, never a reuse.
 */
void
runReRecording(Device &dev, const Program &p)
{
    const std::size_t end = p.insts().size() - 1;
    ASSERT_EQ(p.insts()[0].op, Op::LoopBegin);
    ASSERT_EQ(p.insts()[end].op, Op::LoopEnd);
    const std::uint64_t n = p.insts()[0].count;
    Time duration = 0;
    for (std::size_t i = 1; i < end; ++i)
        duration += p.insts()[i].gap;

    Time cursor = dev.now() + units::fromNs(100);
    auto body = [&] { issueBody(dev, p, 1, end, cursor); };
    std::uint64_t it = 0;
    int strikes = 0;
    while (n - it >= Executor::kFastPathThreshold && strikes < 2) {
        const Time chunk_start = cursor;
        body();
        body();
        dev.beginLoopRecording();
        body();
        const Device::LoopRecord rec = dev.endLoopRecording();
        it += 3;
        if (!rec.quiescent) {
            ++strikes;
            continue;
        }
        const std::uint64_t replayed =
            dev.replayLoopIterations(rec, n - it);
        const Time skipped = static_cast<Time>(replayed) * duration;
        dev.shiftLoopTimestamps(chunk_start, skipped);
        cursor += skipped;
        it += replayed;
        if (it >= n)
            break;
        body();
        ++it;
        strikes =
            replayed >= Executor::kFastPathThreshold ? 0 : strikes + 1;
    }
    for (; it < n; ++it)
        body();
    dev.flush();
}

/** Every accumulator, row view, command counter and the clock. */
struct DeviceState
{
    std::vector<std::array<float, 3>> damage;
    std::vector<RowData> views;
    DeviceCounters counters;
    Time now = 0;
    std::size_t samplerFill = 0;
};

DeviceState
stateOf(const Device &dev)
{
    DeviceState s;
    for (RowId r = 0; r < dev.rowsPerBank(); ++r) {
        for (const WeakCell &cell : dev.weakCells(0, r))
            s.damage.push_back(cell.damage);
        s.views.push_back(dev.readRowDirect(0, r));
    }
    s.counters = dev.counters();
    s.now = dev.now();
    s.samplerFill = dev.trrSamplerFill(0);
    return s;
}

void
expectIdentical(const DeviceState &a, const DeviceState &b)
{
    ASSERT_EQ(a.damage.size(), b.damage.size());
    for (std::size_t i = 0; i < a.damage.size(); ++i)
        for (int c = 0; c < 3; ++c)
            EXPECT_EQ(a.damage[i][c], b.damage[i][c])
                << "cell " << i << " class " << c;
    ASSERT_EQ(a.views.size(), b.views.size());
    for (std::size_t r = 0; r < a.views.size(); ++r)
        EXPECT_TRUE(a.views[r] == b.views[r]) << "row " << r;
    EXPECT_EQ(a.counters.acts, b.counters.acts);
    EXPECT_EQ(a.counters.pres, b.counters.pres);
    EXPECT_EQ(a.counters.refs, b.counters.refs);
    EXPECT_EQ(a.counters.comraCopies, b.counters.comraCopies);
    EXPECT_EQ(a.counters.simraOps, b.counters.simraOps);
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.samplerFill, b.samplerFill);
}

/**
 * Side state and close times are not observable directly: one-sided
 * closes next to the victim deposit differently after a left, right or
 * no prior hit, and the first one -- reopening the row the loop closed
 * last, right after the device clock -- after a different off-time.
 */
void
probeCloses(Device &dev, std::initializer_list<RowId> rows)
{
    Time t = dev.now();
    for (RowId r : rows) {
        dev.act(t += units::fromNs(15), 0, r);
        dev.pre(t += units::fromNs(36), 0);
    }
    dev.flush();
}

void
probeSideState(Device &dev, RowId victim)
{
    probeCloses(dev, {victim + 1, victim - 1, victim - 2, victim + 2});
}

/** A one-component, REF-synchronized candidate: a fuzzer body shape. */
fuzz::Candidate
refSynced(fuzz::Tech tech)
{
    fuzz::Candidate c;
    c.trefis = 2;
    c.slotsPerTrefi = 8;
    c.refSync = true;
    fuzz::Component k;
    k.tech = tech;
    k.phase = 0;
    k.stride = 1;
    if (tech == fuzz::Tech::Simra)
        k.simraN = 4;
    c.comps.push_back(k);
    return c;
}

/**
 * Run candidate `c` through the executor, which reuses its record
 * after every phase break it can, and through runReRecording on a twin
 * device.  That must leave the two exactly -- EXPECT_EQ, not near --
 * alike.  Returns the executor's counters.
 */
ExecStats
expectReuseMatchesReRecording(const fuzz::Candidate &c,
                              std::uint64_t periods)
{
    const DeviceConfig cfg = campaignConfig(3);
    const RowId victim = fuzz::campaignVictim(cfg.rowsPerSubarray);
    const fuzz::BuiltPattern built =
        fuzz::buildPattern(c, 0, victim, periods, cfg);
    const RowData aggr(cfg.cols, DataPattern::P55);
    const RowData vict(cfg.cols, negate(DataPattern::P55));
    auto prepare = [&](Device &dev) {
        for (RowId a : built.aggressors)
            dev.writeRowDirect(0, a, aggr);
        dev.writeRowDirect(0, victim, vict);
        // Bare REFs put the refresh pointer just below the loop's rows
        // (row r's slot is 64r + 63), so the first breaks come before
        // any cell has flipped: those reuse on side state alone.
        Time t = dev.now();
        for (int i = 0; i < 1800; ++i)
            dev.ref(t += units::fromNs(7800));
    };

    TestBench bench(cfg);
    prepare(bench.device());
    bench.run(built.program);
    Device ref(cfg);
    prepare(ref);
    runReRecording(ref, built.program);
    expectIdentical(stateOf(bench.device()), stateOf(ref));

    probeSideState(bench.device(), victim);
    probeSideState(ref, victim);
    expectIdentical(stateOf(bench.device()), stateOf(ref));
    return bench.executor().stats();
}

class LoopReuse : public ::testing::TestWithParam<fuzz::Tech>
{};

TEST_P(LoopReuse, MatchesReRecordingBitForBit)
{
    // 12000 periods of two REFs sweep the refresh pointer across the
    // loop's rows about three times: dozens of phase breaks.
    const ExecStats stats =
        expectReuseMatchesReRecording(refSynced(GetParam()), 12000);
    EXPECT_GT(stats.phaseBreaks, 10u);
    EXPECT_GT(stats.recordReuses, stats.phaseBreaks / 2);
}

TEST(LoopReuseFuzz, MatchesReRecordingOnGeneratedCandidates)
{
    // The fuzzer's own REF-synchronized candidates: mixed techniques,
    // phases, strides and timings, several components each.  1000
    // periods move the refresh pointer across the loop's rows once, so
    // no later refresh wipes what a reuse deposited.
    std::uint64_t breaks = 0, reuses = 0;
    int tried = 0;
    for (std::uint64_t i = 0; tried < 24; ++i) {
        const fuzz::Candidate c = fuzz::generateCandidate(11, i);
        if (!c.refSync)
            continue;
        ++tried;
        SCOPED_TRACE("candidate " + std::to_string(i));
        const ExecStats stats = expectReuseMatchesReRecording(c, 1000);
        breaks += stats.phaseBreaks;
        reuses += stats.recordReuses;
    }
    EXPECT_GT(breaks, 50u);
    EXPECT_GT(reuses, breaks / 2);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzBodies, LoopReuse,
    ::testing::Values(fuzz::Tech::RowHammer, fuzz::Tech::Comra,
                      fuzz::Tech::Simra),
    [](const ::testing::TestParamInfo<fuzz::Tech> &info) {
        return std::string(fuzz::techName(info.param));
    });

/**
 * Drives one flat body -- ACT 32, PRE, REF -- an iteration at a time
 * on a device whose every REF refreshes exactly one row (slot r
 * refreshes row r), so the tests place each refresh by hand.  The
 * body's tracked rows are 30..34.
 */
struct BodyDriver
{
    static constexpr RowId kAggr = 32;
    static constexpr RowId kVictim = 33;

    static DeviceConfig
    config()
    {
        DeviceConfig cfg = campaignConfig(5);
        cfg.timings.refsPerWindow = 128;
        return cfg;
    }

    static Program
    singleAggressorBody()
    {
        const hammer::PatternTimings t;
        Program body;
        body.act(0, kAggr, t.base.tRP)
            .pre(0, t.aggOn())
            .ref(t.base.tRP)
            .nop(t.base.tRFC);
        return body;
    }

    explicit BodyDriver(Program b = singleAggressorBody())
        : dev(config()), body(std::move(b))
    {
        const DeviceConfig &cfg = dev.config();
        for (RowId r = 30; r <= 34; ++r)
            dev.writeRowDirect(
                0, r,
                RowData(cfg.cols, r == kAggr
                                      ? DataPattern::P55
                                      : negate(DataPattern::P55)));
    }

    Time
    duration() const
    {
        Time d = 0;
        for (const Inst &inst : body.insts())
            d += inst.gap;
        return d;
    }

    /** `k` live iterations; `from` is the last one's start. */
    void
    iterate(int k = 1)
    {
        for (int i = 0; i < k; ++i) {
            from = cursor;
            issueBody(dev, body, 0, body.insts().size(), cursor);
        }
    }

    Device::LoopRecord
    record()
    {
        dev.beginLoopRecording(true);
        iterate();
        return dev.endLoopRecording();
    }

    bool
    reuse(const Device::LoopRecord &rec, std::uint64_t k)
    {
        if (dev.reuseLoopRecord(rec, k, from, duration()) != k)
            return false;
        cursor += static_cast<Time>(k) * duration();
        return true;
    }

    /** Bare REFs, with no close pending, until `count` are issued. */
    void
    refs(int count)
    {
        for (int i = 0; i < count; ++i)
            dev.ref(cursor += units::fromNs(7800));
    }

    /** Hammer `row` alone, `n` times, through the executor. */
    void
    hammer(RowId row, std::uint64_t n)
    {
        const hammer::PatternTimings t;
        Program p;
        p.loopBegin(n).act(0, row, t.base.tRP).pre(0, t.aggOn()).loopEnd();
        Executor ex(dev);
        cursor = ex.run(p).endTime;
    }

    bool
    anyFlipped(RowId row) const
    {
        for (const WeakCell &cell : dev.weakCells(0, row))
            if (cell.flipped())
                return true;
        return false;
    }

    Device dev;
    Program body;
    Time cursor = units::fromNs(100);
    Time from = 0;
};

TEST(LoopReuseFallback, AcceptedOnceSideStateIsBackAndMatchesLiveRun)
{
    BodyDriver live, reused;
    for (BodyDriver *d : {&live, &reused}) {
        d->iterate(2);
        const Device::LoopRecord rec = d->record();
        ASSERT_TRUE(rec.steady);
        // A phase break's refresh of the tracked rows zeroes their side
        // state without touching data (nothing has flipped yet).
        d->refs(35 - 3);
        if (d == &reused) {
            EXPECT_FALSE(d->reuse(rec, 3)) << "side state differs";
        }
        // One live warm-up (its REF hits row 35) restores it.
        d->iterate();
        if (d == &reused) {
            EXPECT_TRUE(d->reuse(rec, 2));
        } else {
            d->iterate(2);
        }
    }
    expectIdentical(stateOf(reused.dev), stateOf(live.dev));
    // Reopening the aggressor right away couples by its off-time.
    for (BodyDriver *d : {&live, &reused})
        probeCloses(d->dev, {BodyDriver::kAggr});
    expectIdentical(stateOf(reused.dev), stateOf(live.dev));
}

TEST(LoopReuseFallback, RefusedWhenBreakMaterializedAFlip)
{
    BodyDriver d;
    d.iterate(2);
    const Device::LoopRecord rec = d.record();
    ASSERT_TRUE(rec.steady);

    // Hammer the body's aggressor alone (same side state) until the
    // victim flips, then refresh rows 3..35: the refresh materializes
    // the flip into the victim's data.
    d.hammer(BodyDriver::kAggr, 2'000'000);
    ASSERT_TRUE(d.anyFlipped(BodyDriver::kVictim));
    const RowData before = d.dev.readRowDirect(0, BodyDriver::kVictim);
    d.refs(36 - 3);
    EXPECT_FALSE(d.anyFlipped(BodyDriver::kVictim));
    EXPECT_TRUE(d.dev.readRowDirect(0, BodyDriver::kVictim) == before);
    d.iterate();  // side state back; the data stays changed

    EXPECT_FALSE(d.reuse(rec, 2));
    EXPECT_FALSE(d.reuse(rec, 1));
}

TEST(LoopReuseFallback, RefusedWhenRecordIsNotSteady)
{
    BodyDriver d;
    // Recorded straight after the host writes: the victims' side state
    // goes from none to one-sided during the iteration.
    const Device::LoopRecord rec = d.record();
    EXPECT_TRUE(rec.quiescent);
    EXPECT_FALSE(rec.steady);
    d.iterate();
    EXPECT_FALSE(d.reuse(rec, 1));
}

TEST(LoopReuseFallback, RefusedWhenAReuseRefHitsATrackedRow)
{
    BodyDriver d;
    d.iterate(2);
    const Device::LoopRecord rec = d.record();
    ASSERT_TRUE(rec.steady);
    d.refs(27 - 3);  // the next REF refreshes row 27
    // REFs 27..30 would refresh tracked row 30; 27..29 miss them all.
    EXPECT_FALSE(d.reuse(rec, 4));
    EXPECT_TRUE(d.reuse(rec, 3));
}

TEST(LoopReuseFallback, NotSteadyWhenARestoreMaterializedAFlip)
{
    // Row 32 opens normally (its restore materializes any flip), then
    // a CoMRA copy 31 -> 32 rewrites its data.
    const hammer::PatternTimings t;
    Program body;
    body.act(0, 32, t.base.tRP)
        .pre(0, t.aggOn())
        .act(0, 31, t.base.tRP)
        .pre(0, t.base.tRAS)
        .act(0, 32, units::fromNs(7.5))
        .pre(0, t.base.tRAS)
        .ref(t.base.tRP)
        .nop(t.base.tRFC);
    BodyDriver d(body);
    d.dev.writeRowDirect(0, 31, RowData(64, DataPattern::P55));
    d.iterate(2);

    // Hammering row 31 alone keeps every tracked row's side state and
    // flips a cell of row 32.
    d.hammer(31, 2'000'000);
    ASSERT_TRUE(d.anyFlipped(32));

    // The recorded iteration materializes that flip and then copies
    // the data back: it starts and ends in the same state, but its
    // deposits between the two saw the flipped bit.  A later
    // iteration without the flip would deposit differently.
    const Device::LoopRecord rec = d.record();
    EXPECT_TRUE(rec.quiescent);
    EXPECT_FALSE(d.anyFlipped(32));
    EXPECT_TRUE(d.dev.readRowDirect(0, 32) ==
                RowData(64, DataPattern::P55));
    EXPECT_FALSE(rec.steady);
}

TEST(LoopReuseFallback, RefusedWhenAResetWouldMaterializeAFlip)
{
    BodyDriver d;
    // One close of row 33 sets the aggressor's side state the way the
    // hammering below keeps it.
    Time t = d.cursor;
    d.dev.act(t += units::fromNs(15), 0, 33);
    d.dev.pre(t += units::fromNs(36), 0);
    d.cursor = t;
    d.iterate(2);
    const Device::LoopRecord rec = d.record();
    ASSERT_TRUE(rec.steady);

    // Hammering row 33 flips a cell of the aggressor row 32 without
    // changing any tracked row's data or side state; the body's next
    // ACT 32 would restore the row and materialize that flip.
    d.hammer(33, 2'000'000);
    ASSERT_TRUE(d.anyFlipped(BodyDriver::kAggr));
    EXPECT_FALSE(d.reuse(rec, 1));
}

// ---- hooked record reuse, close by close -------------------------------

/** Eight double-sided pairs (aggressors 31 and 33), then a REF. */
Program
twoAggressorBody()
{
    const hammer::PatternTimings t;
    Program body;
    for (int i = 0; i < 8; ++i)
        body.act(0, 31, t.base.tRP)
            .pre(0, t.aggOn())
            .act(0, 33, t.base.tRP)
            .pre(0, t.aggOn());
    body.ref(t.base.tRP).nop(t.base.tRFC);
    return body;
}

/** Forwards to a hook and counts its refreshes of the given rows. */
class RefreshCounter : public MitigationHook
{
  public:
    RefreshCounter(MitigationHook &inner, std::vector<RowId> rows)
        : inner_(inner), rows_(std::move(rows))
    {}

    void
    onClose(BankId bank, const CloseEvent &event,
            std::vector<RowId> &refresh) override
    {
        const std::size_t first = refresh.size();
        inner_.onClose(bank, event, refresh);
        for (std::size_t i = first; i < refresh.size(); ++i)
            if (std::find(rows_.begin(), rows_.end(), refresh[i]) !=
                rows_.end())
                ++hits;
    }

    std::uint64_t hits = 0;

  private:
    MitigationHook &inner_;
    std::vector<RowId> rows_;
};

TEST(HookedReuse, PracRfmRefreshesAnAggressorMidIteration)
{
    BodyDriver live(twoAggressorBody()), reused(twoAggressorBody());
    const DeviceConfig &cfg = live.dev.config();
    auto prac = [&] {
        return mitigation::PracMitigation(mitigation::PracConfig{},
                                          cfg.banks, cfg.rowsPerBank(),
                                          cfg.rowsPerSubarray);
    };
    mitigation::PracMitigation live_prac = prac(), reused_prac = prac();
    RefreshCounter live_hook(live_prac, {31, 33});
    RefreshCounter reused_hook(reused_prac, {31, 33});
    live.dev.setMitigation(&live_hook);
    reused.dev.setMitigation(&reused_hook);

    live.iterate(3);
    reused.iterate(2);
    const Device::LoopRecord rec = reused.record();
    EXPECT_TRUE(rec.hooked);
    EXPECT_FALSE(rec.quiescent);
    ASSERT_TRUE(rec.steady);

    // 200 iterations: PRAC alerts every few closes and its RFMs drain
    // the aggressors, and the one-row REF stripes sweep the loop's
    // rows too (no phase break for either).
    const std::uint64_t before = reused_hook.hits;
    ASSERT_TRUE(reused.reuse(rec, 200));
    live.iterate(200);
    EXPECT_GT(reused_hook.hits, before + 100);
    EXPECT_EQ(reused_hook.hits, live_hook.hits);
    EXPECT_EQ(reused_prac.alerts(), live_prac.alerts());
    EXPECT_EQ(reused_prac.rfms(), live_prac.rfms());
    for (RowId r = 28; r <= 36; ++r)
        EXPECT_EQ(reused_prac.counters().counter(0, r),
                  live_prac.counters().counter(0, r));
    expectIdentical(stateOf(reused.dev), stateOf(live.dev));
    for (BodyDriver *d : {&live, &reused})
        probeSideState(d->dev, 32);
    expectIdentical(stateOf(reused.dev), stateOf(live.dev));
}

TEST(HookedReuse, GuardSendsANearFlipIterationLive)
{
    mitigation::ParaConfig never;
    never.probability = 0.0;
    BodyDriver a(twoAggressorBody());
    mitigation::ParaMitigation para_a(never, a.dev.config().rowsPerSubarray);
    a.dev.setMitigation(&para_a);
    a.iterate(2);
    const Device::LoopRecord rec = a.record();
    ASSERT_TRUE(rec.steady);

    // The guard margin of each cell of aggressor row 31, by index.
    const auto &cells = a.dev.weakCells(0, 31);
    std::vector<double> margin(cells.size(), -1.0);
    for (const Device::LoopRecord::Guard &g : rec.guards)
        for (std::size_t k = 0; k < cells.size(); ++k)
            if (g.cell == &cells[k])
                margin[k] = g.perIteration;
    for (double m : margin)
        ASSERT_GE(m, 0.0) << "an aggressor cell is not guarded";
    // 0: every guard holds; 1: a guard fails, no cell flipped; 2: flip.
    auto guard_state = [&](const Device &dev) {
        int state = 0;
        const auto &now = dev.weakCells(0, 31);
        for (std::size_t k = 0; k < now.size(); ++k) {
            if (now[k].flipped())
                return 2;
            const auto &d = now[k].damage;
            if (std::max({d[0], d[1], d[2]}) + margin[k] >= 1.0)
                state = 1;
        }
        return state;
    };
    auto hammer_row30 = [](BodyDriver &d, std::uint64_t n) {
        MitigationHook *hook = d.dev.mitigation();
        d.dev.setMitigation(nullptr);
        d.hammer(30, n);
        d.dev.setMitigation(hook);
    };

    // Hammering row 30 charges aggressor row 31 without touching any
    // tracked row's data; search (on copies) for a count that leaves a
    // cell of row 31 within the guard margin of a flip.
    std::uint64_t lo = 0, hi = std::uint64_t(1) << 26, found = 0;
    while (found == 0 && hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        BodyDriver trial = a;
        hammer_row30(trial, mid);
        const int state = guard_state(trial.dev);
        if (state == 1)
            found = mid;
        else if (state == 0)
            lo = mid;
        else
            hi = mid;
    }
    ASSERT_GT(found, 0u);
    hammer_row30(a, found);
    ASSERT_EQ(guard_state(a.dev), 1);

    BodyDriver b = a;
    mitigation::ParaMitigation para_b = para_a;
    b.dev.setMitigation(&para_b);
    // The next iteration must run live: its ACT 31 restores the row
    // (no flip yet, so the data stays), after which replay resumes.
    EXPECT_FALSE(a.reuse(rec, 3));
    for (BodyDriver *d : {&a, &b})
        d->iterate();
    EXPECT_EQ(guard_state(a.dev), 0);
    EXPECT_TRUE(a.reuse(rec, 5));
    b.iterate(5);
    expectIdentical(stateOf(a.dev), stateOf(b.dev));
}

} // namespace
