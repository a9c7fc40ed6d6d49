/**
 * @file
 * Unit tests for the row-state dataflow analysis: lattice joins over
 * SiMRA merges, copy-chain resolution, loop fixpoints vs unrolled
 * execution, each Df* diagnostic code, and the SARIF rendering of the
 * new code family.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "lint/dataflow.h"
#include "lint/linter.h"
#include "lint/report.h"
#include "pud/semantics.h"

namespace {

using namespace pud;
using namespace pud::bender;
using namespace pud::lint;

const dram::TimingParams kT{};

dram::DeviceConfig
smallConfig()
{
    dram::DeviceConfig cfg = dram::makeConfig("HMA81GU7AFR8N-UH");
    cfg.banks = 1;
    cfg.subarraysPerBank = 2;
    cfg.rowsPerSubarray = 64;
    cfg.cols = 256;
    cfg.profile.mapping = dram::MappingScheme::Sequential;
    return cfg;
}

/** ACT src, full restore, reopen dst in the CoMRA window: a copy. */
Program &
comra(Program &p, dram::RowId src, dram::RowId dst)
{
    return p.act(0, src, kT.tRC)
        .pre(0, kT.tRAS)
        .act(0, dst, units::fromNs(7.5))
        .pre(0, kT.tRAS);
}

/** ACT r1, quick PRE, quick ACT r2: opens the SiMRA group. */
Program &
simraOpen(Program &p, dram::RowId r1, dram::RowId r2)
{
    return p.act(0, r1, kT.tRC)
        .pre(0, units::fromNs(3))
        .act(0, r2, units::fromNs(3));
}

bool
hasCode(const std::vector<Diag> &diags, Code code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diag &d) { return d.code == code; });
}

RowStateKind
kindOf(const DataflowResult &r, dram::RowId phys)
{
    const RowState *st = r.find(0, phys);
    return st == nullptr ? RowStateKind::Initial : st->kind;
}

// ---- definitions and copies --------------------------------------------

TEST(Dataflow, WrDefinesAndCopyChainsResolve)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::PAA));
    p.act(0, 10, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    comra(p, 10, 12);
    comra(p, 12, 14);  // chain: still the data-table value
    comra(p, 20, 22);  // initial-contents source resolves to row 20

    const auto r = analyzeDataflow(p, smallConfig());
    ASSERT_NE(r.find(0, 14), nullptr);
    EXPECT_EQ(r.find(0, 14)->kind, RowStateKind::Written);
    EXPECT_EQ(r.find(0, 14)->dataIndex, d);
    ASSERT_NE(r.find(0, 22), nullptr);
    EXPECT_EQ(r.find(0, 22)->kind, RowStateKind::CopyOf);
    EXPECT_EQ(r.find(0, 22)->srcKey, rowKey(0, 20));
    // Sources are consumed, not redefined.
    EXPECT_EQ(r.find(0, 10)->kind, RowStateKind::Written);
    EXPECT_TRUE(r.find(0, 10)->consumed);
    EXPECT_TRUE(r.exact);
}

TEST(Dataflow, ReadBeforeWriteAndUndefinedReads)
{
    Program p;
    p.act(0, 5, kT.tRP).rd(0, kT.tRCD).pre(0, kT.tRAS);
    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfReadBeforeWrite));
    EXPECT_FALSE(hasCode(r.diags, Code::DfReadUndefined));

    // A TRNG-style merge leaves the block charge-shared; reading it
    // back is reading device entropy, not a program value.
    Program q;
    simraOpen(q, 8, 15).rd(0, kT.tRCD).pre(0, kT.tRAS);
    const auto s = analyzeDataflow(q, smallConfig());
    EXPECT_EQ(kindOf(s, 8), RowStateKind::ChargeShared);
    EXPECT_TRUE(hasCode(s.diags, Code::DfReadUndefined));
    // The all-initial merge itself is the deliberate idiom: silent.
    EXPECT_FALSE(hasCode(s.diags, Code::DfMajorityUninitInput));
}

TEST(Dataflow, DeadWriteOnlyWhenOverwrittenUnread)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::P55));
    p.act(0, 9, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    p.act(0, 9, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfDeadWrite));
    // The anchor is the *first* (overwritten) WR.
    const auto it = std::find_if(
        r.diags.begin(), r.diags.end(),
        [](const Diag &d2) { return d2.code == Code::DfDeadWrite; });
    EXPECT_EQ(it->instIndex, 1u);

    // Read between the writes: both are live.
    Program q;
    const int e = q.addData(dram::RowData(256, dram::DataPattern::P55));
    q.act(0, 9, kT.tRP).wr(0, e, kT.tRCD).rd(0, kT.tRP).pre(0, kT.tRAS);
    q.act(0, 9, kT.tRP).wr(0, e, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_FALSE(hasCode(analyzeDataflow(q, smallConfig()).diags,
                         Code::DfDeadWrite));

    // An end-of-program live-out is what the host reads back: live.
    Program l;
    const int f = l.addData(dram::RowData(256, dram::DataPattern::P55));
    l.act(0, 9, kT.tRP).wr(0, f, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_FALSE(hasCode(analyzeDataflow(l, smallConfig()).diags,
                         Code::DfDeadWrite));
}

// ---- merge joins -------------------------------------------------------

TEST(Dataflow, GroupWriteThenUnanimousMergeKeepsValue)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::PFF));
    // groupWrite idiom: open the block (incidental merge), WR all.
    simraOpen(p, 40, 47).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    // Re-opening the same block merges eight identical values.
    simraOpen(p, 40, 47).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    for (dram::RowId row = 40; row < 48; ++row) {
        ASSERT_NE(r.find(0, row), nullptr);
        EXPECT_EQ(r.find(0, row)->kind, RowStateKind::Written);
        EXPECT_EQ(r.find(0, row)->dataIndex, d);
    }
    EXPECT_TRUE(r.merges.empty());  // unanimous joins intern nothing
    EXPECT_FALSE(hasCode(r.diags, Code::DfMajorityTie));
    EXPECT_FALSE(hasCode(r.diags, Code::DfMajorityUninitInput));
}

TEST(Dataflow, TieFreeReplicatedMajority)
{
    Program p;
    // MAJ3 staging: operands 50, 51, 52 replicated (3, 3, 2).
    comra(p, 50, 40);
    comra(p, 50, 41);
    comra(p, 50, 42);
    comra(p, 51, 43);
    comra(p, 51, 44);
    comra(p, 51, 45);
    comra(p, 52, 46);
    comra(p, 52, 47);
    simraOpen(p, 40, 47).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    ASSERT_EQ(r.merges.size(), 1u);
    EXPECT_FALSE(r.merges[0].tieable);
    EXPECT_EQ(r.merges[0].groupSize, 8);
    ASSERT_EQ(r.merges[0].inputs.size(), 3u);
    int total = 0;
    for (const MergeInput &in : r.merges[0].inputs) {
        EXPECT_EQ(in.value.kind, RowStateKind::CopyOf);
        total += in.weight;
    }
    EXPECT_EQ(total, 8);
    for (dram::RowId row = 40; row < 48; ++row) {
        EXPECT_EQ(kindOf(r, row), RowStateKind::MajorityOf);
        EXPECT_EQ(r.find(0, row)->mergeId, 0);
    }
    EXPECT_FALSE(hasCode(r.diags, Code::DfMajorityTie));
}

TEST(Dataflow, TieableReplicationIsFlagged)
{
    Program p;
    // Naive even split (4, 4): a bitline can tie at 4-vs-4.
    for (dram::RowId dst = 40; dst < 44; ++dst)
        comra(p, 50, dst);
    for (dram::RowId dst = 44; dst < 48; ++dst)
        comra(p, 51, dst);
    simraOpen(p, 40, 47).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfMajorityTie));
    ASSERT_EQ(r.merges.size(), 1u);
    EXPECT_TRUE(r.merges[0].tieable);
}

TEST(Dataflow, PartialStagingIsUninitInput)
{
    Program p;
    // Only half the block is staged; the merge mixes operand data
    // with never-written charge.
    for (dram::RowId dst = 40; dst < 44; ++dst)
        comra(p, 50, dst);
    simraOpen(p, 40, 47).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfMajorityUninitInput));
    for (dram::RowId row = 40; row < 48; ++row)
        EXPECT_EQ(kindOf(r, row), RowStateKind::ChargeShared);
    EXPECT_TRUE(r.merges.empty());
}

TEST(Dataflow, OperandInsideItsOwnGroup)
{
    Program p;
    // Operand row 41 sits inside the activation block; every other
    // block row holds a copy of it.  The merge resolves (unanimous)
    // but destroys the operand's original contents.
    for (dram::RowId dst = 40; dst < 48; ++dst)
        if (dst != 41)
            comra(p, 41, dst);
    simraOpen(p, 40, 47).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfGroupOverlap));
    EXPECT_FALSE(hasCode(r.diags, Code::DfMajorityUninitInput));
    for (dram::RowId row = 40; row < 48; ++row) {
        EXPECT_EQ(kindOf(r, row), RowStateKind::CopyOf);
        EXPECT_EQ(r.find(0, row)->srcKey, rowKey(0, 41));
    }
}

TEST(Dataflow, GroupCrossingSubarrayClobbers)
{
    // A non-power-of-two subarray: offsets 4 and 11 differ in four
    // bits, so the decoder fires offsets 0..15 -- rows 12..15 are in
    // the next subarray (wordline drivers are per-subarray).
    dram::DeviceConfig cfg = smallConfig();
    cfg.rowsPerSubarray = 12;

    Program p;
    simraOpen(p, 4, 11).pre(0, kT.tRAS);
    const auto r = analyzeDataflow(p, cfg);
    EXPECT_TRUE(hasCode(r.diags, Code::DfGroupCrossesSubarray));
    EXPECT_EQ(kindOf(r, 0), RowStateKind::Clobbered);
    EXPECT_EQ(kindOf(r, 15), RowStateKind::Clobbered);
}

TEST(Dataflow, GroupPastTheBankEndWritesOnlyBankRows)
{
    // The same non-power-of-two decoder spill in the last subarray:
    // offsets 4 and 11 of subarray 1 fire rows 12..27, but the bank
    // ends at row 23.  The WR on the open group defines only the rows
    // the bank has.
    dram::DeviceConfig cfg = smallConfig();
    cfg.rowsPerSubarray = 12;
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::PAA));
    simraOpen(p, 16, 23).wr(0, d, kT.tRCD).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, cfg);
    EXPECT_TRUE(hasCode(r.diags, Code::DfGroupCrossesSubarray));
    for (dram::RowId row = 12; row < 24; ++row)
        EXPECT_EQ(kindOf(r, row), RowStateKind::Written) << row;
    for (const auto &[key, st] : r.rows)
        EXPECT_LT(static_cast<dram::RowId>(key), cfg.rowsPerBank());
}

TEST(Dataflow, ReopenGridFollowsSharedClassifier)
{
    // ACT r1 - PRE - ACT r2 - PRE on the AbsInt grid of t_AggOn /
    // PRE->ACT values straddling every window edge: the row states
    // must be the data effect of the class semantics::classifyReopen
    // names for the pair.
    const dram::TimingParams &t = smallConfig().timings;
    const Time on_times[] = {t.simraMaxActToPre, t.simraMaxActToPre + 1,
                             t.tRAS - units::ns - 1, t.tRAS - units::ns};
    const Time gaps[] = {t.simraMaxPreToAct, t.simraMaxPreToAct + 1,
                         t.comraMaxPreToAct, t.comraMaxPreToAct + 1};
    // Same row (a degenerate SiMRA group), a 4-row decoder group in
    // the same subarray, and a row in the next subarray.
    const dram::RowId r1 = 32;
    const dram::RowId seconds[] = {32, 38, 96};

    std::set<semantics::ReopenClass> seen;
    for (bool simra : {true, false}) {
        auto cfg = smallConfig();
        cfg.profile.supportsSimra = simra;
        const semantics::Geometry g = semantics::geometryOf(cfg);
        for (Time t_on : on_times) {
            for (Time gap : gaps) {
                for (dram::RowId r2 : seconds) {
                    Program p;
                    p.act(0, r1, t.tRP)
                        .pre(0, t_on)
                        .act(0, r2, gap)
                        .pre(0, t.tRAS);
                    const auto cls = semantics::classifyReopen(
                        cfg.timings, g, r1, r2, t_on, gap);
                    seen.insert(cls);
                    const auto r = analyzeDataflow(p, cfg);
                    SCOPED_TRACE(testing::Message()
                                 << "simra " << simra << " t_on " << t_on
                                 << " gap " << gap << " r2 " << r2);

                    switch (cls) {
                      case semantics::ReopenClass::ComraCopy:
                        ASSERT_NE(r.find(0, r2), nullptr);
                        EXPECT_EQ(r.find(0, r2)->kind,
                                  RowStateKind::CopyOf);
                        EXPECT_EQ(r.find(0, r2)->srcKey, rowKey(0, r1));
                        EXPECT_EQ(r.find(0, r2)->defIndex, 2u);
                        break;
                      case semantics::ReopenClass::SimraGroup: {
                        // Every group row, and nothing else, holds the
                        // merge of the second ACT; the group lies in
                        // r1's subarray, inside the bank.
                        const auto group =
                            semantics::simraActivatedSet(g, r1, r2);
                        std::set<dram::RowId> rows;
                        for (const auto &[key, st] : r.rows) {
                            rows.insert(static_cast<dram::RowId>(key));
                            EXPECT_EQ(st.kind,
                                      RowStateKind::ChargeShared);
                            EXPECT_EQ(st.defIndex, 2u);
                        }
                        EXPECT_EQ(rows, std::set<dram::RowId>(
                                            group.begin(), group.end()));
                        for (dram::RowId row : group) {
                            EXPECT_TRUE(g.contains(row)) << row;
                            EXPECT_TRUE(g.sameSubarray(row, r1)) << row;
                        }
                        break;
                      }
                      case semantics::ReopenClass::SimraIgnored:
                      case semantics::ReopenClass::Conventional:
                        // No data effect on r2 (or any row).
                        EXPECT_TRUE(r.rows.empty());
                        break;
                    }
                }
            }
        }
    }
    EXPECT_EQ(seen.size(), 4u);  // the grid reaches every class
}

// ---- control-row clobber and aggressor aliasing ------------------------

TEST(Dataflow, ControlRowClobberAtSubarrayBoundary)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::P00));
    // The pre-fix AND/OR bug: `base - 1` for the first block of
    // subarray 1 lands on row 63, the last row of subarray 0.
    p.act(0, 63, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    simraOpen(p, 70, 77).pre(0, kT.tRAS);

    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfControlRowClobber));

    // The same control row written *inside* the active subarray is
    // unconsumed but plausibly intentional: silent.
    Program q;
    const int e = q.addData(dram::RowData(256, dram::DataPattern::P00));
    q.act(0, 72, kT.tRP).wr(0, e, kT.tRCD).pre(0, kT.tRAS);
    simraOpen(q, 70, 77).pre(0, kT.tRAS);
    EXPECT_FALSE(hasCode(analyzeDataflow(q, smallConfig()).diags,
                         Code::DfControlRowClobber));

    // An interior row of the idle subarray is not boundary-shaped.
    Program m;
    const int f = m.addData(dram::RowData(256, dram::DataPattern::P00));
    m.act(0, 10, kT.tRP).wr(0, f, kT.tRCD).pre(0, kT.tRAS);
    simraOpen(m, 70, 77).pre(0, kT.tRAS);
    EXPECT_FALSE(hasCode(analyzeDataflow(m, smallConfig()).diags,
                         Code::DfControlRowClobber));
}

TEST(Dataflow, HammeredNeighbourConsumedAsData)
{
    Program p;
    p.loopBegin(300)
        .act(0, 30, kT.tRP)
        .pre(0, kT.tRAS)
        .loopEnd();
    p.act(0, 31, kT.tRC).rd(0, kT.tRCD).pre(0, kT.tRAS);
    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(hasCode(r.diags, Code::DfAggressorAsData));

    // Same consumption far from any hammer-grade row: silent.
    Program q;
    q.loopBegin(300).act(0, 30, kT.tRP).pre(0, kT.tRAS).loopEnd();
    q.act(0, 60, kT.tRC).rd(0, kT.tRCD).pre(0, kT.tRAS);
    EXPECT_FALSE(hasCode(analyzeDataflow(q, smallConfig()).diags,
                         Code::DfAggressorAsData));
}

// ---- loops: fixpoints vs unrolled execution ----------------------------

void
copyChainBody(Program &p)
{
    comra(p, 10, 12);
    comra(p, 12, 14);
}

TEST(Dataflow, LoopFixpointMatchesUnrolled)
{
    for (std::uint64_t trips : {1ull, 2ull, 17ull}) {
        Program looped;
        looped.loopBegin(trips);
        copyChainBody(looped);
        looped.loopEnd();

        Program unrolled;
        for (std::uint64_t k = 0; k < trips; ++k)
            copyChainBody(unrolled);

        const auto a = analyzeDataflow(looped, smallConfig());
        const auto b = analyzeDataflow(unrolled, smallConfig());
        EXPECT_TRUE(a.exact) << trips;
        ASSERT_EQ(a.rows.size(), b.rows.size()) << trips;
        auto it = b.rows.begin();
        for (const auto &[key, st] : a.rows) {
            EXPECT_EQ(key, it->first) << trips;
            EXPECT_TRUE(st.sameValue(it->second))
                << trips << ": row " << (key & 0xffffffffu) << " "
                << name(st.kind) << " vs " << name(it->second.kind);
            ++it;
        }
    }
}

TEST(Dataflow, RepeatedCopyInLoopIsDeadWrite)
{
    // Each iteration overwrites dst with the same unread value; the
    // fixpoint pass still sees the overwrite-before-consume.
    Program p;
    p.loopBegin(17);
    comra(p, 10, 12);
    p.loopEnd();
    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_TRUE(r.exact);
    EXPECT_TRUE(hasCode(r.diags, Code::DfDeadWrite));
    EXPECT_EQ(kindOf(r, 12), RowStateKind::CopyOf);
}

TEST(Dataflow, DivergentLoopDegradesToUnknown)
{
    // A 5-deep rolling copy chain shifts state every iteration, so no
    // fixpoint is reached within the pass cap: the rows still in
    // flux degrade to Unknown, the settled prefix stays precise.
    Program p;
    p.loopBegin(17);
    comra(p, 14, 15);
    comra(p, 13, 14);
    comra(p, 12, 13);
    comra(p, 11, 12);
    comra(p, 10, 11);
    p.loopEnd();

    const auto r = analyzeDataflow(p, smallConfig());
    EXPECT_FALSE(r.exact);
    EXPECT_EQ(kindOf(r, 11), RowStateKind::CopyOf);
    EXPECT_EQ(r.find(0, 11)->srcKey, rowKey(0, 10));
    EXPECT_EQ(kindOf(r, 15), RowStateKind::Unknown);

    // The unrolled program resolves fully: every chained row is a
    // copy of row 10 after 17 iterations -- Unknown is sound (it
    // over-approximates), never wrong.
    Program u;
    for (int k = 0; k < 17; ++k) {
        comra(u, 14, 15);
        comra(u, 13, 14);
        comra(u, 12, 13);
        comra(u, 11, 12);
        comra(u, 10, 11);
    }
    const auto s = analyzeDataflow(u, smallConfig());
    EXPECT_TRUE(s.exact);
    EXPECT_EQ(s.find(0, 15)->srcKey, rowKey(0, 10));
}

// ---- lintProgram / SARIF integration -----------------------------------

TEST(Dataflow, LintOptionGatesTheDfFamily)
{
    Program p;
    const int d = p.addData(dram::RowData(256, dram::DataPattern::PAA));
    p.act(0, 9, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);
    p.act(0, 9, kT.tRP).wr(0, d, kT.tRCD).pre(0, kT.tRAS);

    const auto off = lintProgram(p, smallConfig());
    EXPECT_FALSE(hasCode(off.diags, Code::DfDeadWrite));

    LintOptions opts;
    opts.dataflow = true;
    const auto on = lintProgram(p, smallConfig(), opts);
    EXPECT_TRUE(hasCode(on.diags, Code::DfDeadWrite));
    EXPECT_TRUE(on.clean());  // Df* findings are never errors
}

std::string
renderSarif(const LintResult &r, const Program &p)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    printSarif(r, p, f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

TEST(Dataflow, SarifGoldenForEveryDfCode)
{
    const Code codes[] = {
        Code::DfReadBeforeWrite,    Code::DfReadUndefined,
        Code::DfDeadWrite,          Code::DfControlRowClobber,
        Code::DfAggressorAsData,    Code::DfGroupCrossesSubarray,
        Code::DfGroupOverlap,       Code::DfMajorityUninitInput,
        Code::DfMajorityTie,
    };
    LintResult r;
    for (Code c : codes)
        r.diags.push_back({c, severityOf(c), 0, "synthetic"});
    Program p;
    p.nop(10);

    const std::string out = renderSarif(r, p);
    for (Code c : codes) {
        EXPECT_NE(out.find(std::string("\"id\":\"") + name(c) + "\""),
                  std::string::npos)
            << name(c);
    }
    EXPECT_NE(out.find("\"id\":\"df-dead-write\""), std::string::npos);
    EXPECT_NE(out.find("\"level\":\"note\""), std::string::npos);
    EXPECT_NE(out.find("\"level\":\"warning\""), std::string::npos);
}

TEST(Dataflow, SarifEndToEndWithDataflowOption)
{
    Program p;
    simraOpen(p, 8, 15).rd(0, kT.tRCD).pre(0, kT.tRAS);
    LintOptions opts;
    opts.dataflow = true;
    const auto r = lintProgram(p, smallConfig(), opts);
    const std::string out = renderSarif(r, p);
    EXPECT_NE(out.find("\"id\":\"df-read-undefined\""),
              std::string::npos);
}

} // namespace
