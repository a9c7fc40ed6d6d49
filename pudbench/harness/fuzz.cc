/**
 * @file
 * `fuzz`: fuzz::runCampaign at a fixed candidate count, 24 campaigns
 * per batch.  One unit is one generated candidate.
 *
 * The traced batch drives the campaign's public steps itself, in
 * runCampaign's order -- generateCandidate, shapeHash, buildPattern,
 * lint::summarizeEffects / predictEffects, measureBuiltHc,
 * minimizePattern -- with a span around each call, and must reproduce
 * the untraced runCampaign result candidate for candidate.
 */

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "bender/host.h"
#include "exec/pool.h"
#include "fuzz/campaign.h"
#include "fuzz/measure.h"
#include "fuzz/minimize.h"
#include "hammer/hcfirst.h"
#include "harness.h"
#include "lint/absint.h"
#include "lint/effects.h"

namespace pudbench {

namespace {

using pud::fuzz::CampaignConfig;
using pud::fuzz::CampaignResult;
using pud::fuzz::CandidateResult;
using pud::fuzz::Status;

constexpr std::uint64_t kNoFlip = pud::hammer::kNoFlip;

bool
sameResult(const CandidateResult &a, const CandidateResult &b)
{
    return a.index == b.index && a.hash == b.hash &&
           a.status == b.status && a.actsPerPeriod == b.actsPerPeriod &&
           a.hcPeriods == b.hcPeriods && a.hcActs == b.hcActs;
}

/** Counters the traced driver accumulates across campaigns. */
struct Tally
{
    std::vector<double> chunkSeconds;
    double parallelWall = 0.0;
    std::uint64_t acts = 0, probes = 0, searches = 0, populatedMax = 0;
    std::uint64_t unique = 0, effective = 0, staticSkips = 0;
};

class Fuzz : public Workload
{
  public:
    explicit Fuzz(const WorkloadParams &p) : p_(p)
    {
        // Many small campaigns, each on its own silicon.  A campaign's
        // cost is heavy-tailed (a few REF-synchronized candidates take
        // a tenth of it) and depends on its device seed, so the batch
        // averages over many of them to keep seeds comparable.
        const int campaigns = p.scale == Scale::Full ? 24 : 2;
        for (int k = 0; k < campaigns; ++k) {
            CampaignConfig cfg;
            cfg.candidates = p.scale == Scale::Full ? 128 : 24;
            cfg.chunk = 8;
            // A quarter of the CLI's default budget: the full-budget
            // reject probe of REF-bearing candidates dominates less.
            cfg.maxPeriods = 5000;
            cfg.seed = p.seed * static_cast<std::uint64_t>(campaigns) +
                       static_cast<std::uint64_t>(k);
            cfg.jobs = p.jobs;
            // The hand-built baseline is a fixed cost outside the
            // per-candidate pipeline this workload measures.
            cfg.baseline = false;
            cfg.minimizeTop = 1;
            cfgs_.push_back(cfg);
        }
        reference_.resize(cfgs_.size());
    }

    void
    setup() override
    {
        for (const CampaignConfig &cfg : cfgs_) {
            std::vector<pud::fuzz::Candidate> corpus;
            generate(cfg, corpus, nullptr);
            // One bench per execution chunk.
            const auto dcfg = pud::fuzz::campaignDeviceConfig(cfg);
            for (std::size_t i = 0; i < corpus.size(); i += cfg.chunk)
                const pud::bender::TestBench bench(dcfg);
        }
    }

    BatchResult
    run(LayerSheet *sheet) override
    {
        Spans spans;
        Tally tally;
        BatchResult out;
        Digest digest;
        for (std::size_t k = 0; k < cfgs_.size(); ++k) {
            const CampaignConfig &cfg = cfgs_[k];
            const auto start = Clock::now();
            const CampaignResult r =
                sheet != nullptr ? traced(cfg, spans, tally)
                                 : pud::fuzz::runCampaign(cfg);
            out.wallSeconds += secondsSince(start);
            out.units += cfg.candidates;
            out.failedUnits += check(cfg, r);

            // The untraced result is the reference for the traced
            // driver, candidate for candidate.
            if (sheet == nullptr) {
                reference_[k] = r.results;
            } else if (reference_[k].size() != r.results.size()) {
                out.failedUnits += cfg.candidates;
            } else {
                for (std::size_t i = 0; i < r.results.size(); ++i)
                    out.failedUnits +=
                        !sameResult(reference_[k][i], r.results[i]);
            }

            std::ostringstream os;
            pud::fuzz::writeCorpusJsonl(r, os);
            digest.str(os.str());
            digest.str(pud::fuzz::summarize(r));
        }
        out.failedUnits = std::min(out.failedUnits, out.units);
        out.digest = digest.value();

        if (sheet != nullptr) {
            LayerSheet &s = *sheet;
            addExecLayers(tally.chunkSeconds, tally.parallelWall, p_.jobs,
                          s);
            addSearchLayers(spans, s);
            s["hammer.probes_per_search"] =
                ratio(static_cast<double>(tally.probes),
                      static_cast<double>(tally.searches));
            s["dram.acts"] = static_cast<double>(tally.acts);
            s["dram.populated_rows_max"] =
                static_cast<double>(tally.populatedMax);
            s["lint.summarize_us.p50"] =
                1e6 * median(spans.durations("lint.summarize"));
            s["lint.predict_us.p50"] =
                1e6 * median(spans.durations("lint.predict"));
            s["lint.skip_ratio"] =
                ratio(static_cast<double>(tally.staticSkips),
                      static_cast<double>(tally.unique));
            s["fuzz.generate_s"] = spans.total("fuzz.generate");
            s["fuzz.minimize_s"] = spans.total("fuzz.minimize");
            s["fuzz.serial_share"] =
                ratio(s["fuzz.generate_s"], out.wallSeconds);
            s["fuzz.effective_ratio"] =
                ratio(static_cast<double>(tally.effective),
                      static_cast<double>(tally.unique));
        }
        return out;
    }

  private:
    /** runCampaign's serial generate + dedup phase. */
    static std::uint64_t
    generate(const CampaignConfig &cfg,
             std::vector<pud::fuzz::Candidate> &corpus,
             std::vector<CandidateResult> *results)
    {
        std::uint64_t dedup_hits = 0;
        std::unordered_set<std::uint64_t> seen;
        for (std::uint64_t i = 0; i < cfg.candidates; ++i) {
            pud::fuzz::Candidate c =
                pud::fuzz::generateCandidate(cfg.seed, i);
            const std::uint64_t h = pud::fuzz::shapeHash(c);
            if (!seen.insert(h).second) {
                ++dedup_hits;
                continue;
            }
            if (results != nullptr) {
                CandidateResult cr;
                cr.index = i;
                cr.hash = h;
                results->push_back(cr);
            }
            corpus.push_back(std::move(c));
        }
        return dedup_hits;
    }

    /** runCampaign, step by step, with spans around each call. */
    static CampaignResult
    traced(const CampaignConfig &cfg, Spans &spans, Tally &tally)
    {
        CampaignResult r;
        r.cfg = cfg;
        r.generated = cfg.candidates;
        {
            const Span span(&spans, "fuzz.generate");
            r.dedupHits = generate(cfg, r.corpus, &r.results);
        }

        const pud::dram::DeviceConfig dcfg =
            pud::fuzz::campaignDeviceConfig(cfg);
        const pud::dram::RowId victim =
            pud::fuzz::campaignVictim(cfg.rowsPerSubarray);
        const std::size_t chunks =
            (r.corpus.size() + cfg.chunk - 1) / cfg.chunk;
        std::vector<double> chunk_seconds(chunks, 0.0);
        std::vector<std::uint64_t> acts(chunks, 0), probes(chunks, 0),
            searches(chunks, 0), populated(chunks, 0);

        const auto wall_start = Clock::now();
        pud::exec::parallelFor(cfg.jobs, chunks, [&](std::size_t ci) {
            const auto chunk_start = Clock::now();
            pud::bender::TestBench bench(dcfg);
            bench.executor().setPreflight(false);
            const std::size_t end =
                std::min((ci + 1) * cfg.chunk, r.corpus.size());
            for (std::size_t i = ci * cfg.chunk; i < end; ++i) {
                CandidateResult &out = r.results[i];
                const pud::fuzz::BuiltPattern built =
                    spanned(&spans, "fuzz.build", [&] {
                        return pud::fuzz::buildPattern(r.corpus[i], 0,
                                                       victim, 1, dcfg);
                    });
                out.actsPerPeriod = built.actsPerPeriod;
                if (cfg.staticFilter) {
                    const pud::lint::ProgramEffects fx =
                        spanned(&spans, "lint.summarize", [&] {
                            return pud::lint::summarizeEffects(
                                built.program.withLoopCount(
                                    0, cfg.maxPeriods),
                                dcfg);
                        });
                    const pud::lint::EffectReport rep =
                        spanned(&spans, "lint.predict", [&] {
                            return pud::lint::predictEffects(fx, dcfg);
                        });
                    if (!rep.anyLikely) {
                        out.status = Status::StaticSkip;
                        continue;
                    }
                }
                const std::uint64_t hc =
                    spanned(&spans, "hammer.search", [&] {
                        return pud::fuzz::measureBuiltHc(
                            bench, built, victim, cfg.maxPeriods,
                            &probes[ci]);
                    });
                // measureBuiltHc resets the device first, so its
                // counters cover exactly this candidate.
                ++searches[ci];
                acts[ci] += bench.device().counters().acts;
                populated[ci] = std::max<std::uint64_t>(
                    populated[ci], bench.device().populatedRowCount());
                if (hc == kNoFlip) {
                    out.status = Status::NoFlip;
                    continue;
                }
                out.status = Status::Effective;
                out.hcPeriods = hc;
                out.hcActs = hc * built.actsPerPeriod;
            }
            chunk_seconds[ci] = secondsSince(chunk_start);
        });
        tally.parallelWall += secondsSince(wall_start);

        for (std::size_t i = 0; i < r.results.size(); ++i) {
            const CandidateResult &cr = r.results[i];
            r.staticSkips += cr.status == Status::StaticSkip;
            r.executed += cr.status != Status::StaticSkip;
            if (cr.status != Status::Effective)
                continue;
            ++r.effective;
            if (r.bestIdx == static_cast<std::size_t>(-1) ||
                cr.hcActs < r.results[r.bestIdx].hcActs)
                r.bestIdx = i;
        }

        if (cfg.minimizeTop > 0 && r.effective > 0) {
            const Span span(&spans, "fuzz.minimize");
            std::vector<std::size_t> order;
            for (std::size_t i = 0; i < r.results.size(); ++i)
                if (r.results[i].status == Status::Effective)
                    order.push_back(i);
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (r.results[a].hcActs != r.results[b].hcActs)
                              return r.results[a].hcActs <
                                     r.results[b].hcActs;
                          return a < b;
                      });
            const std::size_t top = std::min<std::size_t>(
                order.size(), static_cast<std::size_t>(cfg.minimizeTop));
            pud::bender::TestBench bench(dcfg);
            bench.executor().setPreflight(false);
            for (std::size_t k = 0; k < top; ++k)
                r.minimized.push_back(pud::fuzz::minimizePattern(
                    bench, dcfg, r.corpus[order[k]], victim,
                    cfg.maxPeriods, order[k]));
        }

        for (std::size_t ci = 0; ci < chunks; ++ci) {
            tally.chunkSeconds.push_back(chunk_seconds[ci]);
            tally.acts += acts[ci];
            tally.probes += probes[ci];
            tally.searches += searches[ci];
            tally.populatedMax = std::max(tally.populatedMax, populated[ci]);
        }
        tally.unique += r.corpus.size();
        tally.effective += r.effective;
        tally.staticSkips += r.staticSkips;
        return r;
    }

    /**
     * Campaign invariants: every candidate is either in the corpus or
     * a dedup hit, every HC is within budget and consistent with its
     * ACT cost, and the minimizer's replay equals the campaign's HC.
     */
    static std::uint64_t
    check(const CampaignConfig &cfg, const CampaignResult &r)
    {
        const std::uint64_t all = cfg.candidates;
        if (r.corpus.size() + r.dedupHits != all ||
            r.results.size() != r.corpus.size() ||
            r.minimized.size() != (r.effective > 0 ? 1u : 0u))
            return all;
        std::uint64_t failed = 0;
        for (const CandidateResult &cr : r.results) {
            const bool ok =
                cr.status == Status::Effective
                    ? cr.hcPeriods >= 1 && cr.hcPeriods <= cfg.maxPeriods &&
                          cr.hcActs == cr.hcPeriods * cr.actsPerPeriod
                    : cr.hcPeriods == kNoFlip && cr.hcActs == kNoFlip;
            failed += !ok;
        }
        for (const auto &m : r.minimized)
            if (m.corpusIdx >= r.results.size() ||
                m.originalActs != r.results[m.corpusIdx].hcActs)
                ++failed;
        return std::min(failed, all);
    }

    WorkloadParams p_;
    std::vector<CampaignConfig> cfgs_;
    std::vector<std::vector<CandidateResult>> reference_;
};

} // namespace

std::unique_ptr<Workload>
makeFuzz(const WorkloadParams &p)
{
    return std::make_unique<Fuzz>(p);
}

} // namespace pudbench
