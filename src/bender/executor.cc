#include "bender/executor.h"

#include <algorithm>
#include <chrono>

#include "lint/linter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pud::bender {

namespace {

/** Cap on up-front ExecResult::reads reservation (entries). */
constexpr std::uint64_t kReadReserveCap = 1ULL << 20;

/** Plan-cache entries kept before the cache is dropped wholesale. */
constexpr std::size_t kPlanCacheCap = 64;

} // namespace

void
Executor::execOne(const Program &program, const Inst &inst, Time &cursor,
                  ExecResult &result)
{
    cursor += inst.gap;
    switch (inst.op) {
      case Op::Act:
        device_->act(cursor, inst.bank, inst.row);
        break;
      case Op::Pre:
        device_->pre(cursor, inst.bank);
        break;
      case Op::PreAll:
        device_->preAll(cursor);
        break;
      case Op::Rd:
        result.reads.push_back(device_->rd(cursor, inst.bank));
        break;
      case Op::Wr:
        if (inst.dataIndex < 0 ||
            inst.dataIndex >=
                static_cast<int>(program.dataTable().size())) {
            fatal("Executor: Wr with invalid data index %d",
                  inst.dataIndex);
        }
        device_->wr(cursor, inst.bank,
                    program.dataTable()[inst.dataIndex]);
        break;
      case Op::Ref:
        device_->ref(cursor);
        break;
      case Op::Nop:
        break;
      case Op::LoopBegin:
      case Op::LoopEnd:
        panic("Executor: loop marker reached execOne");
    }
}

void
Executor::execLoop(const Program &program, const ExecPlan &plan,
                   const RunCosts &costs, std::size_t loop_index,
                   std::uint64_t n, Time &cursor, ExecResult &result)
{
    const PlanLoop &loop = plan.loops()[loop_index];
    const std::size_t body_begin = loop.begin + 1;
    const std::size_t body_end = loop.end;

    auto body = [&] {
        execRange(program, plan, costs, body_begin, body_end, cursor,
                  result);
    };

    // Recording an outer loop runs its body fully naively once, so it
    // only pays off when that beats letting the inner loops fast-path
    // across (n - 2) live iterations.  For flat bodies the inequality
    // is trivially true.
    const bool eligible =
        fastPath_ && !recording_ && loop.cls != BodyClass::Naive &&
        n >= kFastPathThreshold &&
        costs.naiveCost[loop_index] <=
            satMul(costs.fastCost[loop_index], n - 2);

    if (!eligible) {
        // Only a loop that *could* have fast-pathed is an interesting
        // fallback; short trips inside naive bodies are just noise.
        if (fastPath_ && !recording_ && n >= kFastPathThreshold) {
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId(
                        "executor.naive_fallbacks");
                obs::metrics().add(c);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event(
                    "naive_fallback",
                    {{"loop", loop_index},
                     {"trip", n},
                     {"reason", loop.cls == BodyClass::Naive
                                    ? "body-class"
                                    : "cost-model"}});
        }
        for (std::uint64_t it = 0; it < n; ++it)
            body();
        return;
    }

    std::uint64_t it = 0;
    int strikes = 0;
    const Time duration = costs.duration[loop_index];

    // A flat REF-bearing body keeps its record across phase breaks: a
    // break's refresh resets loop-damaged rows but leaves the steady
    // state intact, so the record applies again once the rows are back
    // in their recorded data and side state.  (Nested warm-ups fast-path
    // their inner loops, so their floats differ from a recording.)
    const bool reusable_body =
        loop.cls == BodyClass::Recorded && loop.children.empty();
    dram::Device::LoopRecord rec;
    Time last_live = cursor;  //!< start of the latest live iteration

    // Each chunk: two warm-up iterations reach steady state (CoMRA
    // copies settle, side-alternation state stabilizes), one recorded
    // iteration captures the periodic deltas, then the remainder
    // replays arithmetically.  A REF-free body replays to completion
    // in one chunk; a REF-bearing body replays until a refresh is
    // about to land on a loop-damaged row (phase break), executes that
    // iteration live, and either reuses the record -- live warm-ups
    // only until the tracked rows match it, the rest of the chunk's
    // three iterations applied from it -- or re-records.  A hooked
    // body has no arithmetic replay: its steady record is reused close
    // by close for the whole remaining trip count, and breaks only
    // where its damage guards fail.  A body whose refreshes keep
    // colliding with its own rows never settles -- after two fruitless
    // chunks we stop re-recording and finish naively.
    while (n - it >= kFastPathThreshold && strikes < 2) {
        const Time chunk_start = cursor;
        std::uint64_t warmups = 0;
        std::uint64_t reused = 0;
        for (;;) {
            // A steady record follows the phase break that ended its
            // replay.
            if (rec.steady) {
                reused = device_->reuseLoopRecord(rec, 3 - warmups,
                                                  last_live, duration);
                if (reused > 0)
                    break;
            }
            if (warmups == 2)
                break;
            last_live = cursor;
            body();
            ++warmups;
        }
        it += warmups;

        if (reused > 0) {
            cursor += static_cast<Time>(reused) * duration;
            it += reused;
            ++stats_.recordReuses;
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId("executor.record_reuses");
                obs::metrics().add(c);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event("fastpath_reuse",
                                   {{"loop", loop_index},
                                    {"it", it},
                                    {"live_warmups", warmups}});
        } else {
            rec = {};  // free the old record before a new one grows
            device_->beginLoopRecording(reusable_body);
            recording_ = true;
            last_live = cursor;
            body();
            recording_ = false;
            rec = device_->endLoopRecording();
            ++it;
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event("fastpath_record",
                                   {{"loop", loop_index},
                                    {"it", it},
                                    {"quiescent", rec.quiescent}});
        }

        std::uint64_t replayed = 0;
        if (rec.quiescent) {
            replayed = device_->replayLoopIterations(rec, n - it);
            device_->shiftLoopTimestamps(
                chunk_start, static_cast<Time>(replayed) * duration);
        } else if (rec.steady) {
            replayed = device_->reuseLoopRecord(rec, n - it, last_live,
                                                duration);
        } else {
            ++strikes;
            continue;
        }
        if (replayed > 0) {
            cursor += static_cast<Time>(replayed) * duration;
            it += replayed;
            result.fastPathIterations += replayed;
            stats_.fastPathIterations += replayed;
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId(
                        "executor.fastpath_iterations");
                obs::metrics().add(c, replayed);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event("fastpath_replay",
                                   {{"loop", loop_index},
                                    {"replayed", replayed},
                                    {"remaining", n - it}});
        }
        if (it >= n)
            return;

        // Phase break: run the refresh-colliding iteration live, then
        // try another chunk if enough trip count remains.
        ++stats_.phaseBreaks;
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.phase_breaks");
            obs::metrics().add(c);
        }
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "phase_break",
                {{"loop", loop_index}, {"it", it}});
        last_live = cursor;
        body();
        ++it;
        strikes = replayed >= kFastPathThreshold ? 0 : strikes + 1;
    }

    if (it < n && strikes >= 2) {
        // Counted apart from executor.naive_fallbacks (loops that were
        // never eligible): this loop tried to record and gave up.
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.strike_fallbacks");
            obs::metrics().add(c);
        }
        if (obs::traceOn()) [[unlikely]]
            obs::trace().event("naive_fallback",
                               {{"loop", loop_index},
                                {"trip", n - it},
                                {"reason", "strikes"}});
    }
    while (it < n) {
        body();
        ++it;
    }
}

std::size_t
Executor::execRange(const Program &program, const ExecPlan &plan,
                    const RunCosts &costs, std::size_t begin,
                    std::size_t end, Time &cursor, ExecResult &result)
{
    const auto &insts = program.insts();
    std::size_t i = begin;
    while (i < end) {
        const Inst &inst = insts[i];
        if (inst.op == Op::LoopEnd) {
            panic("Executor: stray LoopEnd at %zu", i);
        } else if (inst.op == Op::LoopBegin) {
            const std::int32_t li = plan.loopAt(i);
            execLoop(program, plan, costs, static_cast<std::size_t>(li),
                     inst.count, cursor, result);
            i = plan.loops()[li].end + 1;
        } else {
            execOne(program, inst, cursor, result);
            ++i;
        }
    }
    return i;
}

void
Executor::preflightCheck(const Program &program)
{
    // Refuse programs the device would fatal on, with a pointer at the
    // bad instruction.  Warnings (deliberately violated timings that
    // match no PuD idiom) are the caller's business -- see
    // lint::lintProgram.
    lint::LintOptions opts;
    opts.effects = preflightEffects_;
    opts.dataflow = preflightDataflow_;
    opts.mitigations = preflightMitigations_;
    const lint::LintResult pre = lint::requireClean(
        program, device_->config(), "Executor", opts);
    if (preflightEffects_ || preflightDataflow_ ||
        preflightMitigations_.any()) {
        for (const lint::Diag &d : pre.diags) {
            const bool surfaced =
                (preflightEffects_ &&
                 d.code == lint::Code::DisturbanceImpossible) ||
                (preflightDataflow_ &&
                 d.severity == lint::Severity::Warning &&
                 lint::isDataflowCode(d.code)) ||
                (preflightMitigations_.any() &&
                 d.severity == lint::Severity::Warning &&
                 lint::isMitigationCode(d.code));
            if (surfaced)
                warn("Executor pre-flight: [%s] %s", lint::name(d.code),
                     d.message.c_str());
        }
    }
}

const ExecPlan &
Executor::planFor(const Program &program)
{
    const std::uint64_t hash = shapeHashOf(program);
    auto &bucket = planCache_[hash];
    for (CachedPlan &entry : bucket) {
        if (entry.plan->matchesShape(program)) {
            ++stats_.planCacheHits;
            if (obs::metricsOn()) [[unlikely]] {
                static const obs::CounterId c =
                    obs::metrics().counterId(
                        "executor.plan_cache_hits");
                obs::metrics().add(c);
            }
            if (obs::traceOn()) [[unlikely]]
                obs::trace().event("plan_cache_hit",
                                   {{"hash", hash}});
            if (preflight_ && !entry.linted) {
                preflightCheck(program);
                entry.linted = true;
            }
            return *entry.plan;
        }
    }

    ++stats_.planCacheMisses;
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c =
            obs::metrics().counterId("executor.plan_cache_misses");
        obs::metrics().add(c);
    }
    if (planCache_.size() > kPlanCacheCap)
        planCache_.clear();

    auto plan = std::make_shared<const ExecPlan>(
        ExecPlan::compile(program));
    if (obs::traceOn()) [[unlikely]]
        obs::trace().event(
            "plan_compile",
            {{"hash", hash},
             {"insts", program.insts().size()},
             {"loops", plan->loops().size()}});
    if (preflight_)
        preflightCheck(program);
    auto &fresh = planCache_[hash];
    fresh.push_back(CachedPlan{plan, preflight_});
    return *fresh.back().plan;
}

ExecResult
Executor::run(const Program &program)
{
    if (!program.balanced())
        fatal("Executor: program has unbalanced loops");

    const bool tracing = obs::traceOn();
    std::chrono::steady_clock::time_point wall_start;
    if (tracing) [[unlikely]] {
        wall_start = std::chrono::steady_clock::now();
        obs::trace().event("program_start",
                           {{"insts", program.insts().size()}});
    }

    const ExecPlan &plan = planFor(program);
    const RunCosts costs = RunCosts::compute(plan, program);

    ExecResult result;
    result.reads.reserve(static_cast<std::size_t>(
        std::min(costs.totalRds, kReadReserveCap)));
    // Leave a bus-turnaround gap after whatever ran before.
    Time cursor = device_->now() + units::fromNs(100);
    result.startTime = cursor;
    execRange(program, plan, costs, 0, program.insts().size(), cursor,
              result);
    device_->flush();
    result.endTime = cursor;

    if (obs::metricsOn()) [[unlikely]] {
        // Device time and read/iteration counts are functions of the
        // program alone -- safe for the deterministic metrics output.
        static const obs::CounterId c_runs =
            obs::metrics().counterId("executor.programs");
        static const obs::HistId h_ns =
            obs::metrics().histId("executor.program_device_ns");
        static const obs::HistId h_reads =
            obs::metrics().histId("executor.program_reads");
        obs::metrics().add(c_runs);
        obs::metrics().observe(
            h_ns, static_cast<std::uint64_t>(units::toNs(
                      result.endTime - result.startTime)));
        obs::metrics().observe(h_reads, result.reads.size());
    }
    if (tracing) [[unlikely]] {
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        obs::trace().event(
            "program_end",
            {{"device_ns",
              static_cast<std::int64_t>(
                  units::toNs(result.endTime - result.startTime))},
             {"wall_s", wall_s},
             {"reads", result.reads.size()},
             {"fastpath_iters", result.fastPathIterations}});
    }
    return result;
}

} // namespace pud::bender
