#include "lint/absint.h"

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "bender/plan.h"
#include "dram/device.h"
#include "lint/banks.h"

namespace pud::lint {

namespace {

using bender::Inst;
using bender::Op;
using bender::Program;
using bender::satAdd;
using bender::satMul;
using dram::BankId;
using dram::RowId;
using dram::TechClass;

/**
 * The abstract walk: close accounting on top of the shared bank
 * machine (lint/banks.h), with loop bodies walked at most twice and
 * the remaining iterations replayed arithmetically.
 */
class AbsWalker
{
  public:
    AbsWalker(const Program &program, const dram::DeviceConfig &cfg,
              ProgramEffects &out, SamplerTrace *trace)
        : program_(program),
          out_(out),
          trace_(trace),
          banks_(cfg)
    {
        if (trace_ != nullptr) {
            trace_->window = dram::Device::kTrrWindow;
            trace_->refs.clear();
            trace_->pushes.assign(cfg.banks, 0);
            trace_->truncated = false;
            rings_.resize(cfg.banks);
            pushLogs_.resize(cfg.banks);
            taint_.resize(cfg.banks);
        }
    }

    void
    run()
    {
        walkProgram(program_, *this);
        banks_.finish(*this);
        // The trailing (REF-less) stretch is an epoch too.
        foldEpochs();
        out_.duration = banks_.now();
        out_.lastRefAt = lastRefAt_;
    }

    // ---- walk hooks (lint/walk.h) -----------------------------------------

    /**
     * A warm-up pass, a steady-state pass that observes the back-edge
     * gaps, and the remaining (count - 2) iterations in closed form.
     */
    template <typename Body>
    void
    loop(std::size_t, std::size_t, std::uint64_t count, const Body &body)
    {
        ++out_.steps;
        if (count == 0)
            return;
        body();  // warm-up pass
        if (count < 2)
            return;
        const Snapshot snap{out_.totalActs, out_.totalRefs, out_.rows};
        const Time loop_start = banks_.now();
        std::size_t refs_mark = 0;
        std::vector<std::size_t> push_marks;
        if (trace_ != nullptr) {
            refs_mark = trace_->refs.size();
            push_marks.reserve(pushLogs_.size());
            for (const auto &log : pushLogs_)
                push_marks.push_back(log.size());
        }
        body();  // steady-state pass
        if (count > 2) {
            if (trace_ != nullptr)
                replaySamplerTail(refs_mark, push_marks, count - 2);
            replayTail(snap, loop_start, count - 2);
        }
    }

    /** The tail is analyzed once: counts become a lower bound. */
    template <typename Body>
    void
    unbalanced(std::size_t, const Body &rest)
    {
        ++out_.steps;
        out_.exact = false;
        rest();
    }

  private:
    /** Additive state captured before a steady-state pass. */
    struct Snapshot
    {
        std::uint64_t totalActs, totalRefs;
        std::map<std::uint64_t, RowActivity> rows;
    };

    RowActivity &
    rowOf(BankId b, RowId phys)
    {
        return out_.rows[rowKey(b, phys)];
    }

    /**
     * Account for the (reps) iterations beyond the two walked passes:
     * additive fields grow by (reps) times the steady-state delta,
     * min/max fields are already fixed points, and every live
     * timestamp shifts forward by the skipped wall-clock time.
     */
    void
    replayTail(const Snapshot &snap, Time loop_start, std::uint64_t reps)
    {
        const Time body = banks_.now() - loop_start;
        const std::uint64_t body_refs =
            out_.totalRefs - snap.totalRefs;

        out_.totalActs = satAdd(
            out_.totalActs,
            satMul(out_.totalActs - snap.totalActs, reps));
        out_.totalRefs =
            satAdd(out_.totalRefs, satMul(body_refs, reps));

        static const RowActivity kZero{};
        for (auto &[key, cur] : out_.rows) {
            const auto it = snap.rows.find(key);
            const RowActivity &old =
                it == snap.rows.end() ? kZero : it->second;
            cur.acts = satAdd(cur.acts,
                              satMul(cur.acts - old.acts, reps));
            for (int c = 0; c < 3; ++c) {
                cur.closes[c] = satAdd(
                    cur.closes[c],
                    satMul(cur.closes[c] - old.closes[c], reps));
                cur.onTime[c] = satAddT(
                    cur.onTime[c],
                    satMulT(cur.onTime[c] - old.onTime[c], reps));
                // Epoch counts: a body with REFs resets the epoch
                // every iteration, so the steady-state value is the
                // periodic fixed point; a REF-free body's epoch keeps
                // growing and scales like any additive count.  The
                // per-epoch maxima are fixed points either way (they
                // fold at the next REF or at finish()).
                if (body_refs == 0) {
                    cur.epochCloses[c] = satAdd(
                        cur.epochCloses[c],
                        satMul(cur.epochCloses[c] -
                                   old.epochCloses[c],
                               reps));
                }
            }
            cur.comraDelaySum = satAddT(
                cur.comraDelaySum,
                satMulT(cur.comraDelaySum - old.comraDelaySum, reps));
            cur.simraActToPreSum = satAddT(
                cur.simraActToPreSum,
                satMulT(cur.simraActToPreSum - old.simraActToPreSum,
                        reps));
            cur.simraPreToActSum = satAddT(
                cur.simraPreToActSum,
                satMulT(cur.simraPreToActSum - old.simraPreToActSum,
                        reps));
        }

        const Time skipped = satMulT(body, reps);
        shiftTimes(loop_start, skipped);
        banks_.skip(loop_start, skipped);
    }

    /**
     * Sampler-trace accounting for the (reps) tail iterations.
     *
     * Soundness: at any tail iteration, the real ring window holds
     * only (a) pushes made by body iterations -- all of which are
     * rows the steady pass pushed (set B) -- and (b) older pre-loop
     * pushes, which can only *age out* relative to the window the
     * steady pass observed.  So every tail REF's window rows are
     * within (steady window  union  B): each steady-pass ref point is
     * duplicated with that union as its (inexact) row set and
     * multiplicity = reps.  Downstream of the loop the live ring no
     * longer matches the real one (it missed the tail pushes), but
     * the real window can only contain live-ring rows plus B; B is
     * added to the bank's taint set, which widens every later ref
     * point the same way.  fillLo stays valid throughout: the real
     * device saw at least as many pushes as the walked passes.
     */
    void
    replaySamplerTail(std::size_t refs_mark,
                      const std::vector<std::size_t> &push_marks,
                      std::uint64_t reps)
    {
        // Per-bank rows pushed by one body iteration (observed on the
        // steady pass).
        std::vector<std::set<RowId>> body_rows(pushLogs_.size());
        for (std::size_t b = 0; b < pushLogs_.size(); ++b) {
            body_rows[b].insert(pushLogs_[b].begin() +
                                    static_cast<std::ptrdiff_t>(
                                        push_marks[b]),
                                pushLogs_[b].end());
        }

        const std::size_t refs_end = trace_->refs.size();
        for (std::size_t k = refs_mark; k < refs_end; ++k) {
            if (trace_->refs.size() >= kMaxSamplerRefPoints) {
                trace_->truncated = true;
                break;
            }
            SamplerRefPoint rp = trace_->refs[k];
            rp.multiplicity = reps;
            rp.exact = false;
            for (RowId r : body_rows[rp.bank])
                rp.window.emplace(r, 0);
            trace_->refs.push_back(std::move(rp));
        }

        for (std::size_t b = 0; b < taint_.size(); ++b) {
            taint_[b].insert(body_rows[b].begin(), body_rows[b].end());
            trace_->pushes[b] = satAdd(
                trace_->pushes[b],
                satMul(pushLogs_[b].size() - push_marks[b], reps));
        }
    }

    /** Shift the pass's timestamps set during the steady-state pass. */
    void
    shiftTimes(Time from, Time delta)
    {
        if (delta <= 0)
            return;
        auto shift = [&](Time &t) {
            if (t >= from)
                t = satAddT(t, delta);
        };
        for (auto &[key, t] : lastActAt_)
            shift(t);
        if (lastRefAt_ >= 0)
            shift(lastRefAt_);
    }

    /**
     * Mirror of Device::trrRecord: the bank machine's `opened` hook
     * fires at exactly the sites the device pushes into the TRR
     * sampler ring, so the trace ring tracks the real sampler
     * push-for-push on walked passes.
     */
    void
    samplerPush(BankId b, RowId phys)
    {
        auto &ring = rings_[b];
        ring.push_back(phys);
        if (ring.size() > dram::Device::kTrrWindow)
            ring.pop_front();
        pushLogs_[b].push_back(phys);
        trace_->pushes[b] = satAdd(trace_->pushes[b], 1);
    }

  public:
    void
    step(std::size_t i)
    {
        ++out_.steps;
        const Inst &inst = program_.insts()[i];
        banks_.step(i, inst, *this);
        if (inst.op != Op::Ref)
            return;
        const Time now = banks_.now();
        out_.totalRefs = satAdd(out_.totalRefs, 1);
        if (lastRefAt_ >= 0) {
            const Time gap = now - lastRefAt_;
            if (gap > out_.maxRefGap) {
                out_.maxRefGap = gap;
                out_.maxRefGapIndex = i;
            }
        }
        if (out_.firstRefAt < 0)
            out_.firstRefAt = now;
        lastRefAt_ = now;
        // The machine flushed the pending closes, which belong to the
        // epoch this REF ends; fold it now and open the next one.
        foldEpochs();
        if (trace_ != nullptr)
            recordRefPoints(i);
    }

    // ---- bank machine hooks (lint/banks.h) --------------------------------

    void
    opened(BankId b, RowId phys, std::size_t i)
    {
        RowActivity &ra = rowOf(b, phys);
        if (ra.acts == 0)
            ra.firstActIndex = i;
        ra.acts = satAdd(ra.acts, 1);
        out_.totalActs = satAdd(out_.totalActs, 1);
        if (trace_ != nullptr)
            samplerPush(b, phys);

        const Time now = banks_.now();
        const std::uint64_t key = rowKey(b, phys);
        const auto it = lastActAt_.find(key);
        if (it != lastActAt_.end()) {
            const Time gap = now - it->second;
            if (ra.minInterAct == 0 || gap < ra.minInterAct)
                ra.minInterAct = gap;
            ra.maxInterAct = std::max(ra.maxInterAct, gap);
            it->second = now;
        } else {
            lastActAt_[key] = now;
        }
    }

    void copied(BankId, RowId, RowId, std::size_t) {}
    void merged(BankId, const std::vector<RowId> &, std::size_t) {}

    /** `bank.rows` closed; every row takes the close. */
    void
    closed(BankId b, const Bank &bank, TechClass cls, Time t_on)
    {
        const int c = static_cast<int>(cls);
        const Time on = std::max<Time>(t_on, 0);
        for (RowId r : bank.rows) {
            RowActivity &ra = rowOf(b, r);
            ra.closes[c] = satAdd(ra.closes[c], 1);
            ra.epochCloses[c] = satAdd(ra.epochCloses[c], 1);
            ra.onTime[c] = satAddT(ra.onTime[c], on);
            ra.maxOnTime[c] = std::max(ra.maxOnTime[c], on);
            switch (cls) {
              case TechClass::Comra:
                ra.comraDelaySum =
                    satAddT(ra.comraDelaySum, bank.comraDelay);
                if (ra.minComraDelay < 0 ||
                    bank.comraDelay < ra.minComraDelay)
                    ra.minComraDelay = bank.comraDelay;
                break;
              case TechClass::Simra:
                ra.simraActToPreSum =
                    satAddT(ra.simraActToPreSum, bank.simraActToPre);
                ra.simraPreToActSum =
                    satAddT(ra.simraPreToActSum, bank.simraPreToAct);
                ra.maxSimraActToPre =
                    std::max(ra.maxSimraActToPre, bank.simraActToPre);
                ra.maxSimraPreToAct =
                    std::max(ra.maxSimraPreToAct, bank.simraPreToAct);
                ra.simraN = std::max(
                    ra.simraN, static_cast<int>(bank.rows.size()));
                break;
              case TechClass::Conventional:
                break;
            }
        }
    }

  private:
    /** Close the current refresh epoch on every row. */
    void
    foldEpochs()
    {
        for (auto &[key, ra] : out_.rows) {
            for (int c = 0; c < 3; ++c) {
                ra.maxEpochCloses[c] = std::max(ra.maxEpochCloses[c],
                                                ra.epochCloses[c]);
                ra.epochCloses[c] = 0;
            }
        }
    }

    /** Snapshot every bank's abstract sampler window at a REF. */
    void
    recordRefPoints(std::size_t i)
    {
        for (BankId b = 0; b < rings_.size(); ++b) {
            if (trace_->refs.size() >= kMaxSamplerRefPoints) {
                trace_->truncated = true;
                return;
            }
            SamplerRefPoint rp;
            rp.instIndex = i;
            rp.bank = b;
            rp.fillLo = rings_[b].size();
            rp.exact = taint_[b].empty();
            for (RowId r : rings_[b])
                ++rp.window[r];
            for (RowId r : taint_[b])
                rp.window.emplace(r, 0);
            trace_->refs.push_back(std::move(rp));
        }
    }

    const Program &program_;
    ProgramEffects &out_;
    SamplerTrace *trace_;
    BankMachine banks_;
    std::map<std::uint64_t, Time> lastActAt_;
    Time lastRefAt_ = -1;

    // Sampler trace state (only sized when trace_ != nullptr).
    std::vector<std::deque<RowId>> rings_;
    std::vector<std::vector<RowId>> pushLogs_;
    std::vector<std::set<RowId>> taint_;
};

} // namespace

const RowActivity *
findRow(const ProgramEffects &fx, dram::BankId bank, dram::RowId phys)
{
    const auto it = fx.rows.find(rowKey(bank, phys));
    return it == fx.rows.end() ? nullptr : &it->second;
}

ProgramEffects
summarizeEffects(const bender::Program &program,
                 const dram::DeviceConfig &cfg, SamplerTrace *trace)
{
    ProgramEffects fx;
    AbsWalker(program, cfg, fx, trace).run();
    return fx;
}

ProgramEffects
summarizeEffects(const bender::Program &program,
                 const dram::DeviceConfig &cfg)
{
    return summarizeEffects(program, cfg, nullptr);
}

} // namespace pud::lint
