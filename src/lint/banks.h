/**
 * @file
 * The per-bank open / pending-close machine shared by the absint and
 * dataflow passes.
 *
 * Both passes mirror Device::act/pre: a PRE leaves the closed rows
 * *pending* until the bank's next ACT, whose timing decides what the
 * close was (semantics::classifyReopen): the first half of a CoMRA
 * copy, the first ACT of a SiMRA group activation, a SiMRA-grade pair
 * the chip ignores, or a conventional close.  BankMachine owns the
 * banks' state, classifies each reopen once (a SiMRA group's decoder
 * set is built by the classification itself) and tells the pass what
 * happened through four hooks, called as templates like walkProgram's:
 *
 *  - `opened(b, phys, i)`: ACT `i` opened `phys` -- a normal open, a
 *    CoMRA destination or a SiMRA group's second ACT, exactly the ACTs
 *    the device pushes into its TRR sampler;
 *  - `copied(b, src, dst, i)`: ACT `i` completed a CoMRA copy;
 *  - `merged(b, group, i)`: ACT `i` opened a SiMRA group (the sorted
 *    decoder set; the bank's ACT->PRE / PRE->ACT gaps are recorded in
 *    its Bank);
 *  - `closed(b, bank, cls, t_on)`: `bank.rows` closed as technique
 *    class `cls` after `t_on` of on-time.
 *
 * A close is reported once its class is known.  A CoMRA destination or
 * SiMRA group close is reported at its PRE: it can never reclassify (a
 * group pending is multi-row, and a re-copying destination is still
 * one Comra close).  A normal open's close waits for the next ACT
 * (reported Comra when it turns out to be a copy source, dropped when
 * it is a SiMRA group's first half), a REF or the end of the program.
 */

#ifndef PUD_LINT_BANKS_H
#define PUD_LINT_BANKS_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bender/program.h"
#include "dram/config.h"
#include "dram/mapping.h"
#include "dram/types.h"
#include "lint/walk.h"
#include "pud/semantics.h"

namespace pud::lint {

/** One bank of the machine. */
struct Bank
{
    enum class State : std::uint8_t { Idle, Open, Pending };

    State state = State::Idle;
    std::vector<dram::RowId> rows;  //!< open or pending; > 1 for SiMRA
    dram::OpenKind kind = dram::OpenKind::Normal;
    Time openedAt = 0;
    Time closedAt = 0;  //!< PRE time of a pending close
    Time tOn = 0;       //!< on-time of a pending close
    Time comraDelay = 0;  //!< PRE->ACT gap of a ComraDst open
    Time simraActToPre = 0, simraPreToAct = 0;  //!< of a Simra open
};

/** Per-bank open/pending machine (see the file comment for hooks). */
class BankMachine
{
  public:
    explicit BankMachine(const dram::DeviceConfig &cfg)
        : timings_(cfg.timings),
          mapping_(cfg.profile.mapping),
          geom_(semantics::geometryOf(cfg)),
          banks_(cfg.banks)
    {}

    const semantics::Geometry &geometry() const { return geom_; }
    const std::vector<Bank> &banks() const { return banks_; }

    /** Issue time of the last instruction stepped (saturating). */
    Time now() const { return now_; }

    /**
     * Advance the clock by one instruction's issue gap and apply its
     * bank effects: ACT, PRE and PREA open and close rows, a REF
     * resolves every pending close as conventional.
     */
    template <typename Pass>
    void
    step(std::size_t i, const bender::Inst &inst, Pass &pass)
    {
        now_ = satAddT(now_, std::max<Time>(inst.gap, 0));
        switch (inst.op) {
          case bender::Op::Act:
            act(i, inst, pass);
            break;
          case bender::Op::Pre:
            if (inst.bank < banks_.size())
                pre(inst.bank, pass);
            break;
          case bender::Op::PreAll:
            for (dram::BankId b = 0; b < banks_.size(); ++b)
                pre(b, pass);
            break;
          case bender::Op::Ref:
            for (dram::BankId b = 0; b < banks_.size(); ++b)
                settle(b, pass);
            break;
          default:
            break;
        }
    }

    /**
     * End of program: a row still open will disturb its neighbours
     * whenever it is eventually closed, so its close is reported now;
     * pending closes resolve as conventional.
     */
    template <typename Pass>
    void
    finish(Pass &pass)
    {
        for (dram::BankId b = 0; b < banks_.size(); ++b) {
            Bank &bank = banks_[b];
            if (bank.state == Bank::State::Open) {
                bank.state = Bank::State::Idle;
                pass.closed(b, bank, classOf(bank.kind),
                            now_ - bank.openedAt);
            } else {
                settle(b, pass);
            }
        }
    }

    /**
     * Skip `delta` of wall-clock time spent in loop iterations that
     * were not walked: every bank timestamp at or after `from` and the
     * clock move forward by `delta`.
     */
    void
    skip(Time from, Time delta)
    {
        if (delta <= 0)
            return;
        for (Bank &bank : banks_) {
            if (bank.openedAt >= from)
                bank.openedAt = satAddT(bank.openedAt, delta);
            if (bank.closedAt >= from)
                bank.closedAt = satAddT(bank.closedAt, delta);
        }
        now_ = satAddT(now_, delta);
    }

    /**
     * Same time-free state as `before` (a copy of banks()): every bank
     * idle, open or pending alike, on the same rows.  This is what a
     * loop fixpoint compares; timestamps and kinds do not feed back
     * into any row state.
     */
    bool
    sameRows(const std::vector<Bank> &before) const
    {
        for (std::size_t b = 0; b < banks_.size(); ++b) {
            if (before[b].state != banks_[b].state)
                return false;
            if (banks_[b].state != Bank::State::Idle &&
                before[b].rows != banks_[b].rows)
                return false;
        }
        return true;
    }

  private:
    static dram::TechClass
    classOf(dram::OpenKind kind)
    {
        switch (kind) {
          case dram::OpenKind::ComraDst:
            return dram::TechClass::Comra;
          case dram::OpenKind::Simra:
            return dram::TechClass::Simra;
          case dram::OpenKind::Normal:
            break;
        }
        return dram::TechClass::Conventional;
    }

    void
    open(Bank &bank, dram::RowId phys, dram::OpenKind kind)
    {
        bank.state = Bank::State::Open;
        bank.rows.assign(1, phys);
        bank.kind = kind;
        bank.openedAt = now_;
    }

    /** Resolve a pending close as conventional (if not yet counted). */
    template <typename Pass>
    void
    settle(dram::BankId b, Pass &pass)
    {
        Bank &bank = banks_[b];
        if (bank.state != Bank::State::Pending)
            return;
        bank.state = Bank::State::Idle;
        if (bank.kind == dram::OpenKind::Normal)
            pass.closed(b, bank, dram::TechClass::Conventional, bank.tOn);
    }

    template <typename Pass>
    void
    act(std::size_t i, const bender::Inst &inst, Pass &pass)
    {
        if (inst.bank >= banks_.size() || inst.row >= geom_.rowsPerBank)
            return;  // protocol errors are the linter's business
        Bank &bank = banks_[inst.bank];
        if (bank.state == Bank::State::Open)
            return;  // ACT-while-open fatals at execution time
        const dram::RowId phys = mapping_.toPhysical(inst.row);

        if (bank.state == Bank::State::Pending) {
            const Time gap = now_ - bank.closedAt;
            std::vector<dram::RowId> group;
            const semantics::ReopenClass cls =
                bank.rows.size() == 1
                    ? semantics::classifyReopen(timings_, geom_,
                                                bank.rows.front(), phys,
                                                bank.tOn, gap, &group)
                    : semantics::ReopenClass::Conventional;
            switch (cls) {
              case semantics::ReopenClass::SimraIgnored:
                // The chip ignores both commands: the pending rows
                // stay open with their original activation time.
                bank.state = Bank::State::Open;
                return;
              case semantics::ReopenClass::SimraGroup:
                // The PRE blip is part of the group activation, not a
                // close.
                bank.state = Bank::State::Open;
                bank.rows = std::move(group);
                bank.kind = dram::OpenKind::Simra;
                bank.openedAt = now_;
                bank.simraActToPre = bank.tOn;
                bank.simraPreToAct = gap;
                pass.merged(inst.bank, bank.rows, i);
                pass.opened(inst.bank, phys, i);
                return;
              case semantics::ReopenClass::ComraCopy: {
                // An uncounted source close is the copy cycle's first
                // half.
                bank.comraDelay = gap;
                if (bank.kind == dram::OpenKind::Normal)
                    pass.closed(inst.bank, bank, dram::TechClass::Comra,
                                bank.tOn);
                const dram::RowId src = bank.rows.front();
                open(bank, phys, dram::OpenKind::ComraDst);
                pass.copied(inst.bank, src, phys, i);
                pass.opened(inst.bank, phys, i);
                return;
              }
              case semantics::ReopenClass::Conventional:
                settle(inst.bank, pass);
                break;
            }
        }

        open(bank, phys, dram::OpenKind::Normal);
        pass.opened(inst.bank, phys, i);
    }

    template <typename Pass>
    void
    pre(dram::BankId b, Pass &pass)
    {
        Bank &bank = banks_[b];
        if (bank.state != Bank::State::Open)
            return;
        bank.state = Bank::State::Pending;
        bank.tOn = now_ - bank.openedAt;
        bank.closedAt = now_;
        if (bank.kind != dram::OpenKind::Normal)
            pass.closed(b, bank, classOf(bank.kind), bank.tOn);
    }

    const dram::TimingParams &timings_;
    dram::RowMapping mapping_;
    semantics::Geometry geom_;
    std::vector<Bank> banks_;
    Time now_ = 0;
};

} // namespace pud::lint

#endif // PUD_LINT_BANKS_H
