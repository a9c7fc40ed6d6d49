#include "lint/dataflow.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "lint/banks.h"
#include "lint/effects.h"

namespace pud::lint {

const char *
name(RowStateKind kind)
{
    switch (kind) {
      case RowStateKind::Initial:      return "initial";
      case RowStateKind::Written:      return "written";
      case RowStateKind::CopyOf:       return "copy-of";
      case RowStateKind::MajorityOf:   return "majority-of";
      case RowStateKind::ChargeShared: return "charge-shared";
      case RowStateKind::Clobbered:    return "clobbered";
      case RowStateKind::Unknown:      return "unknown";
    }
    return "?";
}

namespace {

using bender::Inst;
using bender::Op;
using bender::Program;
using dram::BankId;
using dram::RowId;

bool
stateEq(const RowState &a, const RowState &b)
{
    return a.sameValue(b) && a.consumed == b.consumed &&
           a.defIndex == b.defIndex;
}

/** Strict value order for merge-input canonicalization. */
bool
valueLess(const RowState &a, const RowState &b)
{
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.dataIndex != b.dataIndex)
        return a.dataIndex < b.dataIndex;
    if (a.srcKey != b.srcKey)
        return a.srcKey < b.srcKey;
    return a.mergeId < b.mergeId;
}

/**
 * The dataflow walk: the per-row contents lattice driven by the shared
 * bank machine (lint/banks.h), whose CoMRA copies and SiMRA merges it
 * interprets; loop bodies are walked to a state fixpoint.
 */
class DfWalker
{
  public:
    DfWalker(const Program &program, const dram::DeviceConfig &cfg,
             const ProgramEffects &fx, DataflowResult &out)
        : program_(program),
          fx_(fx),
          out_(out),
          diags_(out.diags),
          banks_(cfg),
          geom_(banks_.geometry())
    {}

    void
    run()
    {
        walkProgram(program_, *this);
        finish();
    }

    // ---- walk hooks (lint/walk.h) -----------------------------------------

    /**
     * Walk the body until the row states and bank machines repeat
     * (at most kLoopPassCap passes; exact for smaller trip counts),
     * then skip the remaining iterations arithmetically.  Rows still
     * changing at the cap degrade to Unknown.
     */
    template <typename Body>
    void
    loop(std::size_t begin, std::size_t, std::uint64_t count,
         const Body &body)
    {
        if (count == 0)
            return;
        body();  // warm-up pass
        std::uint64_t executed = 1;
        Snapshot before;
        Time loop_start = 0;
        while (executed < count && executed < kLoopPassCap) {
            before = capture();
            loop_start = banks_.now();
            body();
            ++executed;
            if (sameState(before)) {
                skipIterations(loop_start, count - executed);
                return;
            }
        }
        if (executed >= count)
            return;  // exact: every iteration was walked

        // Cap hit without a fixpoint: anything still in flux after
        // (count - executed) more iterations is beyond this analysis.
        out_.exact = false;
        for (const auto &[key, st] : before.rows) {
            auto it = out_.rows.find(key);
            if (it == out_.rows.end() || !stateEq(it->second, st))
                degrade(key, begin);
        }
        for (const auto &[key, st] : out_.rows)
            if (before.rows.find(key) == before.rows.end())
                degrade(key, begin);
        skipIterations(loop_start, count - executed);
    }

    template <typename Body>
    void
    unbalanced(std::size_t, const Body &rest)
    {
        out_.exact = false;
        rest();
    }

  private:
    /** Row-state image and time-free bank state, for fixpoints. */
    struct Snapshot
    {
        std::map<std::uint64_t, RowState> rows;
        std::vector<Bank> banks;
    };

    Snapshot
    capture() const
    {
        return {out_.rows, banks_.banks()};
    }

    bool
    sameState(const Snapshot &s) const
    {
        if (s.rows.size() != out_.rows.size())
            return false;
        auto it = s.rows.begin();
        for (const auto &[key, st] : out_.rows) {
            if (it->first != key || !stateEq(it->second, st))
                return false;
            ++it;
        }
        return banks_.sameRows(s.banks);
    }

    RowState &
    stateOf(BankId b, RowId phys)
    {
        return out_.rows[rowKey(b, phys)];
    }

    void
    degrade(std::uint64_t key, std::size_t begin)
    {
        RowState &st = out_.rows[key];
        st = RowState{};
        st.kind = RowStateKind::Unknown;
        st.defIndex = begin;
    }

    /** Advance the clock over `reps` identity iterations. */
    void
    skipIterations(Time loop_start, std::uint64_t reps)
    {
        banks_.skip(loop_start,
                    satMulT(banks_.now() - loop_start, reps));
    }

    // ---- consumption and definition ------------------------------------

    /** The row's contents feed a RD, copy, or merge. */
    void
    consume(std::size_t i, BankId b, RowId phys)
    {
        RowState &st = stateOf(b, phys);
        st.consumed = true;
        if (st.kind != RowStateKind::Initial &&
            st.kind != RowStateKind::CopyOf)
            return;
        // Contents trace back to pre-program cell charge: unreliable
        // if a hammer-grade aggressor sits within the blast radius.
        const RowId lo = phys >= 2 ? phys - 2 : 0;
        const RowId hi = std::min<RowId>(phys + 2, geom_.rowsPerBank - 1);
        for (RowId a = lo; a <= hi; ++a) {
            const RowActivity *ra = findRow(fx_, b, a);
            if (ra == nullptr ||
                ra->totalCloses() < kHammerIntentCloses)
                continue;
            diags_.add(Code::DfAggressorAsData, i,
                "row %u's contents are consumed as data, but row %u "
                "(distance %d) is closed %llu times by this program "
                "(hammer-grade, >= %llu): the consumed value may "
                "carry disturbance bitflips",
                phys, a, static_cast<int>(a) - static_cast<int>(phys),
                static_cast<unsigned long long>(ra->totalCloses()),
                static_cast<unsigned long long>(kHammerIntentCloses));
            return;
        }
    }

    /** Flag a staged value overwritten before anything read it. */
    void
    checkDeadWrite(std::size_t i, BankId b, RowId phys)
    {
        const auto it = out_.rows.find(rowKey(b, phys));
        if (it == out_.rows.end())
            return;
        const RowState &old = it->second;
        if (old.consumed || (old.kind != RowStateKind::Written &&
                             old.kind != RowStateKind::CopyOf))
            return;
        diags_.add(Code::DfDeadWrite, old.defIndex,
            "row %u's value staged here is overwritten at "
            "instruction %zu before anything reads it",
            phys, i);
    }

    void
    define(BankId b, RowId phys, RowState st, std::size_t i)
    {
        st.defIndex = i;
        st.consumed = false;
        stateOf(b, phys) = st;
    }

    // ---- macro-op data effects ------------------------------------------

    void
    doCopy(std::size_t i, BankId b, RowId src, RowId dst)
    {
        pudSubs_[b].insert(geom_.subarrayOf(dst));
        consume(i, b, src);
        checkDeadWrite(i, b, dst);

        RowState v = stateOf(b, src);  // copy: source is unchanged
        switch (v.kind) {
          case RowStateKind::Initial:
            v.kind = RowStateKind::CopyOf;
            v.srcKey = rowKey(b, src);
            break;
          case RowStateKind::Written:
          case RowStateKind::CopyOf:
          case RowStateKind::MajorityOf:
          case RowStateKind::ChargeShared:
          case RowStateKind::Clobbered:
          case RowStateKind::Unknown:
            break;  // value-preserving: dst mirrors src's lattice point
        }
        define(b, dst, v, i);
    }

    /** Canonical merge-input value of one member row. */
    RowState
    valueOf(BankId b, RowId phys)
    {
        RowState v = stateOf(b, phys);
        if (v.kind == RowStateKind::Initial) {
            v.kind = RowStateKind::CopyOf;
            v.srcKey = rowKey(b, phys);
        }
        v.defIndex = 0;
        v.consumed = false;
        return v;
    }

    int
    internMerge(BankId b, std::vector<MergeInput> inputs, int n,
                bool tie, std::size_t i)
    {
        std::string key = format("b%u n%d", b, n);
        for (const MergeInput &in : inputs)
            key += format("|%d:%d:%llu:%d*%d",
                          static_cast<int>(in.value.kind),
                          in.value.dataIndex,
                          static_cast<unsigned long long>(
                              in.value.srcKey),
                          in.value.mergeId, in.weight);
        const auto [it, fresh] =
            mergeIds_.insert({key, static_cast<int>(out_.merges.size())});
        if (fresh) {
            MergeRecord rec;
            rec.bank = b;
            rec.inputs = std::move(inputs);
            rec.groupSize = n;
            rec.tieable = tie;
            rec.instIndex = i;
            out_.merges.push_back(std::move(rec));
        }
        return it->second;
    }

    /**
     * A SiMRA group opens: the sense amplifiers immediately resolve
     * every bitline to the (weighted) majority of the activated cells,
     * so the merge happens at the ACT, before any WR.
     */
    void
    doMerge(std::size_t i, BankId b, const std::vector<RowId> &group)
    {
        // The decoder expands within the first ACT's subarray, which
        // holds the group's lowest row.
        const dram::SubarrayId sub = geom_.subarrayOf(group.front());
        bool crosses = false;
        for (RowId r : group)
            crosses |= !geom_.contains(r) || geom_.subarrayOf(r) != sub;
        pudSubs_[b].insert(sub);
        if (crosses) {
            diags_.add(Code::DfGroupCrossesSubarray, i,
                "SiMRA activation group [%u, %u] spans a subarray or "
                "bank boundary (subarrays are %u rows): wordline "
                "drivers are per-subarray, so the charge state of "
                "every member is unpredictable",
                group.front(), group.back(), geom_.rowsPerSubarray);
            RowState cl;
            cl.kind = RowStateKind::Clobbered;
            for (RowId r : group)
                if (geom_.contains(r))
                    define(b, r, cl, i);
            return;
        }

        // Member census: staged data, in-place operands the group
        // swallows (an input value whose CopyOf source is itself a
        // member), never-written rows, undefined rows.
        bool staged = false, undef = false;
        for (RowId r : group) {
            const RowState &st = stateOf(b, r);
            staged |= st.kind == RowStateKind::Written ||
                      st.kind == RowStateKind::CopyOf ||
                      st.kind == RowStateKind::MajorityOf;
            undef |= !st.defined();
        }
        bool uncovered_initial = false;
        for (RowId r : group) {
            if (stateOf(b, r).kind != RowStateKind::Initial)
                continue;
            bool covered = false;
            for (RowId o : group)
                covered |= stateOf(b, o).kind == RowStateKind::CopyOf &&
                           stateOf(b, o).srcKey == rowKey(b, r);
            if (covered) {
                if (staged)
                    diags_.add(Code::DfGroupOverlap, i,
                        "SiMRA activation group [%u, %u] contains "
                        "operand row %u itself alongside copies of "
                        "it: the merge destroys the operand's "
                        "original contents",
                        group.front(), group.back(), r);
            } else {
                uncovered_initial = true;
            }
        }

        for (RowId r : group)
            consume(i, b, r);

        if (!staged) {
            // Merging only never-written charge is the deliberate
            // entropy-source idiom (QUAC-TRNG): defined by the device,
            // unknowable statically, and not worth a diagnostic.
            RowState cs;
            cs.kind = RowStateKind::ChargeShared;
            for (RowId r : group)
                define(b, r, cs, i);
            return;
        }

        if (undef || uncovered_initial) {
            diags_.add(Code::DfMajorityUninitInput, i,
                "SiMRA merge over [%u, %u] mixes staged operand data "
                "with %s rows: every bitline resolves against charge "
                "the program never defined, so the whole block ends "
                "charge-shared",
                group.front(), group.back(),
                undef ? "undefined" : "never-written");
            RowState cs;
            cs.kind = RowStateKind::ChargeShared;
            for (RowId r : group)
                define(b, r, cs, i);
            return;
        }

        // All inputs are known values: group by identity and weigh.
        std::vector<MergeInput> inputs;
        for (RowId r : group) {
            const RowState v = valueOf(b, r);
            bool found = false;
            for (MergeInput &in : inputs) {
                if (in.value.sameValue(v)) {
                    ++in.weight;
                    found = true;
                }
            }
            if (!found)
                inputs.push_back({v, 1});
        }
        std::sort(inputs.begin(), inputs.end(),
                  [](const MergeInput &a, const MergeInput &b) {
                      return valueLess(a.value, b.value);
                  });

        if (inputs.size() == 1) {
            // Unanimous: the merge is a multi-row restore of one value.
            for (RowId r : group)
                define(b, r, inputs.front().value, i);
            return;
        }

        std::vector<int> weights;
        for (const MergeInput &in : inputs)
            weights.push_back(in.weight);
        const int n = static_cast<int>(group.size());
        const bool tie = semantics::tieable(weights, n);
        const int id = internMerge(b, std::move(inputs), n, tie, i);
        if (tie) {
            diags_.add(Code::DfMajorityTie, i,
                "replication weights of the SiMRA merge over [%u, %u] "
                "admit a bitline tie (a subset of weights sums to "
                "%d): tied bitlines float at half charge and resolve "
                "unpredictably on real chips",
                group.front(), group.back(), n / 2);
        }
        RowState mj;
        mj.kind = RowStateKind::MajorityOf;
        mj.mergeId = id;
        for (RowId r : group)
            define(b, r, mj, i);
    }

    // ---- instruction handlers -------------------------------------------

    void
    rd(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= banks_.banks().size())
            return;
        const Bank &bank = banks_.banks()[inst.bank];
        if (bank.state != Bank::State::Open)
            return;  // RdOnClosedBank is the Walker's error
        const RowId phys = bank.rows.front();
        const RowState &st = stateOf(inst.bank, phys);
        if (!st.defined()) {
            diags_.add(Code::DfReadUndefined, i,
                "RD returns row %u whose contents are %s: the "
                "collected bits carry no program-defined value",
                phys, name(st.kind));
        } else if (st.kind == RowStateKind::Initial) {
            diags_.add(Code::DfReadBeforeWrite, i,
                "RD returns row %u, which the program never wrote: "
                "the result is whatever the host staged before "
                "execution",
                phys);
        }
        consume(i, inst.bank, phys);
    }

    void
    wr(std::size_t i, const Inst &inst)
    {
        if (inst.bank >= banks_.banks().size())
            return;
        const Bank &bank = banks_.banks()[inst.bank];
        if (bank.state != Bank::State::Open)
            return;  // WrOnClosedBank is the Walker's error
        RowState v;
        if (inst.dataIndex >= 0 &&
            inst.dataIndex <
                static_cast<int>(program_.dataTable().size())) {
            v.kind = RowStateKind::Written;
            v.dataIndex = inst.dataIndex;
        } else {
            v.kind = RowStateKind::Unknown;  // WrBadDataIndex fatals
        }
        for (RowId r : bank.rows) {
            // A group that crosses a subarray boundary (only possible
            // when rowsPerSubarray is not a power of two) can spill
            // past the last row of the bank.
            if (!geom_.contains(r))
                continue;
            checkDeadWrite(i, inst.bank, r);
            define(inst.bank, r, v, i);
        }
    }

  public:
    void
    step(std::size_t i)
    {
        const Inst &inst = program_.insts()[i];
        banks_.step(i, inst, *this);
        if (inst.op == Op::Rd)
            rd(i, inst);
        else if (inst.op == Op::Wr)
            wr(i, inst);
    }

    // ---- bank machine hooks (lint/banks.h) --------------------------------

    void opened(BankId, RowId, std::size_t) {}

    void
    copied(BankId b, RowId src, RowId dst, std::size_t i)
    {
        doCopy(i, b, src, dst);
    }

    void
    merged(BankId b, const std::vector<RowId> &group, std::size_t i)
    {
        doMerge(i, b, group);
    }

    void closed(BankId, const Bank &, dram::TechClass, Time) {}

  private:
    /**
     * End-of-program analysis.  Live-out values are *not* dead writes
     * (they are what the host DMAs back), but a staged row stranded on
     * the far side of a subarray boundary from all the PuD activity is
     * the historic control-row clobber: `base - 1` crossing into the
     * previous subarray writes a row no macro-op will ever use.
     */
    void
    finish()
    {
        for (const auto &[key, st] : out_.rows) {
            if (st.kind != RowStateKind::Written || st.consumed)
                continue;
            const BankId b = static_cast<BankId>(key >> 32);
            const RowId phys = static_cast<RowId>(key & 0xffffffffu);
            const auto it = pudSubs_.find(b);
            if (it == pudSubs_.end() || it->second.empty())
                continue;
            const dram::SubarrayId sub = geom_.subarrayOf(phys);
            if (it->second.count(sub))
                continue;  // its own subarray sees PuD activity
            const bool last_of_sub =
                (phys + 1) % geom_.rowsPerSubarray == 0;
            const bool first_of_sub = phys % geom_.rowsPerSubarray == 0;
            if ((last_of_sub && it->second.count(sub + 1)) ||
                (first_of_sub && sub > 0 &&
                 it->second.count(sub - 1))) {
                diags_.add(Code::DfControlRowClobber, st.defIndex,
                    "row %u is written but never consumed, and it "
                    "sits on the boundary of subarray %u while all "
                    "PuD activity runs in the adjacent subarray: "
                    "likely an off-by-one control-row address "
                    "crossing the subarray edge",
                    phys, sub);
            }
        }
    }

    const Program &program_;
    const ProgramEffects &fx_;
    DataflowResult &out_;
    DiagSink diags_;
    BankMachine banks_;
    const semantics::Geometry &geom_;
    std::map<BankId, std::set<dram::SubarrayId>> pudSubs_;
    std::map<std::string, int> mergeIds_;
};

} // namespace

DataflowResult
analyzeDataflow(const bender::Program &program,
                const dram::DeviceConfig &cfg, const ProgramEffects *fx)
{
    DataflowResult out;
    if (fx != nullptr) {
        DfWalker(program, cfg, *fx, out).run();
    } else {
        const ProgramEffects local = summarizeEffects(program, cfg);
        DfWalker(program, cfg, local, out).run();
    }
    return out;
}

} // namespace pud::lint
