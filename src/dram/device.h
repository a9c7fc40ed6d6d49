/**
 * @file
 * Command-level DDR4 device model with multiple-row activation.
 *
 * The device consumes timestamped DDR4 commands (ACT, PRE, RD, WR,
 * REF) exactly as DRAM Bender issues them to a real module.  Timing
 * *violations are allowed* -- they are the mechanism behind
 * Processing-using-DRAM:
 *
 *  - ACT src ... PRE, ACT dst with the PRE->ACT gap below tRP and both
 *    rows in one subarray performs an in-DRAM RowClone copy (CoMRA).
 *  - ACT R1, PRE, ACT R2 with both gaps grossly violated activates the
 *    bit-combination row set simultaneously (SiMRA) on chips that
 *    tolerate the sequence (SK Hynix in the paper); other chips ignore
 *    the violating commands, matching the paper's §5.3 footnote.
 *
 * Every row-close feeds the DisturbanceModel, which accrues read-
 * disturbance damage on neighbouring rows' weak cells.  REF performs
 * stripe refresh and, when enabled, sampling-based Target Row Refresh.
 */

#ifndef PUD_DRAM_DEVICE_H
#define PUD_DRAM_DEVICE_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "dram/cell.h"
#include "dram/config.h"
#include "dram/datapattern.h"
#include "dram/disturb.h"
#include "dram/mapping.h"
#include "dram/simra_decoder.h"
#include "dram/types.h"
#include "util/rng.h"
#include "util/units.h"

namespace pud::dram {

/** Aggregate command counters, exposed for tests and benches. */
struct DeviceCounters
{
    std::uint64_t acts = 0;       //!< explicit ACT commands
    std::uint64_t pres = 0;
    std::uint64_t refs = 0;
    std::uint64_t comraCopies = 0;   //!< detected CoMRA copy cycles
    std::uint64_t simraOps = 0;      //!< detected SiMRA group opens
    std::uint64_t ignoredCommands = 0;  //!< grossly violating, ignored
    std::uint64_t trrRefreshes = 0;     //!< TRR victim refreshes
};

/** A simulated DRAM module (rank granularity). */
/**
 * Observer-side mitigation mechanism attached to a Device.
 *
 * The device calls onClose() once per close event, immediately after
 * the event's disturbance deposit lands; the hook appends the
 * physical rows it wants preventively refreshed and the device
 * refreshes them on the spot (exactly like a TRR victim refresh:
 * flips materialize, damage resets).  SamplingTrr stays native
 * (setTrrEnabled) because it is driven by REF rather than by closes;
 * PRAC / PARA / Graphene models live in src/mitigation and implement
 * this interface.
 *
 * Contract: onClose() must be a deterministic function of the close
 * sequence it has been shown -- no clock reads, no device reads.  The
 * executor's loop fast path relies on it: a hooked loop replays its
 * recorded iteration close by close (Device::reuseLoopRecord), calling
 * onClose() with each recorded event exactly where live execution
 * would, so the hook sees every close and the device stays
 * bit-identical to naive execution.
 */
class MitigationHook
{
  public:
    virtual ~MitigationHook() = default;

    /**
     * One close event in `bank`.  Append physical rows to refresh to
     * *refresh; out-of-range rows are ignored.
     */
    virtual void onClose(BankId bank, const CloseEvent &event,
                         std::vector<RowId> &refresh) = 0;
};

class Device
{
  public:
    /** Number of ACTs the TRR sampler considers before a REF (§7). */
    static constexpr std::size_t kTrrWindow = 450;

    explicit Device(DeviceConfig cfg);

    // ---- DDR command interface (t must be non-decreasing) -------------
    void act(Time t, BankId bank, RowId logical_row);
    void pre(Time t, BankId bank);
    void preAll(Time t);
    /** Read the open row (flip-composed view). */
    RowData rd(Time t, BankId bank);
    /** Write all currently open rows (SiMRA groups included). */
    void wr(Time t, BankId bank, const RowData &data);
    /** Stripe refresh + TRR; all banks must be precharged. */
    void ref(Time t);

    /** Apply any pending close events (end of a test program). */
    void flush();

    // ---- environment ----------------------------------------------------
    void setTemperature(Celsius c) { temperature_ = c; }
    Celsius temperature() const { return temperature_; }
    void setTrrEnabled(bool on) { trrEnabled_ = on; }
    bool trrEnabled() const { return trrEnabled_; }

    /**
     * Attach (or with nullptr detach) a close-driven mitigation.  The
     * hook is borrowed, not owned, and must outlive the device or be
     * detached first.
     */
    void setMitigation(MitigationHook *hook) { mitigation_ = hook; }
    MitigationHook *mitigation() const { return mitigation_; }

    /**
     * Clear every bank's TRR sampler ring.  Experiments use this to
     * isolate a measured pattern from preceding setup/profiling ACTs,
     * which would otherwise occupy the sampler window and distort the
     * first TRR decisions of the run.
     */
    void resetTrrSampler();

    /** Sampled ACT addresses currently held by a bank's TRR ring. */
    std::size_t
    trrSamplerFill(BankId bank) const
    {
        return banks_[bank].trrFill;
    }

    // ---- testbench (host-DMA) helpers ------------------------------------
    /** Write a row directly, restoring full charge (resets damage). */
    void writeRowDirect(BankId bank, RowId logical_row, const RowData &data);
    /** Read a row directly without disturbing anything. */
    RowData readRowDirect(BankId bank, RowId logical_row) const;

    // ---- executor fast-path recording ------------------------------------

    /**
     * One steady-state loop iteration, captured for arithmetic replay
     * (or, hooked, close-by-close reuse).
     * Beyond the per-cell damage deltas this remembers everything the
     * body does to iteration-dependent device state: the ACT addresses
     * it pushes into each bank's TRR sampler ring (in order), where
     * its REFs fall relative to those pushes, which rows it touches,
     * and the command-counter deltas.
     */
    struct LoopRecord
    {
        DamageRecord damage;  //!< per-cell deposits/resets, one iteration
        DamageNets nets;      //!< `damage` folded per cell (quiescent only)

        /** ACT/PRE/op counter deltas of one iteration (REF/TRR are
         *  counted live during replay instead). */
        DeviceCounters counterDelta;

        /** Per bank: ACT addresses sampled by TRR, in push order. */
        std::vector<std::vector<RowId>> samplerActs;

        /** One entry per REF in the body. */
        struct RefPoint
        {
            /** Per bank: sampler pushes issued before this REF. */
            std::vector<std::uint32_t> actsBefore;
            /** Hooked records: closes and damage events recorded
             *  before this REF's stripe refresh. */
            std::uint32_t closes = 0;
            std::uint32_t events = 0;
        };
        std::vector<RefPoint> refs;

        /** True if a MitigationHook was attached while recording. */
        bool hooked = false;

        /**
         * Hooked records: one entry per close, in order.  Its deposits
         * are `damage[depositsBegin, depositsEnd)`; its victims (the
         * rows applyClose sets a side on) end at `victims[victimsEnd]`
         * and start where the previous close's end.
         */
        struct Close
        {
            std::uint32_t bank;
            std::uint32_t depositsBegin;
            std::uint32_t depositsEnd;
            std::uint32_t victimsEnd;
            CloseEvent event;
        };
        std::vector<Close> closes;

        /** A close's victim with its side state before and after. */
        struct Victim
        {
            RowId row;
            std::int8_t before;
            std::int8_t after;
        };
        std::vector<Victim> victims;

        /**
         * Hooked records: every cell of a row the body restores
         * (activates, copies into, merges, writes) or closes, with an
         * upper bound on the damage one iteration can add to any of
         * its accumulators, float rounding included.
         */
        struct Guard
        {
            const WeakCell *cell;
            double perIteration;
        };
        std::vector<Guard> guards;

        /** Per bank, sorted: physical rows whose damage, data, or
         *  close-side state the body mutates (deposit victims are
         *  over-approximated by the +-2 blast radius). */
        std::vector<std::vector<RowId>> tracked;

        /** False if a refresh hit a tracked row *during* recording:
         *  the iteration is then not periodic and must not replay. */
        bool quiescent = true;

        /** Sorted REF-counter slots (mod refsPerWindow) whose stripe
         *  covers a tracked row of some bank (REF-bearing bodies). */
        std::vector<std::uint64_t> hitSlots;

        /** A tracked row's state at the start of the iteration; its
         *  data words are `startWords[word, word + words)`. */
        struct RowState
        {
            std::uint32_t bank;
            RowId row;
            std::int8_t lastSide;
            std::uint32_t word;
            std::uint32_t words;
        };
        std::vector<RowState> start;  //!< kept only when `steady`
        std::vector<std::uint64_t> startWords;

        /**
         * True if reuseLoopRecord may apply this record again: it was
         * recorded with a snapshot, REF-bearing, without TRR, no
         * restore materialized a flip, and every tracked row ended the
         * iteration with the data it started with.  Unhooked, it was
         * also quiescent and every tracked row's side state came back;
         * hooked, no row's data changed at any point of the iteration.
         */
        bool steady = false;
    };

    /**
     * Start recording one loop iteration.  With `snapshot`, also keep
     * each tracked row's start-of-iteration data and side state, so
     * the record can prove itself steady for reuseLoopRecord (only
     * worth it for flat REF-bearing bodies, whose replay phase-breaks).
     */
    void beginLoopRecording(bool snapshot = false);
    LoopRecord endLoopRecording();

    /**
     * Apply up to `iterations` further iterations of a steady record
     * event by event instead of running them live: the same deposits
     * and resets in the same order, REF stripes, sampler pushes and
     * counters, with every float identical to live execution.  Then
     * advance the clock and every timestamp set since `from` (the
     * start of the last live iteration) by `period` per applied
     * iteration, as shiftLoopTimestamps does.  Returns the iterations
     * applied; 0 means refused, with nothing changed.
     *
     * Unhooked records apply all `iterations` or refuse: unless every
     * tracked row's data and side state equal the record's, no
     * applied REF stripe covers a tracked row, and no applied reset
     * lands on a flipped cell.
     *
     * Hooked records need every tracked row's data to equal the
     * record's, and apply close by close: each close's recorded
     * deposits land unless a victim's side state or data differs from
     * the record -- after a hook or stripe refresh -- in which case
     * DisturbanceModel::applyClose recomputes the close.  The hook
     * then sees the recorded event and its refreshes go through
     * refreshRow, as in live execution.  Before each iteration the
     * record's guards must prove that no restored or closed row can
     * reach a flip (a restore would write it into the row's data);
     * the first iteration that fails stops the replay there.
     */
    std::uint64_t reuseLoopRecord(const LoopRecord &record,
                                  std::uint64_t iterations, Time from,
                                  Time period);

    /**
     * Replay up to `max_iterations` further iterations of the recorded
     * body and return how many were committed.  Per virtual iteration
     * the TRR RNG draws and refresh counters advance exactly as a live
     * iteration would (the sampler ring is advanced closed-form at the
     * end); damage deposits are applied once, scaled by the committed
     * count.  Replay stops early -- a *phase break* -- the moment a
     * stripe or TRR refresh would land on a tracked row, with the RNG
     * rewound so the caller can execute that iteration live.  The
     * first stripe collision comes in closed form from the record's
     * hit slots, and the skipped REFs refresh only populated rows, so
     * with TRR off a replay costs O(loop state), not O(#REF).
     */
    std::uint64_t replayLoopIterations(const LoopRecord &record,
                                       std::uint64_t max_iterations);

    /**
     * After a loop fast-path replay, advance every timestamp that was
     * set during the loop (pending closes, per-row last-close times)
     * by the skipped iterations' duration, so cross-loop-boundary
     * timing detection (CoMRA/SiMRA windows, off-time gains) behaves
     * exactly as if every iteration had executed.
     */
    void shiftLoopTimestamps(Time from, Time delta);

    // ---- introspection ----------------------------------------------------
    const DeviceConfig &config() const { return cfg_; }
    const DeviceCounters &counters() const { return counters_; }
    bool supportsSimra() const { return cfg_.profile.supportsSimra; }
    RowId rowsPerBank() const { return cfg_.rowsPerBank(); }
    RowId toPhysical(RowId logical) const { return mapping_.toPhysical(logical); }
    RowId toLogical(RowId physical) const { return mapping_.toLogical(physical); }
    SubarrayId
    subarrayOfPhysical(RowId physical) const
    {
        return physical >> subarrayShift_;
    }
    const DisturbanceModel &disturbModel() const { return disturb_; }
    Time now() const { return now_; }

    /** Test-only: the weak cells of a (logical) row (materializes it). */
    const std::vector<WeakCell> &weakCells(BankId bank,
                                           RowId logical_row) const;

    // ---- lazy row materialization ----------------------------------------

    /**
     * Eagerly draw every row's data and weak-cell population, exactly
     * as pre-fleet-scale Devices did at construction.  Row streams are
     * counter-based, so this is observably identical to letting rows
     * materialize on first touch; tests pin that equivalence, and the
     * population benches use it as the memory/startup-cost ablation
     * baseline.
     */
    void materializeAllRows();

    /** Rows whose weak-cell population has been drawn so far. */
    std::size_t populatedRowCount() const { return populatedRows_; }

    // ---- arena reuse ------------------------------------------------------

    /**
     * Return the device to the state a freshly constructed
     * `Device(cfg)` with `cfg.seed = seed` would have, in
     * O(populated rows) instead of O(all rows): only rows whose
     * weak-cell population was drawn are cleared (each bank keeps a
     * dense index-vector of them), bank shells and the row arrays keep
     * their allocations, and the per-module RNG streams are re-seeded
     * exactly as the constructor does.  Population sweeps use this to
     * reuse one Device arena per worker slot across thousands of
     * module instances; a test pins that a reset device reproduces a
     * fresh one's HC_first bit-identically.  Fatal while a loop
     * recording is active.
     */
    void reset(std::uint64_t seed);

  private:
    struct BankState
    {
        enum class St { Idle, Open, Precharging };

        std::vector<Row> rows;

        /**
         * Dense index-vector of the rows in `rows` whose population
         * has been drawn (in materialization order, not sorted).  This
         * is what keeps reset() O(populated rows): mostly-idle modules
         * at fleet scale touch a few dozen rows out of tens of
         * thousands, and the reset walks exactly those.
         */
        std::vector<RowId> populatedIdx;

        St st = St::Idle;
        std::vector<RowId> openRows;  //!< physical, sorted
        OpenKind openKind = OpenKind::Normal;
        Time openedAt = 0;
        Time comraDelayOfOpen = 0;
        RowId comraPartnerOfOpen = kNoRow;
        Time offGapOfOpen = 0;
        Time simraActToPre = 0;
        Time simraPreToAct = 0;

        bool pendingValid = false;
        CloseEvent pending;
        Time pendingClosedAt = 0;
        Time pendingOpenedAt = 0;
        OpenKind pendingKind = OpenKind::Normal;

        // TRR sampler: ring of the last kTrrWindow ACT row addresses.
        std::vector<RowId> trrRing;
        std::size_t trrPos = 0;
        std::size_t trrFill = 0;
    };

    /** First-touch bank shell: size the row array and TRR ring. */
    void touchBank(BankState &bank);

    /** Draw one row's data and weak cells from its keyed stream. */
    void populateRow(BankState &bank, RowId physical);

    /** Materializing accessor: every row mutation goes through here. */
    Row &
    rowAt(BankState &bank, RowId physical)
    {
        touchBank(bank);
        Row &row = bank.rows[physical];
        if (!row.populated) [[unlikely]]
            populateRow(bank, physical);
        return row;
    }

    /** A (bank index, physical row) pair. */
    using BankRow = std::pair<std::size_t, RowId>;

    void advanceTime(Time t);
    void flushPending(BankState &bank);
    void openNormal(BankState &bank, Time t, RowId physical);
    void trrRecord(BankState &bank, RowId physical);

    /** Refresh one row; true if that wrote a flip into its data. */
    bool refreshRow(BankState &bank, RowId physical);

    /** Show the hook one close of `bank` and refresh the rows it asks
     *  for; rows whose refresh wrote a flip are appended to *flipped
     *  when given. */
    void mitigate(BankState &bank, const CloseEvent &event,
                  std::vector<BankRow> *flipped);

    /** Recording a hooked iteration: note the victims applyClose is
     *  about to set a side on, with their side state before. */
    void noteCloseVictims(BankState &bank, const CloseEvent &event);

    /** One iteration of a hooked record, close by close (see
     *  reuseLoopRecord); false, changing nothing, if a guard fails.
     *  Rows whose data a refresh changed join `diverged`. */
    bool reapplyHookedIteration(const LoopRecord &record,
                                std::vector<BankRow> &diverged,
                                std::uint64_t &recomputes);

    /** Apply the REF stripe of the next refresh-counter slot; rows
     *  whose data it changed join `diverged`. */
    void replayStripe(std::vector<BankRow> &diverged);

    /** Rows [first, second) refreshed by REF-counter slot `slot`. */
    std::pair<RowId, RowId> stripeRows(std::uint64_t slot) const;

    /** Fill a steady hooked record's guards. */
    void guardLoopRows(LoopRecord &record) const;

    /** The REF-counter slot (mod refsPerWindow) whose stripe covers
     *  physical row `r`. */
    std::uint64_t stripeSlotOf(RowId r) const;

    /** REFs from the current counter before the first whose stripe
     *  covers a row the record tracks (UINT64_MAX if none ever does). */
    std::uint64_t cleanRefsAhead(const LoopRecord &record) const;

    /** Issue `count` REFs whose stripes miss every loop-tracked row:
     *  each populated row they cover is refreshed once, which is all
     *  repeated refreshes of an untouched row amount to. */
    void commitStripeRefs(std::uint64_t count);

    /** TRR on: replay the record's REF draws iteration by iteration,
     *  up to `limit` iterations or the first draw that would refresh
     *  a tracked row (RNG rewound); commits and counts the others'
     *  victim refreshes and returns the iterations committed. */
    std::uint64_t replayTrrDraws(const LoopRecord &record,
                                 std::uint64_t limit,
                                 std::uint64_t &refreshes);

    /** Per-iteration command counters, `iterations` times over. */
    void addIterationCounters(const LoopRecord &record,
                              std::uint64_t iterations);

    /** Push `iterations` of the record's ACTs into every bank's TRR
     *  sampler ring, closed-form; returns the evictions. */
    std::uint64_t advanceSamplerRings(const LoopRecord &record,
                                      std::uint64_t iterations);

    /** A tracked row's data equals `state`'s. */
    bool sameLoopData(const LoopRecord::RowState &state,
                      const std::vector<std::uint64_t> &words) const;

    /** A tracked row's data and side state equal `state`'s. */
    bool sameLoopState(const LoopRecord::RowState &state,
                       const std::vector<std::uint64_t> &words) const;

    /** Restore a row's charge: materialize flips, clear damage.
     *  True if a flip was written into the row's data. */
    bool restoreRow(BankState &bank, RowId physical);

    std::size_t
    bankIndex(const BankState &bank) const
    {
        return static_cast<std::size_t>(&bank - banks_.data());
    }

    /**
     * Loop-recording hook: the body mutates this (populated) row's
     * state.  Called before the mutation, so a snapshot taken on the
     * first touch is the row's start-of-iteration state.
     */
    void
    noteLoopTouched(BankState &bank, RowId physical)
    {
        if (!recorder_.active || recorder_.inRefresh)
            return;
        recorder_.touched[bankIndex(bank)].push_back(physical);
        if (recorder_.snapshot && !bank.rows[physical].inLoopSnapshot)
            snapshotLoopRow(bank, physical);
    }

    void snapshotLoopRow(BankState &bank, RowId physical);

    /** Flip-composed view of a row's contents. */
    static RowData viewOf(const Row &row);

    /**
     * Overwrite all open rows with the column-wise majority; even-N
     * ties take openRows.front()'s bit.  Bit-sliced over 64-bit words,
     * and a no-op when the operands already agree.
     */
    void majorityMerge(BankState &bank);

    /** Geometry checks the constructor needs before any member uses
     *  the config; passes it through unchanged. */
    static DeviceConfig &&validated(DeviceConfig &&cfg);

    /** Scratch state while a loop iteration is being recorded. */
    struct LoopRecorder
    {
        bool active = false;
        bool inRefresh = false;  //!< suppress touched-row hooks
        bool snapshot = false;   //!< capture tracked rows' start state
        bool hooked = false;     //!< snapshot with a hook: log closes
        bool materialized = false;  //!< a body restore toggled data
        bool dataMoved = false;  //!< any row's data changed
        std::vector<LoopRecord::RowState> start;
        std::vector<std::uint64_t> startWords;
        DeviceCounters countersAtStart;
        std::vector<std::vector<RowId>> samplerActs;
        std::vector<LoopRecord::RefPoint> refs;
        std::vector<std::vector<RowId>> touched;
        /** (bank, row) refreshed during the recorded iteration. */
        std::vector<BankRow> refreshTargets;
        std::vector<LoopRecord::Close> closes;
        std::vector<LoopRecord::Victim> victims;
    };

    DeviceConfig cfg_;
    unsigned subarrayShift_;  //!< log2(rowsPerSubarray)
    RowMapping mapping_;
    SimraDecoder decoder_;
    DisturbanceModel disturb_;
    std::vector<BankState> banks_;
    LoopRecorder recorder_;
    Celsius temperature_;
    bool trrEnabled_ = false;
    Time now_ = 0;
    std::uint64_t refCounter_ = 0;
    Rng trrRng_;
    Rng noiseRng_;
    DeviceCounters counters_;
    std::size_t populatedRows_ = 0;
    MitigationHook *mitigation_ = nullptr;
    std::vector<RowId> mitigationRefresh_;  //!< scratch for hook calls

    /** majorityMerge scratch: operand word arrays and the result. */
    std::vector<const std::uint64_t *> mergeOperands_;
    RowData mergeOut_;
};

} // namespace pud::dram

#endif // PUD_DRAM_DEVICE_H
