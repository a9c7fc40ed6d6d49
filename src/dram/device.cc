#include "dram/device.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pud::dram {

namespace {

// Fraction of the calibrated factor spread assigned to the row level
// vs the cell level.  Per-cell heterogeneity is what makes combined
// RowHammer + PuDHammer patterns (paper §6) only *partially* share
// damage: the cell that is most vulnerable to RowHammer is often not
// the one most vulnerable to CoMRA/SiMRA (paper Obs. 23).
constexpr double kRowShare = 0.8;
constexpr double kCellShare = 0.6;  // sqrt(0.8^2 + 0.6^2) = 1

// Probability that a cell's conventional-class flip direction is the
// dominant 0 -> 1 (Obs. 14 for RowHammer).
constexpr double kConvZeroToOneFraction = 0.60;

// Probability that a cell's SiMRA flip direction is the dominant
// 1 -> 0 (Obs. 14).
constexpr double kSimraOneToZeroFraction = 0.90;

// Per-N jitter of the SiMRA factor, making the HC_first reduction
// non-monotonic in N per victim row (paper §5.3).
constexpr double kSimraPerNJitterSigma = 0.30;



} // namespace

DeviceConfig &&
Device::validated(DeviceConfig &&cfg)
{
    if (cfg.banks == 0 || cfg.subarraysPerBank == 0 ||
        cfg.rowsPerSubarray == 0 || cfg.cols == 0) {
        fatal("Device: degenerate geometry");
    }
    if (!std::has_single_bit(cfg.rowsPerSubarray))
        fatal("Device: rowsPerSubarray must be a power of two");
    return std::move(cfg);
}

Device::Device(DeviceConfig cfg)
    : cfg_(validated(std::move(cfg))),
      subarrayShift_(static_cast<unsigned>(
          std::countr_zero(cfg_.rowsPerSubarray))),
      mapping_(cfg_.profile.mapping),
      decoder_(cfg_.rowsPerSubarray),
      disturb_(cfg_),
      temperature_(cfg_.temperature),
      trrRng_(Rng(cfg_.seed).fork(0x7272)),
      noiseRng_(Rng(cfg_.seed).fork(0x4E01))
{
    // Banks start as empty shells and rows materialize on first touch
    // (populateRow): an idle module costs O(1) memory and construction
    // time, which is what lets fleet-scale population sweeps build one
    // Device per shard without paying for the ~10^4 rows a sweep never
    // hammers.
    banks_.resize(cfg_.banks);
}

void
Device::touchBank(BankState &bank)
{
    if (!bank.rows.empty()) [[likely]]
        return;
    bank.rows.resize(cfg_.rowsPerBank());
    bank.trrRing.assign(kTrrWindow, kNoRow);
}

void
Device::populateRow(BankState &bank, RowId r)
{
    const auto cal = calibrate(cfg_.profile);

    const double comra_row_sigma = kRowShare * cal.comraFactorSigma;
    const double comra_cell_sigma = kCellShare * cal.comraFactorSigma;

    // Counter-based stream keyed by (seed, bank, row): no draw depends
    // on any other row's draws, so materialization order -- lazy,
    // eager, or any interleaving -- cannot change the population.
    Rng rng = Rng::keyed(cfg_.seed, bankIndex(bank) + 1, r + 1);

    Row &row = bank.rows[r];
    row.populated = true;
    bank.populatedIdx.push_back(r);
    ++populatedRows_;
    row.data = RowData(cfg_.cols);

    const double base_row = std::max(
        100.0, rng.logNormalMedian(cal.rhMedian, cal.rhSigma));
    // CoMRA amplifies read disturbance for essentially every row
    // (Obs. 2: 99% of rows see a lower HC_first), so the row-level
    // gain is floored just above 1.
    const double comra_row = std::max(
        1.05,
        rng.logNormalMedian(cal.comraFactorMedian, comra_row_sigma));

    double simra_row = 1.0;
    if (cfg_.profile.supportsSimra) {
        if (rng.chance(cal.simraExtremeFraction)) {
            simra_row =
                rng.logNormalMedian(cal.simraExtremeMedian,
                                    kRowShare * cal.simraExtremeSigma);
        } else {
            simra_row =
                rng.logNormalMedian(cal.simraRegularMedian,
                                    kRowShare * cal.simraRegularSigma);
        }
        simra_row = std::max(0.8, simra_row);
    }

    row.cells.resize(cfg_.weakCellsPerRow);
    for (int c = 0; c < cfg_.weakCellsPerRow; ++c) {
        WeakCell &cell = row.cells[c];

        // Distinct column per cell.
        for (;;) {
            cell.col = static_cast<ColId>(rng.below(cfg_.cols));
            bool dup = false;
            for (int k = 0; k < c; ++k)
                if (row.cells[k].col == cell.col)
                    dup = true;
            if (!dup)
                break;
        }

        const double mult =
            c == 0 ? 1.0 : std::exp(rng.uniform(0.08, 1.3));
        cell.baseHc = static_cast<float>(base_row * mult);

        cell.comraFactor = static_cast<float>(std::max(
            1.02,
            comra_row * std::exp(comra_cell_sigma * rng.gaussian())));

        if (cfg_.profile.supportsSimra) {
            const double cell_simra = std::max(
                0.3, simra_row * std::exp(kCellShare *
                                          cal.simraRegularSigma *
                                          rng.gaussian()));
            double jitter[5];
            rng.gaussianBlock(jitter, 5);
            for (int n = 0; n < 5; ++n) {
                cell.simraFactor[n] = static_cast<float>(std::max(
                    0.2, cell_simra * std::exp(kSimraPerNJitterSigma *
                                               jitter[n])));
            }
        }

        cell.tempSlopeConv =
            static_cast<float>(rng.uniform(-0.35, 0.5));
        cell.upperShare = static_cast<float>(rng.uniform(0.38, 0.62));
        cell.dstRoleGain =
            static_cast<float>(std::exp(0.04 * rng.gaussian()));
        cell.dirConv = rng.chance(kConvZeroToOneFraction)
                           ? FlipDirection::ZeroToOne
                           : FlipDirection::OneToZero;
        cell.dirSimra = rng.chance(kSimraOneToZeroFraction)
                            ? FlipDirection::OneToZero
                            : FlipDirection::ZeroToOne;
        cell.resetDamage();
    }
}

void
Device::reset(std::uint64_t seed)
{
    if (recorder_.active)
        fatal("Device::reset: loop recording active");

    cfg_.seed = seed;

    for (BankState &bank : banks_) {
        if (bank.rows.empty()) {
            // Never-touched shell: nothing to clear, and leaving it
            // empty preserves the lazy first-touch cost profile.
            continue;
        }
        for (RowId r : bank.populatedIdx)
            bank.rows[r] = Row{};
        bank.populatedIdx.clear();

        bank.st = BankState::St::Idle;
        bank.openRows.clear();
        bank.openKind = OpenKind::Normal;
        bank.openedAt = 0;
        bank.comraDelayOfOpen = 0;
        bank.comraPartnerOfOpen = kNoRow;
        bank.offGapOfOpen = 0;
        bank.simraActToPre = 0;
        bank.simraPreToAct = 0;
        bank.pendingValid = false;
        bank.pending = CloseEvent{};
        bank.pendingClosedAt = 0;
        bank.pendingOpenedAt = 0;
        bank.pendingKind = OpenKind::Normal;
        std::fill(bank.trrRing.begin(), bank.trrRing.end(), kNoRow);
        bank.trrPos = 0;
        bank.trrFill = 0;
    }

    disturb_ = DisturbanceModel(cfg_);
    temperature_ = cfg_.temperature;
    trrEnabled_ = false;
    now_ = 0;
    refCounter_ = 0;
    trrRng_ = Rng(cfg_.seed).fork(0x7272);
    noiseRng_ = Rng(cfg_.seed).fork(0x4E01);
    counters_ = DeviceCounters{};
    populatedRows_ = 0;
    mitigation_ = nullptr;
    mitigationRefresh_.clear();
}

void
Device::materializeAllRows()
{
    for (BankState &bank : banks_) {
        touchBank(bank);
        for (RowId r = 0; r < cfg_.rowsPerBank(); ++r)
            if (!bank.rows[r].populated)
                populateRow(bank, r);
    }
}

const std::vector<WeakCell> &
Device::weakCells(BankId bank, RowId logical_row) const
{
    // Lazy materialization is an internal cache: logically const.
    auto *self = const_cast<Device *>(this);
    return self->rowAt(self->banks_[bank], toPhysical(logical_row))
        .cells;
}

void
Device::advanceTime(Time t)
{
    if (t < now_)
        fatal("Device: command time went backwards (%lld < %lld)",
              static_cast<long long>(t), static_cast<long long>(now_));
    now_ = t;
}

bool
Device::restoreRow(BankState &bank, RowId physical)
{
    Row &row = rowAt(bank, physical);
    noteLoopTouched(bank, physical);
    bool toggled = false;
    for (WeakCell &cell : row.cells) {
        if (cell.flipped()) {
            row.data.toggle(cell.col);
            toggled = true;
        }
        cell.resetDamage();
        // A refresh's resets stay out of the record: replay and reuse
        // issue refreshes from the REF counter (or the hook) instead.
        if (!recorder_.inRefresh)
            disturb_.noteReset(cell);
    }
    if (toggled && recorder_.active) {
        recorder_.dataMoved = true;
        if (!recorder_.inRefresh)
            recorder_.materialized = true;
    }
    return toggled;
}

RowData
Device::viewOf(const Row &row)
{
    RowData out = row.data;
    for (const WeakCell &cell : row.cells)
        if (cell.flipped())
            out.toggle(cell.col);
    return out;
}

void
Device::majorityMerge(BankState &bank)
{
    const std::size_t n = bank.openRows.size();
    if (n < 2)
        return;

    // Steady state of every SiMRA hammer loop: the operands already
    // agree (and are clean cols-bit rows), so the majority is each of
    // them and there is nothing to write.
    const RowData &first = bank.rows[bank.openRows.front()].data;
    const ColId tail = cfg_.cols % 64;
    bool agree = first.bits() == cfg_.cols &&
                 (tail == 0 || (first.words().back() >> tail) == 0);
    for (std::size_t k = 1; agree && k < n; ++k)
        agree = bank.rows[bank.openRows[k]].data == first;
    if (agree)
        return;

    mergeOperands_.clear();
    for (RowId r : bank.openRows)
        mergeOperands_.push_back(bank.rows[r].data.words().data());
    if (mergeOut_.bits() != cfg_.cols)
        mergeOut_ = RowData(cfg_.cols);
    std::uint64_t *out = mergeOut_.words().data();
    const std::size_t nwords = mergeOut_.words().size();

    // Per word, a bit-sliced counter: cnt[b] holds bit b of each
    // column's count of ones (ripple-carry add per operand row).  The
    // column bit is count > n/2, or the first row's bit on an even-N
    // tie (count == n/2).
    const int width = std::bit_width(n);
    const std::size_t half = n / 2;
    const bool even = n % 2 == 0;
    std::array<std::uint64_t, 64> cnt;
    for (std::size_t w = 0; w < nwords; ++w) {
        std::fill_n(cnt.begin(), width, 0);
        for (const std::uint64_t *op : mergeOperands_) {
            std::uint64_t carry = op[w];
            for (int b = 0; carry != 0; ++b) {
                const std::uint64_t c = cnt[b] & carry;
                cnt[b] ^= carry;
                carry = c;
            }
        }
        std::uint64_t gt = 0, eq = ~0ULL;
        for (int b = width - 1; b >= 0; --b) {
            if ((half >> b) & 1) {
                eq &= cnt[b];
            } else {
                gt |= eq & cnt[b];
                eq &= ~cnt[b];
            }
        }
        out[w] = gt | (even ? eq & mergeOperands_.front()[w] : 0);
    }
    if (tail != 0)
        out[nwords - 1] &= (1ULL << tail) - 1;

    for (RowId r : bank.openRows)
        bank.rows[r].data = mergeOut_;
    if (recorder_.active)
        recorder_.dataMoved = true;
}

void
Device::trrRecord(BankState &bank, RowId physical)
{
    const RowId evicted = bank.trrRing[bank.trrPos];
    if (evicted != kNoRow) {
        // A full ring forgetting an aggressor is exactly how TRR
        // bypass patterns win (Obs. 24-26) -- worth a trace event.
        if (obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("device.trr_evictions");
            obs::metrics().add(c);
        }
        // The trace event only while TRR can act on the ring: with TRR
        // off it would be most of a trace's volume and mean nothing.
        if (trrEnabled_ && obs::traceOn()) [[unlikely]]
            obs::trace().event(
                "trr_evict",
                {{"bank", static_cast<std::uint64_t>(
                              bankIndex(bank))},
                 {"evicted", static_cast<std::uint64_t>(evicted)},
                 {"row", static_cast<std::uint64_t>(physical)}});
    }
    bank.trrRing[bank.trrPos] = physical;
    bank.trrPos = (bank.trrPos + 1) % kTrrWindow;
    if (bank.trrFill < kTrrWindow)
        ++bank.trrFill;
    if (recorder_.active)
        recorder_.samplerActs[bankIndex(bank)].push_back(physical);
}

void
Device::resetTrrSampler()
{
    for (BankState &bank : banks_) {
        std::fill(bank.trrRing.begin(), bank.trrRing.end(), kNoRow);
        bank.trrPos = 0;
        bank.trrFill = 0;
    }
}

bool
Device::refreshRow(BankState &bank, RowId physical)
{
    // A pristine row holds full charge and no damage: refreshing it is
    // a no-op, and skipping keeps stripe REFs from materializing every
    // row they sweep (which would defeat lazy population).  Such a row
    // is never loop-tracked either, so replay quiescence is unaffected.
    if (physical >= bank.rows.size() ||
        !bank.rows[physical].populated)
        return false;
    if (recorder_.active) {
        // Refreshes are aperiodic (the stripe rotates, TRR draws are
        // random): log the target for the quiescence check, and keep
        // its restoreRow from marking the row as body-touched.
        recorder_.refreshTargets.emplace_back(bankIndex(bank),
                                              physical);
        recorder_.inRefresh = true;
    }
    const bool toggled = restoreRow(bank, physical);
    recorder_.inRefresh = false;
    bank.rows[physical].lastSide = 0;
    return toggled;
}

void
Device::mitigate(BankState &bank, const CloseEvent &event,
                 std::vector<BankRow> *flipped)
{
    mitigationRefresh_.clear();
    mitigation_->onClose(bankIndex(bank), event, mitigationRefresh_);
    for (RowId r : mitigationRefresh_) {
        if (refreshRow(bank, r) && flipped != nullptr)
            flipped->emplace_back(bankIndex(bank), r);
    }
}

void
Device::noteCloseVictims(BankState &bank, const CloseEvent &event)
{
    // Exactly the rows applyClose sets a side on: every non-aggressor
    // in an aggressor's +-2 same-subarray radius, once.
    const std::size_t first = recorder_.victims.size();
    for (RowId a : event.rows) {
        const SubarrayId sub = subarrayOfPhysical(a);
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v = static_cast<std::int64_t>(a) + d;
            if (v < 0 ||
                v >= static_cast<std::int64_t>(bank.rows.size()))
                continue;
            const auto row = static_cast<RowId>(v);
            if (subarrayOfPhysical(row) != sub ||
                std::find(event.rows.begin(), event.rows.end(), row) !=
                    event.rows.end() ||
                std::any_of(recorder_.victims.begin() + first,
                            recorder_.victims.end(),
                            [row](const LoopRecord::Victim &x) {
                                return x.row == row;
                            }))
                continue;
            recorder_.victims.push_back(
                {row, bank.rows[row].lastSide, 0});
        }
    }
}

void
Device::flushPending(BankState &bank)
{
    if (!bank.pendingValid)
        return;
    bank.pendingValid = false;
    // applyClose charges damage onto every weak cell in the closing
    // aggressors' +-2 same-subarray blast radius; those victim rows
    // must have their cell populations drawn before the deposit, or a
    // lazily-built device would silently drop it.  A loop recording
    // notes the whole radius (plus the aggressors) as touched: an
    // over-approximation of the deposit victims.
    for (RowId a : bank.pending.rows) {
        noteLoopTouched(bank, a);
        const SubarrayId sub = subarrayOfPhysical(a);
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v = static_cast<std::int64_t>(a) + d;
            if (v < 0 ||
                v >= static_cast<std::int64_t>(bank.rows.size()))
                continue;
            if (subarrayOfPhysical(static_cast<RowId>(v)) != sub)
                continue;
            rowAt(bank, static_cast<RowId>(v));
            noteLoopTouched(bank, static_cast<RowId>(v));
        }
    }
    // A hooked recording logs each close -- its deposits, its victims'
    // side state around it, the event -- for close-by-close reuse.
    const auto deposits =
        static_cast<std::uint32_t>(disturb_.recordedEvents());
    const std::size_t victims = recorder_.victims.size();
    if (recorder_.hooked)
        noteCloseVictims(bank, bank.pending);
    disturb_.applyClose(bank.rows, bank.pending, temperature_);
    if (recorder_.hooked) {
        for (std::size_t v = victims; v < recorder_.victims.size(); ++v)
            recorder_.victims[v].after =
                bank.rows[recorder_.victims[v].row].lastSide;
        recorder_.closes.push_back(
            {static_cast<std::uint32_t>(bankIndex(bank)), deposits,
             static_cast<std::uint32_t>(disturb_.recordedEvents()),
             static_cast<std::uint32_t>(recorder_.victims.size()),
             bank.pending});
    }
    // bank.pending still holds the event (only the valid flag was
    // cleared above), so the hook sees the final classification --
    // including the CoMRA retro-tag applied by act().
    if (mitigation_ != nullptr)
        mitigate(bank, bank.pending, nullptr);
}

void
Device::openNormal(BankState &bank, Time t, RowId physical)
{
    bank.st = BankState::St::Open;
    bank.openRows.assign(1, physical);
    bank.openKind = OpenKind::Normal;
    bank.openedAt = t;
    const Time last = rowAt(bank, physical).lastCloseAt;
    bank.offGapOfOpen = last >= 0 ? t - last : 0;
    restoreRow(bank, physical);
    trrRecord(bank, physical);
}

void
Device::act(Time t, BankId b, RowId logical_row)
{
    advanceTime(t);
    if (b >= banks_.size())
        fatal("ACT to bank %u (device has %zu banks)", b, banks_.size());
    BankState &bank = banks_[b];
    if (logical_row >= cfg_.rowsPerBank())
        fatal("ACT to row %u (bank has %u rows)", logical_row,
              cfg_.rowsPerBank());
    const RowId phys = mapping_.toPhysical(logical_row);

    if (bank.st == BankState::St::Open)
        fatal("ACT to bank %u while a row is open (missing PRE)", b);

    ++counters_.acts;

    if (bank.pendingValid) {
        const Time gap = t - bank.pendingClosedAt;
        const bool single = bank.pending.rows.size() == 1;
        const bool same_sub =
            single && subarrayOfPhysical(bank.pending.rows.front()) ==
                          subarrayOfPhysical(phys);

        // --- SiMRA: ACT-PRE-ACT with both gaps grossly violated -------
        if (single && same_sub &&
            bank.pending.tOn <= cfg_.timings.simraMaxActToPre &&
            gap <= cfg_.timings.simraMaxPreToAct) {
            if (!cfg_.profile.supportsSimra) {
                // The chip ignores commands that grossly violate the
                // nominal timings (paper §5.3 footnote): the quick PRE
                // and this ACT have no effect; the first row stays
                // open with its original activation time.
                counters_.ignoredCommands += 2;
                bank.st = BankState::St::Open;
                bank.openRows = bank.pending.rows;
                bank.openKind = bank.pendingKind;
                bank.openedAt = bank.pendingOpenedAt;
                bank.pendingValid = false;
                return;
            }
            auto group =
                decoder_.activatedSet(bank.pending.rows.front(), phys);
            if (group.size() > 1) {
                const Time act_to_pre = bank.pending.tOn;
                bank.pendingValid = false;  // blip is part of this op
                for (RowId r : group)
                    restoreRow(bank, r);
                bank.st = BankState::St::Open;
                bank.openRows = std::move(group);
                bank.openKind = OpenKind::Simra;
                bank.openedAt = t;
                bank.simraActToPre = act_to_pre;
                bank.simraPreToAct = gap;
                {
                    const Time last = bank.rows[phys].lastCloseAt;
                    bank.offGapOfOpen = last >= 0 ? t - last : 0;
                }
                majorityMerge(bank);
                trrRecord(bank, phys);
                ++counters_.simraOps;
                return;
            }
            // Degenerate pair (same row reissued): fall through.
        }

        // --- CoMRA: full restore then reopen below tRP -----------------
        if (single && same_sub && bank.pending.rows.front() != phys &&
            bank.pending.tOn >= cfg_.timings.tRAS - units::ns &&
            gap <= cfg_.timings.comraMaxPreToAct) {
            const RowId src = bank.pending.rows.front();
            // Retro-tag the source row's close as the copy cycle's
            // first half: the disturbance hypothesis (paper §4.3) ties
            // the amplification to the short wordline off-interval.
            bank.pending.cls = TechClass::Comra;
            bank.pending.comraDelay = gap;
            bank.pending.comraPartner = phys;
            bank.pending.comraDstRole = false;
            flushPending(bank);

            // Destination latches the source's bitline charge: the
            // in-DRAM copy, with full charge restoration on dst.
            restoreRow(bank, src);
            Row &dst = rowAt(bank, phys);
            noteLoopTouched(bank, phys);
            if (recorder_.active && !(dst.data == bank.rows[src].data))
                recorder_.dataMoved = true;
            dst.data = bank.rows[src].data;
            for (WeakCell &c : dst.cells) {
                c.resetDamage();
                disturb_.noteReset(c);
            }

            bank.st = BankState::St::Open;
            bank.openRows.assign(1, phys);
            bank.openKind = OpenKind::ComraDst;
            bank.openedAt = t;
            bank.comraDelayOfOpen = gap;
            bank.comraPartnerOfOpen = src;
            {
                const Time last = bank.rows[phys].lastCloseAt;
                bank.offGapOfOpen = last >= 0 ? t - last : 0;
            }
            trrRecord(bank, phys);
            ++counters_.comraCopies;
            return;
        }

        flushPending(bank);
    }

    openNormal(bank, t, phys);
}

void
Device::pre(Time t, BankId b)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    ++counters_.pres;
    if (bank.st != BankState::St::Open)
        return;  // PRE on a precharged bank is a no-op

    if (bank.pendingValid)
        flushPending(bank);

    // bank.pending is stale here (flushed above, or never valid): its
    // row buffer is recycled instead of allocating one per PRE.
    CloseEvent ev;
    ev.rows.swap(bank.pending.rows);
    ev.rows.assign(bank.openRows.begin(), bank.openRows.end());
    switch (bank.openKind) {
      case OpenKind::ComraDst:
        ev.cls = TechClass::Comra;
        ev.comraDelay = bank.comraDelayOfOpen;
        ev.comraPartner = bank.comraPartnerOfOpen;
        ev.comraDstRole = true;
        break;
      case OpenKind::Simra:
        ev.cls = TechClass::Simra;
        ev.simraN = static_cast<int>(bank.openRows.size());
        ev.simraActToPre = bank.simraActToPre;
        ev.simraPreToAct = bank.simraPreToAct;
        break;
      default:
        ev.cls = TechClass::Conventional;
        break;
    }
    ev.tOn = t - bank.openedAt;
    ev.reopenGap = bank.offGapOfOpen;
    for (RowId r : bank.openRows)
        bank.rows[r].lastCloseAt = t;

    bank.pending = std::move(ev);
    bank.pendingValid = true;
    bank.pendingClosedAt = t;
    bank.pendingKind = bank.openKind;
    bank.pendingOpenedAt = bank.openedAt;

    bank.st = BankState::St::Precharging;
    bank.openRows.clear();
}

void
Device::preAll(Time t)
{
    for (BankId b = 0; b < banks_.size(); ++b)
        pre(t, b);
}

RowData
Device::rd(Time t, BankId b)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    if (bank.st != BankState::St::Open)
        fatal("RD on bank %u with no open row", b);
    return viewOf(bank.rows[bank.openRows.front()]);
}

void
Device::wr(Time t, BankId b, const RowData &data)
{
    advanceTime(t);
    BankState &bank = banks_.at(b);
    if (bank.st != BankState::St::Open)
        fatal("WR on bank %u with no open row", b);
    if (data.bits() != cfg_.cols)
        fatal("WR with %u bits to a %u-bit row", data.bits(), cfg_.cols);
    for (RowId r : bank.openRows) {
        noteLoopTouched(bank, r);
        if (recorder_.active && !(bank.rows[r].data == data))
            recorder_.dataMoved = true;
        bank.rows[r].data = data;
        for (WeakCell &c : bank.rows[r].cells) {
            c.resetDamage();
            disturb_.noteReset(c);
        }
    }
}

void
Device::ref(Time t)
{
    advanceTime(t);
    ++counters_.refs;
    const std::uint64_t slot =
        refCounter_ % static_cast<std::uint64_t>(
                          cfg_.timings.refsPerWindow);
    const auto [start, end] = stripeRows(slot);
    ++refCounter_;
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c =
            obs::metrics().counterId("device.refs");
        obs::metrics().add(c);
    }
    if (obs::traceOn()) [[unlikely]]
        obs::trace().event(
            "ref_anchor",
            {{"slot", slot},
             {"start", static_cast<std::uint64_t>(start)},
             {"end", static_cast<std::uint64_t>(end)},
             {"recording", recorder_.active}});

    for (BankState &bank : banks_) {
        if (bank.st == BankState::St::Open)
            fatal("REF issued with an open bank");
        flushPending(bank);
        for (RowId r = start; r < end; ++r)
            refreshRow(bank, r);

        if (trrEnabled_ && bank.trrFill > 0) {
            // Sampling TRR: pick one of the last kTrrWindow activated
            // row addresses and preventively refresh its neighbours.
            const std::size_t span =
                std::min(bank.trrFill, kTrrWindow);
            const std::size_t back = trrRng_.below(span);
            const std::size_t idx =
                (bank.trrPos + kTrrWindow - 1 - back) % kTrrWindow;
            const RowId aggr = bank.trrRing[idx];
            if (aggr != kNoRow) {
                const SubarrayId sub = subarrayOfPhysical(aggr);
                for (int d : {-1, 1}) {
                    const std::int64_t v =
                        static_cast<std::int64_t>(aggr) + d;
                    if (v < 0 ||
                        v >= static_cast<std::int64_t>(
                                 bank.rows.size()))
                        continue;
                    if (subarrayOfPhysical(static_cast<RowId>(v)) != sub)
                        continue;
                    refreshRow(bank, static_cast<RowId>(v));
                    ++counters_.trrRefreshes;
                    if (obs::metricsOn()) [[unlikely]] {
                        static const obs::CounterId c =
                            obs::metrics().counterId(
                                "device.trr_refreshes");
                        obs::metrics().add(c);
                    }
                    if (obs::traceOn()) [[unlikely]]
                        obs::trace().event(
                            "trr_refresh",
                            {{"bank",
                              static_cast<std::uint64_t>(
                                  bankIndex(bank))},
                             {"aggr", static_cast<std::uint64_t>(
                                          aggr)},
                             {"victim",
                              static_cast<std::uint64_t>(v)}});
                }
            }
        }
    }

    if (recorder_.active) {
        // Anchor this REF against the body's sampler pushes so replay
        // can reconstruct each bank's exact ring fill at this point of
        // any later iteration, and (hooked) against its closes: every
        // bank's flush above precedes the stripe in close order, and
        // banks share no rows, so one point per REF serves them all.
        LoopRecord::RefPoint rp;
        rp.actsBefore.reserve(recorder_.samplerActs.size());
        for (const auto &acts : recorder_.samplerActs)
            rp.actsBefore.push_back(
                static_cast<std::uint32_t>(acts.size()));
        rp.closes = static_cast<std::uint32_t>(recorder_.closes.size());
        rp.events = static_cast<std::uint32_t>(disturb_.recordedEvents());
        recorder_.refs.push_back(std::move(rp));
    }
}

std::pair<RowId, RowId>
Device::stripeRows(std::uint64_t slot) const
{
    const RowId rows_per_bank = cfg_.rowsPerBank();
    const auto window =
        static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
    return {static_cast<RowId>(slot * rows_per_bank / window),
            static_cast<RowId>((slot + 1) * rows_per_bank / window)};
}

void
Device::beginLoopRecording(bool snapshot)
{
    if (recorder_.active)
        fatal("Device: nested loop recording");
    recorder_.active = true;
    recorder_.inRefresh = false;
    // Only a TRR-off record can ever be reused; a hooked one is reused
    // close by close, so it logs its closes.
    recorder_.snapshot = snapshot && !trrEnabled_;
    recorder_.hooked = recorder_.snapshot && mitigation_ != nullptr;
    recorder_.materialized = false;
    recorder_.dataMoved = false;
    recorder_.closes.clear();
    recorder_.victims.clear();
    recorder_.start.clear();
    recorder_.startWords.clear();
    recorder_.countersAtStart = counters_;
    recorder_.samplerActs.assign(banks_.size(), {});
    recorder_.refs.clear();
    recorder_.touched.assign(banks_.size(), {});
    recorder_.refreshTargets.clear();
    disturb_.beginRecording();
}

void
Device::snapshotLoopRow(BankState &bank, RowId physical)
{
    Row &row = bank.rows[physical];
    row.inLoopSnapshot = true;
    const auto &words = row.data.words();
    recorder_.start.push_back(
        {static_cast<std::uint32_t>(bankIndex(bank)), physical,
         row.lastSide,
         static_cast<std::uint32_t>(recorder_.startWords.size()),
         static_cast<std::uint32_t>(words.size())});
    recorder_.startWords.insert(recorder_.startWords.end(), words.begin(),
                                words.end());
}

bool
Device::sameLoopData(const LoopRecord::RowState &state,
                     const std::vector<std::uint64_t> &words) const
{
    const auto &now = banks_[state.bank].rows[state.row].data.words();
    return now.size() == state.words &&
           std::equal(now.begin(), now.end(),
                      words.begin() + state.word);
}

bool
Device::sameLoopState(const LoopRecord::RowState &state,
                      const std::vector<std::uint64_t> &words) const
{
    return banks_[state.bank].rows[state.row].lastSide ==
               state.lastSide &&
           sameLoopData(state, words);
}

Device::LoopRecord
Device::endLoopRecording()
{
    if (!recorder_.active)
        fatal("Device: endLoopRecording without beginLoopRecording");
    recorder_.active = false;
    recorder_.hooked = false;

    LoopRecord rec;
    rec.hooked = mitigation_ != nullptr;
    rec.damage = disturb_.endRecording();
    rec.samplerActs = std::move(recorder_.samplerActs);
    rec.refs = std::move(recorder_.refs);
    rec.tracked = std::move(recorder_.touched);
    for (auto &rows : rec.tracked) {
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }

    // REF/TRR refreshes are replayed live (they rotate and draw), so
    // only the strictly per-iteration counters are scaled.
    rec.counterDelta.acts =
        counters_.acts - recorder_.countersAtStart.acts;
    rec.counterDelta.pres =
        counters_.pres - recorder_.countersAtStart.pres;
    rec.counterDelta.comraCopies =
        counters_.comraCopies - recorder_.countersAtStart.comraCopies;
    rec.counterDelta.simraOps =
        counters_.simraOps - recorder_.countersAtStart.simraOps;
    rec.counterDelta.ignoredCommands =
        counters_.ignoredCommands -
        recorder_.countersAtStart.ignoredCommands;

    // Quiescence: if a refresh reset a row the body also deposits into
    // (or otherwise mutates), the recorded iteration is not the
    // periodic steady state and must not be replayed.
    for (const auto &[b, r] : recorder_.refreshTargets) {
        if (std::binary_search(rec.tracked[b].begin(),
                               rec.tracked[b].end(), r)) {
            rec.quiescent = false;
            break;
        }
    }
    // A close-driven mitigation is an arbitrary state machine over
    // the close stream; its refreshes are not iteration-affine, so a
    // hooked record never replays arithmetically (only close by close,
    // through reuseLoopRecord).
    if (rec.hooked)
        rec.quiescent = false;

    if (rec.quiescent) {
        rec.nets = DamageNets::fold(rec.damage);
        // A REF refreshes the same stripe in every bank, so one slot
        // set answers "does this REF touch loop state anywhere".
        if (!rec.refs.empty()) {
            for (const auto &rows : rec.tracked)
                for (RowId r : rows)
                    rec.hitSlots.push_back(stripeSlotOf(r));
            std::sort(rec.hitSlots.begin(), rec.hitSlots.end());
            rec.hitSlots.erase(
                std::unique(rec.hitSlots.begin(), rec.hitSlots.end()),
                rec.hitSlots.end());
        }
    }

    if (recorder_.snapshot) {
        // Close-by-close reuse recomputes a perturbed close from the
        // rows' current data, so a hooked record needs the data fixed
        // throughout, not only back at the end; side state it checks
        // per close.
        bool steady = !rec.refs.empty() && !recorder_.materialized &&
                      (rec.hooked ? !recorder_.dataMoved : rec.quiescent);
        for (const LoopRecord::RowState &s : recorder_.start) {
            banks_[s.bank].rows[s.row].inLoopSnapshot = false;
            steady = steady && (rec.hooked
                                    ? sameLoopData(s, recorder_.startWords)
                                    : sameLoopState(s, recorder_.startWords));
        }
        rec.steady = steady;
        if (steady) {
            rec.start = recorder_.start;
            rec.startWords = recorder_.startWords;
        }
        if (steady && rec.hooked) {
            rec.closes = std::move(recorder_.closes);
            rec.victims = std::move(recorder_.victims);
            guardLoopRows(rec);
        }
    }
    return rec;
}

void
Device::guardLoopRows(LoopRecord &rec) const
{
    // Guard every cell the body resets (the rows it activates, copies
    // into, merges or writes: a reset resets the whole row) and every
    // cell of a closed row (whose data the close's deposits read).
    std::unordered_map<const WeakCell *, std::size_t> index;
    auto guard = [&](const WeakCell *cell) {
        if (index.try_emplace(cell, rec.guards.size()).second)
            rec.guards.push_back({cell, 0.0});
    };
    for (const DamageDelta &e : rec.damage)
        if (e.reset)
            guard(e.cell);
    for (const LoopRecord::Close &c : rec.closes)
        for (RowId r : c.event.rows)
            for (const WeakCell &cell : banks_[c.bank].rows[r].cells)
                guard(&cell);

    // A deposit adds at most its delta to each accumulator (the cross
    // transfers are fractions).  A recomputed close differs from the
    // record only in its victims' side strength, 1 vs singleSidedScale
    // (guarded rows never change data), and each float add rounds by
    // at most 2^-24 of a sum below 1.
    const double side = std::max(cfg_.singleSidedScale,
                                 1.0 / cfg_.singleSidedScale);
    for (const DamageDelta &e : rec.damage) {
        if (e.reset)
            continue;
        const auto it = index.find(e.cell);
        if (it != index.end())
            rec.guards[it->second].perIteration +=
                side * e.delta + 0x1p-22;
    }
}

std::uint64_t
Device::stripeSlotOf(RowId r) const
{
    // REF slot s refreshes [s * rows / window, (s + 1) * rows / window);
    // the one slot covering r is the first whose end passes it.
    const auto rows = static_cast<std::uint64_t>(cfg_.rowsPerBank());
    const auto window =
        static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
    return ((static_cast<std::uint64_t>(r) + 1) * window + rows - 1) /
               rows -
           1;
}

std::uint64_t
Device::cleanRefsAhead(const LoopRecord &rec) const
{
    if (rec.hitSlots.empty())
        return ~std::uint64_t(0);
    const auto window =
        static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
    const std::uint64_t slot = refCounter_ % window;
    const auto next = std::lower_bound(rec.hitSlots.begin(),
                                       rec.hitSlots.end(), slot);
    return next != rec.hitSlots.end() ? *next - slot
                                      : rec.hitSlots.front() + window - slot;
}

void
Device::commitStripeRefs(std::uint64_t count)
{
    if (count == 0)
        return;
    const auto window =
        static_cast<std::uint64_t>(cfg_.timings.refsPerWindow);
    const std::uint64_t first = refCounter_ % window;
    // Stripe refreshes of untracked rows commute with the loop's
    // deposits and with each other, and a second refresh of a row
    // nothing deposits into is a no-op.
    for (BankState &bank : banks_) {
        for (RowId r : bank.populatedIdx) {
            if (count >= window ||
                (stripeSlotOf(r) + window - first) % window < count)
                refreshRow(bank, r);
        }
    }
    refCounter_ += count;
    counters_.refs += count;
}

void
Device::addIterationCounters(const LoopRecord &rec,
                             std::uint64_t iterations)
{
    counters_.acts += rec.counterDelta.acts * iterations;
    counters_.pres += rec.counterDelta.pres * iterations;
    counters_.comraCopies += rec.counterDelta.comraCopies * iterations;
    counters_.simraOps += rec.counterDelta.simraOps * iterations;
    counters_.ignoredCommands +=
        rec.counterDelta.ignoredCommands * iterations;
}

std::uint64_t
Device::advanceSamplerRings(const LoopRecord &rec,
                            std::uint64_t iterations)
{
    // Of the iterations * per pushes only the last kTrrWindow can
    // survive, and the pushed stream is periodic in the body.  Rings
    // fill in slot order from a reset, so a push evicts exactly when
    // the ring is already full.
    std::uint64_t evictions = 0;
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        BankState &bank = banks_[b];
        const std::vector<RowId> &acts = rec.samplerActs[b];
        const std::uint64_t per = acts.size();
        const std::uint64_t pushes = per * iterations;
        if (pushes == 0)
            continue;
        const std::uint64_t free = kTrrWindow - bank.trrFill;
        evictions += pushes - std::min(pushes, free);
        const std::uint64_t first =
            pushes > kTrrWindow ? pushes - kTrrWindow : 0;
        std::size_t slot =
            static_cast<std::size_t>((bank.trrPos + first) % kTrrWindow);
        std::size_t src = static_cast<std::size_t>(first % per);
        for (std::uint64_t i = first; i < pushes; ++i) {
            bank.trrRing[slot] = acts[src];
            if (++slot == kTrrWindow)
                slot = 0;
            if (++src == per)
                src = 0;
        }
        bank.trrPos = slot;
        bank.trrFill = static_cast<std::size_t>(
            std::min<std::uint64_t>(kTrrWindow, bank.trrFill + pushes));
    }
    return evictions;
}

std::uint64_t
Device::replayTrrDraws(const LoopRecord &rec, std::uint64_t limit,
                       std::uint64_t &refreshes)
{
    const std::size_t nbanks = banks_.size();
    const RowId rows_per_bank = cfg_.rowsPerBank();

    // The live rings stay frozen until the committed iteration count
    // is known, so negative virtual indices can read them directly.
    auto is_tracked = [&](std::size_t b, RowId r) {
        return std::binary_search(rec.tracked[b].begin(),
                                  rec.tracked[b].end(), r);
    };
    // Sampler ring entry `gidx` pushes after the replay started
    // (negative = still-live pre-replay slot).
    auto ring_at = [&](std::size_t b, std::int64_t gidx) -> RowId {
        if (gidx >= 0)
            return rec.samplerActs[b][static_cast<std::size_t>(
                gidx % static_cast<std::int64_t>(
                           rec.samplerActs[b].size()))];
        return banks_[b].trrRing[static_cast<std::size_t>(
            (static_cast<std::int64_t>(banks_[b].trrPos) +
             static_cast<std::int64_t>(kTrrWindow) + gidx) %
            static_cast<std::int64_t>(kTrrWindow))];
    };

    std::uint64_t completed = 0;
    std::vector<std::pair<std::size_t, RowId>> targets;
    while (completed < limit) {
        // Dry-run this iteration's draws in live order, but commit
        // nothing until the whole iteration is known to stay clear of
        // tracked rows.  On a hit the RNG rewinds so the caller's live
        // boundary iteration redraws the exact same stream.
        const Rng rng_snapshot = trrRng_;
        targets.clear();
        bool interesting = false;
        for (const LoopRecord::RefPoint &rp : rec.refs) {
            for (std::size_t b = 0; b < nbanks && !interesting; ++b) {
                const std::uint64_t acts_before =
                    completed * rec.samplerActs[b].size() +
                    rp.actsBefore[b];
                const std::size_t fill =
                    static_cast<std::size_t>(std::min<std::uint64_t>(
                        kTrrWindow, banks_[b].trrFill + acts_before));
                if (fill == 0)
                    continue;
                const std::size_t back = trrRng_.below(fill);
                const RowId aggr = ring_at(
                    b, static_cast<std::int64_t>(acts_before) - 1 -
                           static_cast<std::int64_t>(back));
                if (aggr == kNoRow)
                    continue;
                const SubarrayId sub = subarrayOfPhysical(aggr);
                for (int d : {-1, 1}) {
                    const std::int64_t v =
                        static_cast<std::int64_t>(aggr) + d;
                    if (v < 0 ||
                        v >= static_cast<std::int64_t>(rows_per_bank))
                        continue;
                    if (subarrayOfPhysical(static_cast<RowId>(v)) != sub)
                        continue;
                    if (is_tracked(b, static_cast<RowId>(v))) {
                        interesting = true;
                        break;
                    }
                    targets.emplace_back(b, static_cast<RowId>(v));
                }
            }
            if (interesting)
                break;
        }
        if (interesting) {
            trrRng_ = rng_snapshot;
            break;
        }
        // Victim refreshes land on untracked rows, whose state is
        // loop-invariant, so they are order-insensitive.
        for (const auto &[b, v] : targets) {
            refreshRow(banks_[b], v);
            ++counters_.trrRefreshes;
        }
        refreshes += targets.size();
        ++completed;
    }
    return completed;
}

std::uint64_t
Device::replayLoopIterations(const LoopRecord &rec,
                             std::uint64_t max_iterations)
{
    if (!rec.quiescent || max_iterations == 0)
        return 0;

    // A REF-free body has nothing iteration-dependent between
    // deposits: the whole remaining trip count commits in one step.
    std::uint64_t completed = max_iterations;
    std::uint64_t trr_refreshes = 0;
    if (!rec.refs.empty()) {
        // Every iteration before the one holding the first REF whose
        // stripe covers a tracked row commits (unless a TRR draw
        // breaks earlier); that iteration is the phase break.
        completed = std::min(max_iterations,
                             cleanRefsAhead(rec) / rec.refs.size());
        if (trrEnabled_)
            completed = replayTrrDraws(rec, completed, trr_refreshes);
        commitStripeRefs(completed * rec.refs.size());
    }
    if (completed == 0)
        return 0;

    // Keep the obs counters in lockstep with counters_ so the metrics
    // totals do not depend on how many REFs were replayed vs executed
    // live.  Rolled up once per replay (never per REF -- this is the
    // simulator's hottest loop); replay emits no per-REF trace events,
    // fastpath_replay summarizes them.
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c_refs =
            obs::metrics().counterId("device.refs");
        static const obs::CounterId c_trr =
            obs::metrics().counterId("device.trr_refreshes");
        if (!rec.refs.empty())
            obs::metrics().add(c_refs, rec.refs.size() * completed);
        if (trr_refreshes > 0)
            obs::metrics().add(c_trr, trr_refreshes);
    }

    // Damage: the recorded iteration's deltas, scaled once.  Safe to
    // defer past the refreshes above because those never touch a
    // deposit-bearing (tracked) row.
    DisturbanceModel::replay(rec.nets, completed);
    addIterationCounters(rec, completed);
    advanceSamplerRings(rec, completed);
    return completed;
}

void
Device::replayStripe(std::vector<BankRow> &diverged)
{
    const auto [start, end] = stripeRows(
        refCounter_ %
        static_cast<std::uint64_t>(cfg_.timings.refsPerWindow));
    ++refCounter_;
    ++counters_.refs;
    for (BankState &bank : banks_)
        for (RowId r = start; r < end; ++r)
            if (refreshRow(bank, r))
                diverged.emplace_back(bankIndex(bank), r);
}

bool
Device::reapplyHookedIteration(const LoopRecord &rec,
                               std::vector<BankRow> &diverged,
                               std::uint64_t &recomputes)
{
    // No guarded cell can reach a flip within the iteration, so no
    // restore or refresh of a guarded row changes its data: every
    // recorded reset lands on an unflipped cell, as recorded.
    for (const LoopRecord::Guard &g : rec.guards) {
        const auto &d = g.cell->damage;
        if (std::max({d[0], d[1], d[2]}) + g.perIteration >= 1.0)
            return false;
    }

    std::size_t event = 0;
    std::size_t victim = 0;
    std::size_t ref = 0;
    auto apply_to = [&](std::size_t end) {
        DisturbanceModel::apply(rec.damage, event, end);
        event = end;
    };
    for (std::size_t c = 0;; ++c) {
        for (; ref < rec.refs.size() && rec.refs[ref].closes == c; ++ref) {
            apply_to(rec.refs[ref].events);
            replayStripe(diverged);
        }
        if (c == rec.closes.size())
            break;
        const LoopRecord::Close &close = rec.closes[c];
        BankState &bank = banks_[close.bank];
        apply_to(close.depositsBegin);

        // applyClose reads the victims' side state and data and the
        // aggressors' data (guarded, so as recorded): where those
        // match the record, so do the deposits.
        bool same = true;
        for (std::size_t v = victim; same && v < close.victimsEnd; ++v) {
            const LoopRecord::Victim &x = rec.victims[v];
            same = bank.rows[x.row].lastSide == x.before &&
                   std::find(diverged.begin(), diverged.end(),
                             BankRow(close.bank, x.row)) ==
                       diverged.end();
        }
        if (same) {
            apply_to(close.depositsEnd);
            for (std::size_t v = victim; v < close.victimsEnd; ++v)
                bank.rows[rec.victims[v].row].lastSide =
                    rec.victims[v].after;
        } else {
            disturb_.applyClose(bank.rows, close.event, temperature_);
            event = close.depositsEnd;
            ++recomputes;
        }
        victim = close.victimsEnd;
        if (mitigation_ != nullptr)
            mitigate(bank, close.event, &diverged);
    }
    apply_to(rec.damage.size());
    return true;
}

std::uint64_t
Device::reuseLoopRecord(const LoopRecord &rec, std::uint64_t iterations,
                        Time from, Time period)
{
    if (!rec.steady || trrEnabled_ || iterations == 0 ||
        rec.hooked != (mitigation_ != nullptr))
        return 0;
    for (const LoopRecord::RowState &s : rec.start)
        if (rec.hooked ? !sameLoopData(s, rec.startWords)
                       : !sameLoopState(s, rec.startWords))
            return 0;

    std::uint64_t done = 0;
    if (rec.hooked) {
        // Rows a refresh wrote a flip into: their later closes are
        // recomputed.
        std::vector<BankRow> diverged;
        std::uint64_t recomputes = 0;
        while (done < iterations &&
               reapplyHookedIteration(rec, diverged, recomputes))
            ++done;
        if (recomputes > 0 && obs::metricsOn()) [[unlikely]] {
            static const obs::CounterId c =
                obs::metrics().counterId("executor.replay_recomputes");
            obs::metrics().add(c, recomputes);
        }
        if (done == 0)
            return 0;
    } else {
        const std::uint64_t refs = iterations * rec.refs.size();
        if (cleanRefsAhead(rec) < refs)
            return 0;
        // Deposits depend on data and side state only (checked above),
        // so each iteration repeats the recorded events; reapply
        // refuses if a reset would materialize a flip.
        if (!disturb_.reapply(rec.damage, rec.nets, iterations))
            return 0;
        commitStripeRefs(refs);
        done = iterations;
    }

    addIterationCounters(rec, done);
    const std::uint64_t evictions = advanceSamplerRings(rec, done);
    // Count what the skipped live REFs and ACTs would have counted.
    if (obs::metricsOn()) [[unlikely]] {
        static const obs::CounterId c_refs =
            obs::metrics().counterId("device.refs");
        obs::metrics().add(c_refs, done * rec.refs.size());
        if (evictions > 0) {
            static const obs::CounterId c_evict =
                obs::metrics().counterId("device.trr_evictions");
            obs::metrics().add(c_evict, evictions);
        }
    }
    // The body's REF pins the clock: each live iteration would have
    // left it one period later.
    const Time skipped = static_cast<Time>(done) * period;
    now_ += skipped;
    shiftLoopTimestamps(from, skipped);
    return done;
}

void
Device::shiftLoopTimestamps(Time from, Time delta)
{
    if (delta <= 0)
        return;
    for (BankState &bank : banks_) {
        if (bank.pendingValid && bank.pendingClosedAt >= from) {
            bank.pendingClosedAt += delta;
            bank.pendingOpenedAt += delta;
        }
        if (bank.st == BankState::St::Open && bank.openedAt >= from)
            bank.openedAt += delta;
        // Only an activated -- hence populated -- row has a close time.
        for (RowId r : bank.populatedIdx) {
            Row &row = bank.rows[r];
            if (row.lastCloseAt >= from)
                row.lastCloseAt += delta;
        }
    }
}

void
Device::flush()
{
    for (BankState &bank : banks_)
        flushPending(bank);
}

void
Device::writeRowDirect(BankId b, RowId logical_row, const RowData &data)
{
    BankState &bank = banks_.at(b);
    const RowId phys = mapping_.toPhysical(logical_row);
    Row &row = rowAt(bank, phys);
    row.data = data;
    for (WeakCell &c : row.cells) {
        c.resetDamage();
        if (cfg_.trialNoiseSigma > 0.0) {
            // A host write starts a fresh trial: redraw the cell's
            // run-to-run threshold jitter.
            c.trialScale = static_cast<float>(
                std::exp(cfg_.trialNoiseSigma * noiseRng_.gaussian()));
        }
    }
    row.lastSide = 0;
}

RowData
Device::readRowDirect(BankId b, RowId logical_row) const
{
    // Logically const: reading a pristine row returns its (drawn)
    // initial data, so materializing here is an internal cache fill.
    auto *self = const_cast<Device *>(this);
    BankState &bank = self->banks_.at(b);
    const RowId phys = mapping_.toPhysical(logical_row);
    return viewOf(self->rowAt(bank, phys));
}

} // namespace pud::dram
