/**
 * @file
 * The one program walk shared by the pud::lint passes.
 *
 * The protocol linter (linter.cc), the loop-summarizing abstract
 * interpreter (absint.cc) and the row-state dataflow pass (dataflow.cc)
 * all visit a program's instructions in order and differ only in how
 * often they walk a loop body.  walkProgram() matches every LoopBegin
 * to its LoopEnd once per program (one stack pass) and drives a pass
 * through three hooks:
 *
 *  - `step(i)`: every instruction that is not a loop marker;
 *  - `loop(begin, close, count, body)`: a balanced loop; `body()` walks
 *    the body once and the pass calls it as often as its loop policy
 *    says (zero times skips it);
 *  - `unbalanced(begin, rest)`: a LoopBegin with no LoopEnd; `rest()`
 *    walks the remainder of the program once, which stands in for the
 *    body (the executor refuses such programs, so any answer is a
 *    diagnostic aid, not a prediction).
 *
 * Nested loops reach the hooks from inside `body()`, so each pass's
 * policy composes bottom-up without rescanning the program.
 */

#ifndef PUD_LINT_WALK_H
#define PUD_LINT_WALK_H

#include <cstdint>
#include <limits>
#include <vector>

#include "bender/program.h"
#include "util/units.h"

namespace pud::lint {

inline constexpr Time kMaxTime = std::numeric_limits<Time>::max();

/** Saturating a + b for b >= 0 (negative b adds as usual). */
inline Time
satAddT(Time a, Time b)
{
    if (b > 0 && a > kMaxTime - b)
        return kMaxTime;
    return a + b;
}

/** Saturating a * n; a non-positive `a` yields 0. */
inline Time
satMulT(Time a, std::uint64_t n)
{
    if (a <= 0 || n == 0)
        return 0;
    if (static_cast<std::uint64_t>(a) >
        static_cast<std::uint64_t>(kMaxTime) / n)
        return kMaxTime;
    return a * static_cast<Time>(n);
}

namespace detail {

inline constexpr std::size_t kNoEnd = static_cast<std::size_t>(-1);

template <typename Pass>
void
walkRange(const std::vector<bender::Inst> &insts,
          const std::vector<std::size_t> &ends, std::size_t begin,
          std::size_t end, Pass &pass)
{
    for (std::size_t i = begin; i < end; ++i) {
        switch (insts[i].op) {
          case bender::Op::LoopBegin: {
            const std::size_t close = ends[i];
            if (close == kNoEnd) {
                pass.unbalanced(i, [&] {
                    walkRange(insts, ends, i + 1, end, pass);
                });
                return;
            }
            pass.loop(i, close, insts[i].count, [&] {
                walkRange(insts, ends, i + 1, close, pass);
            });
            i = close;
            break;
          }
          case bender::Op::LoopEnd:
            // Matched LoopEnds are jumped over above, and
            // Program::loopEnd refuses to build a stray one.
            break;
          default:
            pass.step(i);
            break;
        }
    }
}

} // namespace detail

/** Drive `pass` over `program` (see the file comment for the hooks). */
template <typename Pass>
void
walkProgram(const bender::Program &program, Pass &pass)
{
    const auto &insts = program.insts();
    std::vector<std::size_t> ends(insts.size(), detail::kNoEnd);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].op == bender::Op::LoopBegin) {
            open.push_back(i);
        } else if (insts[i].op == bender::Op::LoopEnd && !open.empty()) {
            ends[open.back()] = i;
            open.pop_back();
        }
    }
    detail::walkRange(insts, ends, 0, insts.size(), pass);
}

} // namespace pud::lint

#endif // PUD_LINT_WALK_H
