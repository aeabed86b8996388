// Execution guards: a load-time necessary condition for a specification to
// act.
//
// Most scheduler executions do nothing: the push-until-blocked loop always
// ends with an execution that finds no usable subflow, and many triggers
// arrive while the only open subflow is one the program refuses. A Guard,
// derived once from the analyzed AST, lets the engine skip those executions
// without running the program. It is a disjunction with one clause per
// effect site (PUSH, POP, DROP, SET, PRINT); each clause is a conjunction of
// facts every execution that reaches the site must satisfy on the state the
// execution starts from:
//
//  * Q / QU / RQ empty or non-empty;
//  * some / no established subflow matches a conjunction of boolean subflow
//    literals (IS_BACKUP, TSQ_THROTTLED, LOSSY, IS_PREFERRED, CWND_FREE —
//    `CWND > QUEUED + SKBS_IN_FLIGHT` reads as CWND_FREE).
//
// A condition the vocabulary cannot express is dropped, which only weakens
// its clause: when the guard is false, the program provably performs no
// push (not even a counted null push), pop, drop, register write or PRINT.
//
// Why the facts may be read on the starting state although POP and DROP
// change the queues mid-execution: take the first effect of an execution.
// Nothing changed before it — subflows are a snapshot, registers change
// only through SET, queues only through POP and DROP — so every condition
// and VAR on its path was evaluated on the starting state, and its site's
// clause holds there. An execution with any effect therefore has a true
// guard. The guard says nothing about faults; the runtime installs it only
// for programs that cannot fault (rt::ProgmpProgram).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lang/ast.hpp"

namespace progmp::lang {

/// Boolean subflow literals of the guard vocabulary. A subflow's literal
/// word has bit `static_cast<int>(lit)` set when the literal holds.
enum class SbfLit : std::uint8_t {
  kIsBackup,
  kTsqThrottled,
  kLossy,
  kIsPreferred,
  kCwndFree,
};

[[nodiscard]] constexpr std::uint8_t lit_bit(SbfLit lit) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(lit));
}

/// A conjunction of subflow literals: literal i is constrained when bit i of
/// `care` is set, and must then equal bit i of `value`.
struct SbfPattern {
  std::uint8_t care = 0;
  std::uint8_t value = 0;

  [[nodiscard]] bool matches(std::uint8_t lits) const {
    return (lits & care) == value;
  }
  /// Every subflow matching `*this` also matches `general`.
  [[nodiscard]] bool implies(SbfPattern general) const {
    return (general.care & ~care) == 0 &&
           (value & general.care) == general.value;
  }
  auto operator<=>(const SbfPattern&) const = default;
};

/// One fact of a guard clause.
struct GuardAtom {
  enum class Kind : std::uint8_t {
    kQueueEmpty,     ///< queue `queue` (0 = Q, 1 = QU, 2 = RQ) is empty
    kQueueNonEmpty,  ///< queue `queue` holds a packet
    kExists,         ///< some established subflow matches `pattern`
    kNotExists,      ///< no established subflow matches `pattern`
  };
  Kind kind = Kind::kExists;
  std::uint8_t queue = 0;
  SbfPattern pattern;

  auto operator<=>(const GuardAtom&) const = default;
};

/// A disjunction of clauses, each a conjunction of atoms. One empty clause is
/// `true` (the program may always act); no clause at all is `false`.
struct Guard {
  using Clause = std::vector<GuardAtom>;
  std::vector<Clause> clauses{Clause{}};

  [[nodiscard]] bool is_always() const {
    return clauses.size() == 1 && clauses.front().empty();
  }

  /// Evaluates the guard. `sbf_lits` holds one literal word per established
  /// subflow; bit q of `nonempty_queues` is set when queue q holds a packet.
  [[nodiscard]] bool holds(std::span<const std::uint8_t> sbf_lits,
                           std::uint8_t nonempty_queues) const;

  /// The guard as a specification-language condition ("always" / "never"
  /// for the constant guards), e.g.
  /// `!Q.EMPTY AND !SUBFLOWS.FILTER(s => !s.IS_BACKUP).EMPTY`.
  [[nodiscard]] std::string str() const;
};

/// Derives the guard of an analyzed program.
[[nodiscard]] Guard derive_guard(const Program& program);

/// True when the cost of one execution on the budgeted back ends (compiled
/// IR, eBPF) cannot grow with queue length: no FILTER, MIN, MAX, SUM, COUNT
/// or GET scans a packet queue (TOP, EMPTY and POP of a bare queue stop at
/// its front). Every loop that can repeat then runs over SUBFLOWS, whose
/// size is bounded by kMaxSubflows.
[[nodiscard]] bool cost_independent_of_queues(const Program& program);

}  // namespace progmp::lang
