// Execution environment 1 of 3: the baseline tree-walking interpreter
// (§4.1, "Alternative 1"). Requires no code generation and serves as the
// semantic reference the compiled back ends are property-tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "lang/ast.hpp"
#include "runtime/env.hpp"

namespace progmp::rt {

/// A runtime value. Packet values are handles into the environment's pin
/// table; subflow values are dense indices (-1 = NULL). List and queue
/// values are materialized eagerly — the interpreter is the unoptimized
/// baseline; the compiled back ends fuse them into scan loops (late
/// materialization) — as the span [begin, begin + len) of the scratch
/// arena.
struct InterpValue {
  lang::Type type = lang::Type::kInt;
  std::int64_t i = 0;      ///< int / bool / subflow index / pkt handle
  std::uint32_t begin = 0;  ///< list/queue: first element in the arena
  std::uint32_t len = 0;    ///< list/queue: element count
};

/// Storage one interpreter run needs, owned by a long-lived caller so the
/// capacity is reused and an execution allocates nothing once warm: the
/// variable frame and the arena list values live in. The arena only grows
/// during a run, except that FILTER/MIN/MAX/SUM truncate it back after
/// each element's predicate — a predicate yields a scalar and cannot
/// declare variables, so nothing it materialized is reachable afterwards.
struct InterpScratch {
  std::vector<InterpValue> frame;
  std::vector<std::int64_t> arena;
};

/// Executes one scheduler run of an analyzed program against `env`; returns
/// the number of interpreter steps (statements + expression evaluations).
std::int64_t interpret(const lang::Program& program, SchedulerEnv& env,
                       InterpScratch& scratch);

}  // namespace progmp::rt
