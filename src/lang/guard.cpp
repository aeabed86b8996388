#include "lang/guard.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "lang/props.hpp"

namespace progmp::lang {
namespace {

using Clause = Guard::Clause;
/// A condition in disjunctive normal form: {} is false, {{}} is true.
using Dnf = std::vector<Clause>;

/// Beyond this many clauses a formula is replaced by `true`: dropping a
/// necessary condition only weakens it, so the cap never costs soundness.
constexpr std::size_t kMaxClauses = 32;

Dnf truth() { return {Clause{}}; }
Dnf falsity() { return {}; }
Dnf atom(GuardAtom a) { return {Clause{a}}; }

std::uint8_t queue_bit(std::int64_t queue) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(queue));
}

Dnf queue_atom(std::int64_t queue, bool empty) {
  GuardAtom a;
  a.kind = empty ? GuardAtom::Kind::kQueueEmpty
                 : GuardAtom::Kind::kQueueNonEmpty;
  a.queue = static_cast<std::uint8_t>(queue);
  return atom(a);
}

Dnf sbf_atom(SbfPattern pattern, bool exists) {
  GuardAtom a;
  a.kind = exists ? GuardAtom::Kind::kExists : GuardAtom::Kind::kNotExists;
  a.pattern = pattern;
  return atom(a);
}

/// Every state satisfying `x` satisfies `y`.
bool atom_implies(const GuardAtom& x, const GuardAtom& y) {
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case GuardAtom::Kind::kQueueEmpty:
    case GuardAtom::Kind::kQueueNonEmpty:
      return x.queue == y.queue;
    case GuardAtom::Kind::kExists:
      return x.pattern.implies(y.pattern);
    case GuardAtom::Kind::kNotExists:
      return y.pattern.implies(x.pattern);
  }
  return false;
}

/// Every state satisfying clause `x` satisfies clause `y`.
bool clause_implies(const Clause& x, const Clause& y) {
  return std::all_of(y.begin(), y.end(), [&x](const GuardAtom& b) {
    return std::any_of(x.begin(), x.end(),
                       [&b](const GuardAtom& a) { return atom_implies(a, b); });
  });
}

/// Normalizes a clause in place: sorted, deduplicated, atoms implied by
/// another atom removed. Returns false when the clause is unsatisfiable.
bool simplify(Clause& c) {
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  using K = GuardAtom::Kind;
  for (const GuardAtom& x : c) {
    for (const GuardAtom& y : c) {
      if (x.kind == K::kQueueEmpty && y.kind == K::kQueueNonEmpty &&
          x.queue == y.queue) {
        return false;
      }
      // A subflow matching x's pattern is one that y says does not exist.
      if (x.kind == K::kExists && y.kind == K::kNotExists &&
          x.pattern.implies(y.pattern)) {
        return false;
      }
    }
  }
  Clause kept;
  for (const GuardAtom& x : c) {
    const bool redundant =
        std::any_of(c.begin(), c.end(), [&x](const GuardAtom& y) {
          return !(x == y) && atom_implies(y, x);
        });
    if (!redundant) kept.push_back(x);
  }
  c = std::move(kept);
  return true;
}

/// Drops every clause that implies another one: the disjunction keeps the
/// weaker.
Dnf absorb(const Dnf& d) {
  Dnf out;
  for (std::size_t i = 0; i < d.size(); ++i) {
    bool redundant = false;
    for (std::size_t j = 0; j < d.size() && !redundant; ++j) {
      if (i == j || !clause_implies(d[i], d[j])) continue;
      // Mutually implied clauses are equivalent: keep the first.
      redundant = !clause_implies(d[j], d[i]) || j < i;
    }
    if (!redundant) out.push_back(d[i]);
  }
  return out;
}

Dnf disj(Dnf a, Dnf b) {
  for (Clause& c : b) a.push_back(std::move(c));
  a = absorb(a);
  return a.size() > kMaxClauses ? truth() : a;
}

Dnf conj(const Dnf& a, const Dnf& b) {
  Dnf out;
  for (const Clause& x : a) {
    for (const Clause& y : b) {
      Clause c = x;
      c.insert(c.end(), y.begin(), y.end());
      if (simplify(c)) out.push_back(std::move(c));
    }
  }
  out = absorb(out);
  return out.size() > kMaxClauses ? truth() : out;
}

/// The subflow property behind each SbfLit, in SbfLit order.
constexpr SbfProp kLitProps[] = {SbfProp::kIsBackup, SbfProp::kTsqThrottled,
                                 SbfProp::kLossy, SbfProp::kIsPreferred,
                                 SbfProp::kCwndFree};

std::optional<SbfLit> vocabulary_literal(SbfProp prop) {
  for (std::size_t i = 0; i < std::size(kLitProps); ++i) {
    if (kLitProps[i] == prop) return static_cast<SbfLit>(i);
  }
  return std::nullopt;
}

/// A literal test `lit == value` on one subflow expression.
struct Literal {
  SbfLit lit;
  bool value;
  ExprId subject;
};

/// The set a subflow or packet collection expression denotes.
struct Chain {
  bool over_subflows = true;
  std::int64_t queue = 0;
  bool filtered = false;  ///< queue chain with predicates
  SbfPattern pattern;     ///< subflow chain: literals every member satisfies
  bool exact = true;      ///< members are exactly the pattern's matches
  bool none = false;      ///< the predicates contradict: always empty
};

class Deriver {
 public:
  explicit Deriver(const Program& p)
      : p_(p), vars_(static_cast<std::size_t>(p.frame_slots)) {}

  Guard run() {
    walk_block(p_.top, truth());
    Guard g;
    g.clauses = std::move(sites_);
    return g;
  }

 private:
  /// What a frame slot was bound to.
  struct Binding {
    enum class Kind : std::uint8_t { kNone, kVar, kForeach };
    Kind kind = Kind::kNone;
    ExprId expr = kNoExpr;  ///< VAR initializer / FOREACH list
  };

  const Expr& ex(ExprId id) const { return p_.expr(id); }
  const Binding& binding(const Expr& var) const {
    return vars_[static_cast<std::size_t>(var.var_slot)];
  }

  void add_site(const Dnf& path) { sites_ = disj(std::move(sites_), path); }

  // ---- Statements ---------------------------------------------------------
  void walk_block(const std::vector<StmtId>& body, const Dnf& path) {
    for (StmtId id : body) walk_stmt(id, path);
  }

  void walk_stmt(StmtId id, const Dnf& path) {
    const Stmt& s = p_.stmt(id);
    switch (s.kind) {
      case StmtKind::kVarDecl: {
        vars_[static_cast<std::size_t>(s.var_slot)] = {Binding::Kind::kVar,
                                                       s.expr};
        // `VAR p = X.POP()` is a site; a POP acts only on a non-empty queue.
        // (A POP inside PUSH or DROP shares that statement's site.)
        const Expr& init = ex(s.expr);
        if (init.kind == ExprKind::kPop) {
          add_site(conj(path, queue_atom(ex(init.a).int_value, false)));
        }
        return;
      }
      case StmtKind::kIf:
        walk_block(s.body, conj(path, fact(s.expr, true)));
        walk_block(s.else_body, conj(path, fact(s.expr, false)));
        return;
      case StmtKind::kForeach:
        vars_[static_cast<std::size_t>(s.var_slot)] = {Binding::Kind::kForeach,
                                                       s.expr};
        walk_block(s.body, conj(path, exists(chain(s.expr))));
        return;
      case StmtKind::kSet:
      case StmtKind::kPrint:
      case StmtKind::kDrop:
      case StmtKind::kExprStmt:  // PUSH, counted even with NULL arguments
        add_site(path);
        return;
      case StmtKind::kReturn:
        // Sites after a RETURN keep a weaker path: still sound.
        return;
    }
  }

  // ---- Collections --------------------------------------------------------
  Chain chain(ExprId id) const {
    const Expr& e = ex(id);
    switch (e.kind) {
      case ExprKind::kSubflows:
        return Chain{};
      case ExprKind::kQueue: {
        Chain c;
        c.over_subflows = false;
        c.queue = e.int_value;
        return c;
      }
      case ExprKind::kFilter: {
        Chain c = chain(e.a);
        if (!c.over_subflows) {
          c.filtered = true;
        } else {
          add_predicate(e.b, e.var_slot, c);
        }
        return c;
      }
      case ExprKind::kVarRef: {
        const Binding& b = binding(e);
        if (b.kind == Binding::Kind::kVar) return chain(b.expr);
        break;
      }
      default:
        break;
    }
    Chain unknown;
    unknown.exact = false;
    return unknown;
  }

  /// Adds a FILTER predicate's literals to a subflow chain; a conjunct the
  /// vocabulary cannot express makes the pattern inexact (a superset).
  void add_predicate(ExprId body, std::int32_t param, Chain& c) const {
    const Expr& e = ex(body);
    if (e.kind == ExprKind::kBinary && e.bin_op == BinOp::kAnd) {
      add_predicate(e.a, param, c);
      add_predicate(e.b, param, c);
      return;
    }
    if (e.kind == ExprKind::kBoolLit) {
      if (e.int_value == 0) c.none = true;
      return;
    }
    const std::optional<Literal> lit = literal(body);
    if (!lit || !is_var(lit->subject, param)) {
      c.exact = false;
      return;
    }
    constrain(c.pattern, lit->lit, lit->value, c.none);
  }

  static void constrain(SbfPattern& p, SbfLit lit, bool value, bool& none) {
    const std::uint8_t bit = lit_bit(lit);
    const std::uint8_t want = value ? bit : 0;
    if ((p.care & bit) != 0 && (p.value & bit) != want) none = true;
    p.care |= bit;
    p.value = static_cast<std::uint8_t>((p.value & ~bit) | want);
  }

  bool is_var(ExprId id, std::int32_t slot) const {
    const Expr& e = ex(id);
    return e.kind == ExprKind::kVarRef && e.var_slot == slot;
  }

  /// `s.LIT`, `!s.LIT`, and `s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT` (either
  /// order of the sum, or mirrored with `<`) read as CWND_FREE.
  std::optional<Literal> literal(ExprId id) const {
    const Expr& e = ex(id);
    if (e.kind == ExprKind::kUnary && e.un_op == UnOp::kNot) {
      std::optional<Literal> inner = literal(e.a);
      if (inner) inner->value = !inner->value;
      return inner;
    }
    if (e.kind == ExprKind::kSbfProp) {
      if (const auto lit = vocabulary_literal(e.sbf_prop)) {
        return Literal{*lit, true, e.a};
      }
      return std::nullopt;
    }
    if (e.kind == ExprKind::kBinary &&
        (e.bin_op == BinOp::kGt || e.bin_op == BinOp::kLt)) {
      const ExprId cwnd = e.bin_op == BinOp::kGt ? e.a : e.b;
      const ExprId sum = e.bin_op == BinOp::kGt ? e.b : e.a;
      const Expr& c = ex(cwnd);
      const Expr& s = ex(sum);
      if (c.kind != ExprKind::kSbfProp || c.sbf_prop != SbfProp::kCwnd ||
          ex(c.a).kind != ExprKind::kVarRef || s.kind != ExprKind::kBinary ||
          s.bin_op != BinOp::kAdd) {
        return std::nullopt;
      }
      const std::int32_t slot = ex(c.a).var_slot;
      const auto prop_of = [&](ExprId x) -> std::optional<SbfProp> {
        const Expr& t = ex(x);
        if (t.kind != ExprKind::kSbfProp || !is_var(t.a, slot)) {
          return std::nullopt;
        }
        return t.sbf_prop;
      };
      const auto pa = prop_of(s.a);
      const auto pb = prop_of(s.b);
      const bool free_test =
          pa && pb &&
          ((*pa == SbfProp::kQueued && *pb == SbfProp::kSkbsInFlight) ||
           (*pa == SbfProp::kSkbsInFlight && *pb == SbfProp::kQueued));
      if (free_test) return Literal{SbfLit::kCwndFree, true, c.a};
    }
    return std::nullopt;
  }

  Dnf exists(const Chain& c) const {
    if (c.none) return falsity();
    return sbf_atom(c.pattern, true);
  }

  /// The chain a subflow value was selected from: its non-NULL value is an
  /// established subflow matching the pattern.
  Chain source(ExprId id) const {
    const Expr& e = ex(id);
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const Binding& b = binding(e);
        if (b.kind == Binding::Kind::kForeach) return chain(b.expr);
        if (b.kind == Binding::Kind::kVar) return source(b.expr);
        break;
      }
      case ExprKind::kMinBy:
      case ExprKind::kMaxBy:
      case ExprKind::kGet:
        return chain(e.a);
      default:
        break;
    }
    Chain unknown;
    unknown.exact = false;
    return unknown;
  }

  bool is_foreach_var(ExprId id) const {
    const Expr& e = ex(id);
    return e.kind == ExprKind::kVarRef &&
           binding(e).kind == Binding::Kind::kForeach;
  }

  // ---- Conditions ---------------------------------------------------------
  /// A necessary condition for the condition `id` to evaluate to `pol` on
  /// the execution's starting state.
  Dnf fact(ExprId id, bool pol) const {
    const Expr& e = ex(id);
    switch (e.kind) {
      case ExprKind::kBoolLit:
        return (e.int_value != 0) == pol ? truth() : falsity();
      case ExprKind::kUnary:
        if (e.un_op == UnOp::kNot) return fact(e.a, !pol);
        return truth();
      case ExprKind::kVarRef: {
        const Binding& b = binding(e);
        if (b.kind == Binding::Kind::kVar && e.type == Type::kBool) {
          return fact(b.expr, pol);
        }
        return truth();
      }
      case ExprKind::kEmpty:
        return emptiness(e.a, pol);
      case ExprKind::kHasWindowFor:
        // HAS_WINDOW_FOR(NULL) is false.
        return pol ? nonnull(e.b) : truth();
      case ExprKind::kPktProp:
        // A NULL packet reads every property as false.
        return pol ? nonnull(e.a) : truth();
      case ExprKind::kBinary:
        if (e.bin_op == BinOp::kAnd) {
          return pol ? conj(fact(e.a, true), fact(e.b, true))
                     : disj(fact(e.a, false), fact(e.b, false));
        }
        if (e.bin_op == BinOp::kOr) {
          return pol ? disj(fact(e.a, true), fact(e.b, true))
                     : conj(fact(e.a, false), fact(e.b, false));
        }
        if (e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe) {
          return null_test(e, pol);
        }
        break;
      default:
        break;
    }
    if (const std::optional<Literal> lit = literal(id)) {
      return literal_fact(*lit, pol);
    }
    return truth();
  }

  /// `x == NULL` / `x != NULL` (either side) evaluated to `pol`.
  Dnf null_test(const Expr& e, bool pol) const {
    const bool a_null = ex(e.a).kind == ExprKind::kNullLit;
    const bool b_null = ex(e.b).kind == ExprKind::kNullLit;
    if (a_null == b_null) return truth();
    const ExprId value = a_null ? e.b : e.a;
    const bool asserts_null = (e.bin_op == BinOp::kEq) == pol;
    return asserts_null ? isnull(value) : nonnull(value);
  }

  /// `lit == value` on a subflow value, evaluated to `pol`. A NULL subflow
  /// reads every literal as false, so only a literal required to be true —
  /// or a FOREACH variable, never NULL — proves the subflow exists.
  Dnf literal_fact(const Literal& lit, bool pol) const {
    const bool want = lit.value == pol;
    if (!want && !is_foreach_var(lit.subject)) return truth();
    Chain c = source(lit.subject);
    constrain(c.pattern, lit.lit, want, c.none);
    return exists(c);
  }

  /// `list.EMPTY == want_empty`.
  Dnf emptiness(ExprId list, bool want_empty) const {
    const Chain c = chain(list);
    if (c.over_subflows) {
      if (!want_empty) return exists(c);
      if (c.none) return truth();
      return c.exact ? sbf_atom(c.pattern, false) : truth();
    }
    if (!want_empty) return queue_atom(c.queue, false);
    return c.filtered ? truth() : queue_atom(c.queue, true);
  }

  Dnf nonnull(ExprId id) const {
    const Expr& e = ex(id);
    switch (e.kind) {
      case ExprKind::kNullLit:
        return falsity();
      case ExprKind::kVarRef: {
        const Binding& b = binding(e);
        if (b.kind == Binding::Kind::kVar) return nonnull(b.expr);
        return truth();  // FOREACH variables are never NULL
      }
      case ExprKind::kMinBy:
      case ExprKind::kMaxBy:
      case ExprKind::kGet:
      case ExprKind::kTop: {
        const Chain c = chain(e.a);
        return c.over_subflows ? exists(c) : queue_atom(c.queue, false);
      }
      case ExprKind::kPop:
        return queue_atom(ex(e.a).int_value, false);
      default:
        return truth();
    }
  }

  Dnf isnull(ExprId id) const {
    const Expr& e = ex(id);
    switch (e.kind) {
      case ExprKind::kNullLit:
        return truth();
      case ExprKind::kVarRef: {
        const Binding& b = binding(e);
        if (b.kind == Binding::Kind::kVar) return isnull(b.expr);
        if (b.kind == Binding::Kind::kForeach) return falsity();
        return truth();
      }
      case ExprKind::kMinBy:
      case ExprKind::kMaxBy:
      case ExprKind::kTop:
        // MIN/MAX/TOP are NULL exactly when their collection is empty.
        return emptiness(e.a, true);
      case ExprKind::kPop:
        return queue_atom(ex(e.a).int_value, true);
      default:
        return truth();  // GET is also NULL past the end of its list
    }
  }

  const Program& p_;
  std::vector<Binding> vars_;
  Dnf sites_ = falsity();
};

const char* queue_name(std::uint8_t q) {
  switch (q) {
    case 0: return "Q";
    case 1: return "QU";
    default: return "RQ";
  }
}

std::string subflow_set(SbfPattern p) {
  if (p.care == 0) return "SUBFLOWS";
  std::string out = "SUBFLOWS.FILTER(s => ";
  bool first = true;
  for (std::size_t i = 0; i < std::size(kLitProps); ++i) {
    const std::uint8_t bit = lit_bit(static_cast<SbfLit>(i));
    if ((p.care & bit) == 0) continue;
    if (!first) out += " AND ";
    first = false;
    if ((p.value & bit) == 0) out += "!";
    out += "s.";
    out += sbf_prop_name(kLitProps[i]);
  }
  return out + ")";
}

void append_atom(std::string& out, const GuardAtom& a) {
  switch (a.kind) {
    case GuardAtom::Kind::kQueueEmpty:
    case GuardAtom::Kind::kQueueNonEmpty:
      if (a.kind == GuardAtom::Kind::kQueueNonEmpty) out += '!';
      out += queue_name(a.queue);
      break;
    case GuardAtom::Kind::kExists:
    case GuardAtom::Kind::kNotExists:
      if (a.kind == GuardAtom::Kind::kExists) out += '!';
      out += subflow_set(a.pattern);
      break;
  }
  out += ".EMPTY";
}

}  // namespace

bool Guard::holds(std::span<const std::uint8_t> sbf_lits,
                  std::uint8_t nonempty_queues) const {
  const auto atom_holds = [&](const GuardAtom& a) {
    switch (a.kind) {
      case GuardAtom::Kind::kQueueEmpty:
        return (nonempty_queues & queue_bit(a.queue)) == 0;
      case GuardAtom::Kind::kQueueNonEmpty:
        return (nonempty_queues & queue_bit(a.queue)) != 0;
      case GuardAtom::Kind::kExists:
      case GuardAtom::Kind::kNotExists: {
        const bool any = std::any_of(
            sbf_lits.begin(), sbf_lits.end(),
            [&](std::uint8_t lits) { return a.pattern.matches(lits); });
        return any == (a.kind == GuardAtom::Kind::kExists);
      }
    }
    return true;
  };
  return std::any_of(clauses.begin(), clauses.end(), [&](const Clause& c) {
    return std::all_of(c.begin(), c.end(), atom_holds);
  });
}

std::string Guard::str() const {
  if (is_always()) return "always";
  if (clauses.empty()) return "never";
  std::string out;
  for (const Clause& c : clauses) {
    if (!out.empty()) out += " OR ";
    const bool paren = clauses.size() > 1 && c.size() > 1;
    if (paren) out += "(";
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out += " AND ";
      append_atom(out, c[i]);
    }
    if (paren) out += ")";
  }
  return out;
}

Guard derive_guard(const Program& program) { return Deriver(program).run(); }

bool cost_independent_of_queues(const Program& program) {
  for (const Expr& e : program.exprs) {
    switch (e.kind) {
      case ExprKind::kFilter:
      case ExprKind::kMinBy:
      case ExprKind::kMaxBy:
      case ExprKind::kSumBy:
      case ExprKind::kCount:
      case ExprKind::kGet:
        if (e.a != kNoExpr && program.expr(e.a).type == Type::kPacketQueue) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  return true;
}

}  // namespace progmp::lang
