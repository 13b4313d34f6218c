#ifndef CINDERELLA_QUERY_PREDICATE_H_
#define CINDERELLA_QUERY_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/row.h"
#include "storage/value.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Comparison operators on attribute values.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// A row predicate evaluated *after* synopsis pruning.
///
/// The paper's workload uses pure attribute-set queries
/// (`a IS NOT NULL OR b IS NOT NULL`); real applications additionally
/// filter on values (`weight > 100`). Predicates report the attribute set
/// they *require* so the executor can keep pruning partitions: a partition
/// can be skipped when it cannot contain any matching row, i.e. when the
/// predicate's prunable attribute set does not intersect the partition
/// synopsis.
///
/// Evaluation semantics on sparse rows: a comparison on a missing
/// attribute is false (SQL's NULL comparison semantics collapsed to
/// two-valued logic), and NOT(missing comparison) is true.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// True if `row` satisfies the predicate. Takes a RowView so the same
  /// evaluation runs over heap Rows (which convert implicitly) and over
  /// the packed cell arrays of MVCC versions.
  virtual bool Matches(const RowView& row) const = 0;

  /// Conservative pruning set: a partition whose synopsis does not
  /// intersect this set cannot contain a matching row. Returns false when
  /// no such set exists (e.g. a negation can match rows lacking every
  /// attribute), in which case the partition must be scanned.
  virtual bool PruningSynopsis(Synopsis* out) const = 0;

  /// Human-readable rendering for diagnostics.
  virtual std::string ToString() const = 0;
};

using PredicatePtr = std::unique_ptr<Predicate>;

/// attribute IS NOT NULL.
PredicatePtr IsNotNull(AttributeId attribute);

/// attribute <op> literal. A row lacking the attribute never matches.
/// Comparisons between numeric types (int64/double) coerce; comparing a
/// number with a string is always false.
PredicatePtr Compare(AttributeId attribute, CompareOp op, Value literal);

/// Conjunction; matches when every child matches. With no children it
/// matches everything.
PredicatePtr And(std::vector<PredicatePtr> children);

/// Disjunction; matches when any child matches. With no children it
/// matches nothing.
PredicatePtr Or(std::vector<PredicatePtr> children);

/// Negation.
PredicatePtr Not(PredicatePtr child);

}  // namespace cinderella

#endif  // CINDERELLA_QUERY_PREDICATE_H_
