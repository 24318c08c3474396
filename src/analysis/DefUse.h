//===- analysis/DefUse.h - Reaching definitions and DU-chains ---*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic bitvector reaching-definitions analysis and the def-use chains
/// derived from it. The IR is non-SSA, so a use may have several reaching
/// definitions; every (definition, use) pair is a data-flow edge of the
/// program graph the partitioners and the scheduler operate on. An edge
/// whose endpoints land on different clusters costs an intercluster move.
///
/// GEN/KILL are built once per (block, register written), and the fixpoint
/// applies OUT = GEN | (IN & ~KILL) a 64-bit word at a time. A use is
/// answered from the last earlier def of its register in the same block,
/// else from that register's defs filtered by the block's IN set, so every
/// def list is in ascending def-index order.
///
/// Function parameters are modeled as pseudo-definitions at the entry; uses
/// reached only by parameter pseudo-defs have no producing operation inside
/// the function (argument marshalling across calls is not charged moves —
/// see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_ANALYSIS_DEFUSE_H
#define GDP_ANALYSIS_DEFUSE_H

#include "analysis/OpIndex.h"

#include <vector>

namespace gdp {

class Function;

/// Def-use chains for one function.
class DefUse {
public:
  /// One definition site: either an operation's destination write or a
  /// parameter pseudo-definition (OpId < 0).
  struct DefSite {
    int OpId; ///< Defining operation id, or -(1+ParamIndex) for parameters.
    int Reg;  ///< The register written.

    bool isParam() const { return OpId < 0; }
    int paramIndex() const { return -OpId - 1; }
  };

  /// One use site: source operand \p SrcIdx of operation \p OpId.
  struct UseSite {
    int OpId;
    int SrcIdx;
  };

  explicit DefUse(const Function &F);

  unsigned getNumDefs() const { return static_cast<unsigned>(Defs.size()); }
  const DefSite &getDef(unsigned DefIdx) const { return Defs[DefIdx]; }

  /// Definition indices reaching source operand \p SrcIdx of operation
  /// \p OpId.
  const std::vector<unsigned> &defsForUse(unsigned OpId,
                                          unsigned SrcIdx) const;

  /// All uses reached by the value operation \p OpId defines (empty for
  /// operations without a destination).
  const std::vector<UseSite> &usesOfDef(unsigned OpId) const;

  /// All uses reached by the pseudo-definition of parameter \p ParamIdx.
  const std::vector<UseSite> &usesOfParam(unsigned ParamIdx) const;

  /// The definition index of operation \p OpId's destination write, or -1.
  int defIndexOfOp(unsigned OpId) const { return DefIdxOfOp[OpId]; }

private:
  std::vector<DefSite> Defs;
  std::vector<int> DefIdxOfOp;               // op id -> def index or -1
  std::vector<int> DefIdxOfParam;            // param -> def index
  std::vector<std::vector<std::vector<unsigned>>> ReachingPerUse;
  // [op id][src idx] -> def indices
  std::vector<std::vector<UseSite>> UsesPerDefOp;   // op id -> uses
  std::vector<std::vector<UseSite>> UsesPerParam;   // param -> uses
  std::vector<std::vector<unsigned>> EmptyFallback; // for ops with no srcs
};

} // namespace gdp

#endif // GDP_ANALYSIS_DEFUSE_H
