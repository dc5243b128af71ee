//===- runtime/Statistics.h - Representation statistics ---------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measured statistics over a live decomposition instance. The data
/// representation synthesis line of work drives its query planner with
/// profiled statistics rather than static guesses; these structures
/// carry (a) per-edge container occupancy — average fanout — which can
/// be fed back into the cost model (CostParams::EdgeFanout) to replan
/// with measured cardinalities, and (b) per-node physical-lock
/// acquisition and contention counters, the §6 experiments' diagnostic
/// for why coarse placements stop scaling.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_STATISTICS_H
#define CRS_RUNTIME_STATISTICS_H

#include "plan/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace crs {

/// Cumulative per-kind operation counts of one relation (relaxed
/// counters on the execution paths). The online tuner reads deltas of
/// these to estimate the live operation mix.
struct OperationCounts {
  uint64_t Queries = 0;
  uint64_t Inserts = 0;
  uint64_t Removes = 0;
  uint64_t total() const { return Queries + Inserts + Removes; }
};

/// Occupancy of one decomposition edge across all its container
/// instances.
struct EdgeOccupancy {
  uint64_t Containers = 0; ///< live container instances for the edge
  uint64_t Entries = 0;    ///< total entries across them
  double averageFanout() const {
    return Containers ? static_cast<double>(Entries) /
                            static_cast<double>(Containers)
                      : 0.0;
  }
};

/// Lock traffic on all instances of one decomposition node.
struct NodeLockTraffic {
  uint64_t Instances = 0;
  uint64_t Acquisitions = 0;
  uint64_t Contentions = 0;
};

/// A quiescent snapshot of representation statistics.
struct RelationStatistics {
  std::vector<EdgeOccupancy> Edges;  ///< indexed by EdgeId
  std::vector<NodeLockTraffic> Nodes; ///< indexed by NodeId
  uint64_t NodeInstances = 0;

  /// Folds measured fanouts into \p Base for statistics-driven
  /// replanning (unmeasured edges keep the static defaults).
  CostParams toCostParams(CostParams Base) const {
    Base.EdgeFanout.assign(Edges.size(), 0.0);
    for (size_t E = 0; E < Edges.size(); ++E)
      Base.EdgeFanout[E] = Edges[E].averageFanout();
    return Base;
  }

  /// Folds \p Other into this snapshot element-wise (a sharded
  /// relation's per-shard statistics aggregating into one view). Edge
  /// and node indices are summed positionally, which assumes the
  /// snapshots come from the same decomposition; mid-way through a
  /// shard-at-a-time migration the shards briefly disagree, and the
  /// aggregate is then only an approximation — acceptable for the
  /// monitoring and tuning paths this feeds.
  void accumulate(const RelationStatistics &Other) {
    if (Other.Edges.size() > Edges.size())
      Edges.resize(Other.Edges.size());
    for (size_t E = 0; E < Other.Edges.size(); ++E) {
      Edges[E].Containers += Other.Edges[E].Containers;
      Edges[E].Entries += Other.Edges[E].Entries;
    }
    if (Other.Nodes.size() > Nodes.size())
      Nodes.resize(Other.Nodes.size());
    for (size_t N = 0; N < Other.Nodes.size(); ++N) {
      Nodes[N].Instances += Other.Nodes[N].Instances;
      Nodes[N].Acquisitions += Other.Nodes[N].Acquisitions;
      Nodes[N].Contentions += Other.Nodes[N].Contentions;
    }
    NodeInstances += Other.NodeInstances;
  }
};

} // namespace crs

#endif // CRS_RUNTIME_STATISTICS_H
