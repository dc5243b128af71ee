//===- decomp/Decomposition.h - Concurrent decompositions ------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decompositions (paper §4.1): a rooted DAG describing how a relation is
/// represented as a composition of container data structures. Each node v
/// has a type `A ▷ B` — A is the set of columns bound by any path from the
/// root to v (node instances are identified by valuations of A), and B is
/// the residual set of columns represented by the subgraph under v. Each
/// edge uv carries the set of columns cols(uv) it binds and the container
/// kind ds(uv) implementing it.
///
/// This is a *static* description of the heap, like a type; the runtime
/// counterpart (decomposition instances) lives in src/runtime.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_DECOMP_DECOMPOSITION_H
#define CRS_DECOMP_DECOMPOSITION_H

#include "containers/ContainerTraits.h"
#include "rel/RelationSpec.h"

#include <string>
#include <vector>

namespace crs {

using NodeId = uint32_t;
using EdgeId = uint32_t;

/// Outcome of a structural validation pass; empty Errors means valid.
struct ValidationResult {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
  std::string str() const;
};

/// A decomposition DAG over a relational specification.
class Decomposition {
public:
  struct Node {
    NodeId Id;
    std::string Name;    ///< display name (ρ, x, y, ... in the paper)
    ColumnSet KeyCols;   ///< A in `A ▷ B`: columns identifying an instance
    ColumnSet Residual;  ///< B in `A ▷ B`: columns represented below
    std::vector<EdgeId> OutEdges;
    std::vector<EdgeId> InEdges;
  };

  struct Edge {
    EdgeId Id;
    NodeId Src;
    NodeId Dst;
    ColumnSet Cols;      ///< cols(uv): columns this edge's container keys
    ContainerKind Kind;  ///< ds(uv): the container implementing the edge
  };

  explicit Decomposition(const RelationSpec &Spec);

  /// Adds a fresh node. The first node added is the root and must have
  /// empty key columns.
  NodeId addNode(std::string Name, ColumnSet KeyCols, ColumnSet Residual);

  /// Adds an edge from \p Src to \p Dst binding \p Cols via \p Kind.
  EdgeId addEdge(NodeId Src, NodeId Dst, ColumnSet Cols, ContainerKind Kind);

  /// Replaces the container kind on an edge (used by the autotuner when
  /// enumerating variants of one structure).
  void setEdgeKind(EdgeId E, ContainerKind Kind);

  const RelationSpec &spec() const { return *Spec; }
  NodeId root() const { return 0; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }
  const Node &node(NodeId N) const { return Nodes[N]; }
  const Edge &edge(EdgeId E) const { return Edges[E]; }
  const std::vector<Node> &nodes() const { return Nodes; }
  const std::vector<Edge> &edges() const { return Edges; }

  /// Nodes in a (deterministic) topological order from the root; this is
  /// the order underlying the global lock order (§5.1). Index in the
  /// returned vector = topological index.
  std::vector<NodeId> topologicalOrder() const;

  /// topoIndex[n] = position of node n in topologicalOrder().
  std::vector<uint32_t> topologicalIndex() const;

  /// Immediate-dominator-based dominance: true if every path from the
  /// root to \p N passes through \p Dom (reflexive).
  bool dominates(NodeId Dom, NodeId N) const;

  /// Checks DAG structure + the adequacy conditions of §4.1 (see
  /// docs/ARCHITECTURE.md, "Adequacy rules", for the exact rule set).
  /// Implemented in Adequacy.cpp.
  ValidationResult validate() const;

  /// True if edge \p E may legally be a SingletonCell: the source node's
  /// key columns functionally determine the edge columns.
  bool edgeMaySingleton(EdgeId E) const;

  /// GraphViz rendering of the DAG (for documentation and debugging).
  std::string toDot() const;

  /// One-line structural summary, e.g. "rho -{src}-> u[TreeMap]; ...".
  std::string str() const;

private:
  const RelationSpec *Spec;
  std::vector<Node> Nodes;
  std::vector<Edge> Edges;

  friend class DominatorAnalysis;
};

} // namespace crs

#endif // CRS_DECOMP_DECOMPOSITION_H
