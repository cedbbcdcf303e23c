//===- core/detect/GrainInfo.cpp - Granularity-generic grain record -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/detect/GrainInfo.h"

using namespace cheetah;
using namespace cheetah::core;

void PageGrainExtras::record(NodeId Node, AccessKind Kind,
                             uint64_t LatencyCycles,
                             const PageAccessContext &Ctx) {
  CHEETAH_ASSERT(Node < NumaTopology::MaxNodes, "node id out of range");
  if (Ctx.Remote) {
    RemoteAccesses += 1;
    RemoteCycles += LatencyCycles;
    // Every remote sample lands in a bucket so the breakdown always
    // conserves against RemoteAccesses. Validated topologies hand in
    // distances >= 1; a caller passing 0 (no distance information) folds
    // into the default remote distance.
    uint32_t Distance =
        Ctx.Distance ? Ctx.Distance : NumaTopology::DefaultRemoteDistance;
    addRemoteDistance(Remote, {Distance, 1, LatencyCycles});
  }
  NodeAccesses[Node] += 1;
  if (Kind == AccessKind::Write)
    NodeWrites[Node] += 1;
  NodeCycles[Node] += LatencyCycles;
}

void PageGrainExtras::add(const PageGrainExtras &Other) {
  RemoteAccesses += Other.RemoteAccesses;
  RemoteCycles += Other.RemoteCycles;
  for (const RemoteDistanceStats &Slot : Other.Remote)
    addRemoteDistance(Remote, Slot);
  for (uint32_t N = 0; N < NumaTopology::MaxNodes; ++N) {
    NodeAccesses[N] += Other.NodeAccesses[N];
    NodeWrites[N] += Other.NodeWrites[N];
    NodeCycles[N] += Other.NodeCycles[N];
  }
}

std::vector<NodePageStats> PageGrainExtras::nodes() const {
  std::vector<NodePageStats> Result;
  for (uint32_t N = 0; N < NumaTopology::MaxNodes; ++N)
    if (NodeAccesses[N])
      Result.push_back({N, NodeAccesses[N], NodeWrites[N], NodeCycles[N]});
  return Result;
}

size_t PageGrainExtras::nodeCount() const {
  size_t Count = 0;
  for (uint32_t N = 0; N < NumaTopology::MaxNodes; ++N)
    if (NodeAccesses[N])
      ++Count;
  return Count;
}
