// Box tree: a bounding-box hierarchy over a fixed list of boxes (one
// level's patch boxes, in metadata order) answering "which boxes
// intersect this region" without a scan of the whole list — the overlap
// search SAMRAI's communication schedules use (Wissink, Hysom & Hornung,
// ICS 2003; Gunney & Anderson, JPDC 89, 2016).
//
// Each node splits its boxes at the median centroid along the longer
// axis of its bounding box; a node of at most kLeafSize boxes is a leaf.
// The tree's work is counted, so callers can charge what a search cost
// rather than what a scan would have: building counts every box passed
// through a split, a search counts every internal node it visits plus
// every leaf box it tests. A list that fits in one leaf therefore costs
// nothing to build and exactly one test per box to search — the cost of
// the plain scan it replaces.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/box.hpp"

namespace ramr::mesh {

class BoxTree {
 public:
  /// Boxes a leaf holds at most.
  static constexpr int kLeafSize = 16;

  /// Counted work, accumulated by build and searches.
  struct Work {
    std::int64_t build = 0;  ///< boxes passed through splits while building
    std::int64_t nodes = 0;  ///< internal nodes visited by searches
    std::int64_t tests = 0;  ///< leaf boxes tested by searches
    std::int64_t total() const { return build + nodes + tests; }
  };

  BoxTree() = default;
  /// Builds the tree over `boxes`; query results index into this list.
  explicit BoxTree(std::vector<Box> boxes);

  std::size_t size() const { return boxes_.size(); }

  /// Work the build took (Work::build units).
  std::int64_t build_work() const { return build_work_; }

  /// Replaces `hits` with the indices of the boxes intersecting
  /// `region`, in ascending order.
  void query(const Box& region, std::vector<int>& hits, Work& work) const;

 private:
  struct Node {
    Box bounds;
    int begin = 0;  ///< range of boxes_/index_ this node holds
    int end = 0;
    int left = -1;  ///< child nodes; -1 on a leaf
    int right = -1;
  };

  int build(int begin, int end);

  std::vector<Box> boxes_;  ///< the boxes in tree order
  std::vector<int> index_;  ///< input index of each tree-order box
  std::vector<Node> nodes_;
  std::int64_t build_work_ = 0;
};

}  // namespace ramr::mesh
