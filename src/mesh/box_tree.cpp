#include "mesh/box_tree.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ramr::mesh {

BoxTree::BoxTree(std::vector<Box> boxes) : boxes_(std::move(boxes)) {
  index_.resize(boxes_.size());
  std::iota(index_.begin(), index_.end(), 0);
  if (!boxes_.empty()) {
    build(0, static_cast<int>(boxes_.size()));
  }
  // Store the boxes in tree order, so a leaf's boxes are contiguous.
  std::vector<Box> ordered(boxes_.size());
  for (std::size_t k = 0; k < index_.size(); ++k) {
    ordered[k] = boxes_[static_cast<std::size_t>(index_[k])];
  }
  boxes_ = std::move(ordered);
}

int BoxTree::build(int begin, int end) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{Box(), begin, end});
  Box bounds = boxes_[static_cast<std::size_t>(index_[begin])];
  for (int k = begin + 1; k < end; ++k) {
    const Box& b = boxes_[static_cast<std::size_t>(index_[k])];
    bounds = Box(componentwise_min(bounds.lower(), b.lower()),
                 componentwise_max(bounds.upper(), b.upper()));
  }
  nodes_[id].bounds = bounds;
  if (end - begin <= kLeafSize) {
    return id;
  }
  // Median split on the longer axis, by doubled centroid; the index
  // breaks ties, so the partition is the same on every rank and run.
  const int axis = bounds.width() >= bounds.height() ? 0 : 1;
  const auto key = [&](int n) {
    const Box& b = boxes_[static_cast<std::size_t>(n)];
    return std::pair<int, int>(b.lower()[axis] + b.upper()[axis], n);
  };
  const int mid = begin + (end - begin) / 2;
  std::nth_element(index_.begin() + begin, index_.begin() + mid,
                   index_.begin() + end,
                   [&](int a, int b) { return key(a) < key(b); });
  build_work_ += end - begin;
  const int left = build(begin, mid);
  const int right = build(mid, end);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void BoxTree::query(const Box& region, std::vector<int>& hits,
                    Work& work) const {
  hits.clear();
  if (nodes_.empty() || region.empty()) {
    return;
  }
  int stack[64];  // median splits: depth <= 31 for int-indexed lists
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--top])];
    if (node.left < 0) {
      work.tests += node.end - node.begin;
      for (int k = node.begin; k < node.end; ++k) {
        if (boxes_[static_cast<std::size_t>(k)].intersects(region)) {
          hits.push_back(index_[static_cast<std::size_t>(k)]);
        }
      }
      continue;
    }
    ++work.nodes;
    for (const int child : {node.left, node.right}) {
      if (nodes_[static_cast<std::size_t>(child)].bounds.intersects(region)) {
        stack[top++] = child;
      }
    }
  }
  std::sort(hits.begin(), hits.end());
}

}  // namespace ramr::mesh
