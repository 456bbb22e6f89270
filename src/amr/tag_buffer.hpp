// Refinement tags and their bit-compressed transfer (paper §IV-C).
//
// Tagging runs as a device kernel writing one int per cell; to move the
// result to the host for SAMRAI's clustering, the paper compresses the
// int array to a bit array (32x smaller) on the device and additionally
// keeps a per-patch "any tagged" flag so untouched patches transfer
// nothing at all. This module implements both the level-wide device tag
// arrays and the compressed host-side representation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/box.hpp"
#include "util/array_view.hpp"
#include "vgpu/device_buffer.hpp"

namespace ramr::amr {

/// One local patch of a tag pass: its cell box and the device holding
/// its data.
struct TagPatch {
  mesh::Box box;
  vgpu::Device* device = nullptr;
};

/// Device-resident int tags over every local patch of one level. Each
/// device holds its patches' cell boxes back to back in one buffer, so a
/// whole tag pass costs a constant number of launches per device,
/// however many patches the level has: one clearing launch here, one
/// fused flagging launch by the TagStrategy, and the two fused kernels
/// of download_compressed().
class LevelTagData {
 public:
  /// The patches of one device, in the order they were given.
  struct DeviceGroup {
    vgpu::Device* device = nullptr;
    /// Indices into the constructor's patch list (= the level's
    /// local-patch order), ascending.
    std::vector<std::size_t> patches;
    /// Segment s of a fused launch covers patches[s]'s cell box.
    vgpu::SegmentTable cells;
    /// views[s] addresses patches[s]'s tags in global (i, j) indices
    /// (1 = refine, 0 = keep).
    std::vector<util::ArrayView2D<int>> views;
    vgpu::DeviceBuffer<int> tags;
  };

  /// Allocates and clears (one launch per device) int tags over
  /// `patches`, given in the level's local-patch order.
  explicit LevelTagData(const std::vector<TagPatch>& patches);

  std::size_t patch_count() const { return boxes_.size(); }
  const mesh::Box& box(std::size_t patch) const { return boxes_[patch]; }
  std::span<DeviceGroup> groups() { return groups_; }

  /// The compressed transfer. Per device: one fused per-patch "any
  /// tagged" reduction and ONE D2H copy of its P flags, then one fused
  /// bit compression over the tagged patches only and ONE D2H copy of
  /// their concatenated words. Entry p holds patch p's tags as
  /// ceil(n/32) words in row-major cell order, or is empty when the
  /// patch has no tag (it transfers nothing beyond its flag).
  std::vector<std::vector<std::uint32_t>> download_compressed();

  /// Raw int download, one D2H copy per device (the naive path; kept
  /// for the ablation bench). Entry p holds patch p's ints.
  std::vector<std::vector<int>> download_raw();

 private:
  std::vector<mesh::Box> boxes_;
  std::vector<DeviceGroup> groups_;
};

/// Host-side tag bitmap over an arbitrary region (the union of a level's
/// patches), assembled from per-patch compressed tag arrays gathered from
/// all ranks. Feeds Berger-Rigoutsos clustering. Each row starts on a
/// 64-bit word boundary and the bits past the region's width stay zero,
/// so row operations work on whole words.
class TagBitmap {
 public:
  explicit TagBitmap(const mesh::Box& region);

  const mesh::Box& region() const { return region_; }

  bool is_tagged(int i, int j) const {
    if (!region_.contains(mesh::IntVector(i, j))) {
      return false;
    }
    const int x = i - region_.lower().i;
    return (row(j)[static_cast<std::size_t>(x >> 6)] >> (x & 63)) & 1u;
  }

  void set(int i, int j);

  /// Tags every cell of `box`, which must lie inside the region.
  void set(const mesh::Box& box);

  /// ORs a patch's compressed tag words (as produced by
  /// LevelTagData::download_compressed) into this bitmap.
  void merge_compressed(const mesh::Box& patch_box,
                        const std::vector<std::uint32_t>& words);

  /// Grows every tag into a (2b+1)^2 neighbourhood, clipped to the
  /// region, ensuring features cannot escape the refined region before
  /// the next regrid (the tag buffer of Berger-Colella AMR).
  void buffer(int b);

  std::int64_t count_tags() const;
  std::int64_t count_tags(const mesh::Box& within) const;

  /// The words of row j: bit x of the row is cell
  /// (region().lower().i + x, j).
  std::span<const std::uint64_t> row(int j) const {
    return {bits_.data() + row_offset(j), static_cast<std::size_t>(stride_)};
  }

 private:
  std::size_t row_offset(int j) const {
    return static_cast<std::size_t>(j - region_.lower().j) *
           static_cast<std::size_t>(stride_);
  }
  std::uint64_t* row_ptr(int j) { return bits_.data() + row_offset(j); }

  mesh::Box region_;
  int stride_ = 0;  ///< words per row
  std::vector<std::uint64_t> bits_;
};

}  // namespace ramr::amr
