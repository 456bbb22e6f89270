// GPU-resident contiguous array over an index box — the common data
// store of the paper's CudaPatchData library (Fig. 3).
//
// CudaArrayData allocates one contiguous array in (virtual) device memory
// for a given box and exports its depth planes as views. The paper's
// data-parallel copy, pack and unpack routines (Fig. 4) are the compiled
// transfer plans' fused launches over those views
// (xfer::TransferSchedule), one device thread per element and one PCIe
// crossing per packed message.
#pragma once

#include <vector>

#include "mesh/box.hpp"
#include "util/array_view.hpp"
#include "vgpu/device_buffer.hpp"

namespace ramr::pdat::cuda {

/// Device-resident row-major array of doubles covering `index_box`.
class CudaArrayData {
 public:
  CudaArrayData(vgpu::Device& device, const mesh::Box& index_box, int depth = 1);

  const mesh::Box& index_box() const { return box_; }
  int depth() const { return depth_; }
  std::int64_t elements_per_depth() const { return box_.size(); }
  std::int64_t total_elements() const { return box_.size() * depth_; }
  vgpu::Device& device() const { return *device_; }

  /// Device-space view for kernels (host code must not dereference).
  util::View device_view(int d = 0) const;

  /// Checked view export for the compiled transfer plans: REQUIREs
  /// `region` to lie inside the array box and returns the plane view.
  util::View region_view(const mesh::Box& region, int d = 0) const;

  /// Fills `region` (clipped to the array box) with a constant, one
  /// thread per element.
  void fill(double value);
  void fill(double value, const mesh::Box& region);

  /// Downloads one depth plane to host memory (examples/diagnostics only;
  /// charges PCIe like any other crossing).
  std::vector<double> download_plane(int d = 0) const;

  /// Uploads a full host plane (initialisation).
  void upload_plane(const std::vector<double>& host, int d = 0);

 private:
  vgpu::Device* device_;
  mesh::Box box_;
  int depth_;
  vgpu::DeviceBuffer<double> buffer_;
  mutable vgpu::Stream stream_;
};

}  // namespace ramr::pdat::cuda
