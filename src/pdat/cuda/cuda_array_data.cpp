#include "pdat/cuda/cuda_array_data.hpp"

#include "util/error.hpp"

namespace ramr::pdat::cuda {

using mesh::Box;

CudaArrayData::CudaArrayData(vgpu::Device& device, const Box& index_box,
                             int depth)
    : device_(&device),
      box_(index_box),
      depth_(depth),
      buffer_(device, index_box.size() * depth),
      stream_(device, "pdat") {
  RAMR_REQUIRE(!index_box.empty(), "CudaArrayData over empty box");
  RAMR_REQUIRE(depth >= 1, "CudaArrayData depth must be >= 1");
}

util::View CudaArrayData::device_view(int d) const {
  RAMR_DEBUG_ASSERT(d >= 0 && d < depth_);
  double* plane = buffer_.device_ptr() +
                  static_cast<std::int64_t>(d) * elements_per_depth();
  return util::View(plane, box_.lower().i, box_.lower().j, box_.width(),
                    box_.height());
}

util::View CudaArrayData::region_view(const mesh::Box& region, int d) const {
  RAMR_REQUIRE(box_.contains(region),
               "transfer region " << region << " outside device array "
               << box_);
  return device_view(d);
}

void CudaArrayData::fill(double value) { fill(value, box_); }

void CudaArrayData::fill(double value, const Box& region) {
  const Box r = box_.intersect(region);
  if (r.empty()) {
    return;
  }
  for (int d = 0; d < depth_; ++d) {
    util::View v = device_view(d);
    device_->launch2d(stream_, r.lower().i, r.lower().j, r.width(), r.height(),
                      vgpu::KernelCost{0.0, 8.0},
                      [=](int i, int j) { v(i, j) = value; });
  }
}

std::vector<double> CudaArrayData::download_plane(int d) const {
  std::vector<double> host(static_cast<std::size_t>(elements_per_depth()));
  buffer_.download(host.data(), elements_per_depth(),
                   static_cast<std::int64_t>(d) * elements_per_depth());
  return host;
}

void CudaArrayData::upload_plane(const std::vector<double>& host, int d) {
  RAMR_REQUIRE(static_cast<std::int64_t>(host.size()) == elements_per_depth(),
               "upload_plane size mismatch");
  buffer_.upload(host.data(), elements_per_depth(),
                 static_cast<std::int64_t>(d) * elements_per_depth());
}

}  // namespace ramr::pdat::cuda
