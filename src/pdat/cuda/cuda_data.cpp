#include "pdat/cuda/cuda_data.hpp"

#include "util/error.hpp"

namespace ramr::pdat::cuda {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;

CudaData::CudaData(vgpu::Device& device, const Box& cell_box,
                   const IntVector& ghosts, Centering centering, int depth)
    : PatchData(cell_box, ghosts, centering, depth), device_(&device) {
  const int ncomp = mesh::centering_components(centering);
  arrays_.reserve(static_cast<std::size_t>(ncomp));
  for (int k = 0; k < ncomp; ++k) {
    const Centering comp = mesh::component_centering(centering, k);
    arrays_.emplace_back(device, mesh::to_centering(ghost_box(), comp), depth);
  }
}

void CudaData::fill(double value) {
  for (CudaArrayData& a : arrays_) {
    a.fill(value);
  }
}

void CudaData::put_to_restart(Database& db, const std::string& prefix) const {
  db.put_value<double>(prefix + ".time", time());
  for (int k = 0; k < components(); ++k) {
    for (int d = 0; d < depth(); ++d) {
      const std::vector<double> plane = component(k).download_plane(d);
      db.put_doubles(prefix + ".c" + std::to_string(k) + ".d" + std::to_string(d),
                     plane.data(), plane.size());
    }
  }
}

void CudaData::get_from_restart(const Database& db, const std::string& prefix) {
  set_time(db.get_value<double>(prefix + ".time"));
  for (int k = 0; k < components(); ++k) {
    for (int d = 0; d < depth(); ++d) {
      const auto values = db.get_doubles(prefix + ".c" + std::to_string(k) +
                                         ".d" + std::to_string(d));
      component(k).upload_plane(values, d);
    }
  }
}

}  // namespace ramr::pdat::cuda
