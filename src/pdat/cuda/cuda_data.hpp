// GPU-resident PatchData implementations: CudaCellData, CudaNodeData and
// CudaSideData (paper Fig. 3), plus their factory.
//
// Each data-centring owns CudaArrayData objects sized by passing "a
// slightly different Box" (the centring index-space map) to the common
// store, exactly as the paper describes. Because these classes implement
// the PatchData interface (Fig. 2), the unmodified mesh-management and
// communication machinery works on GPU-resident data: this is the
// resident-AMR contribution.
#pragma once

#include <vector>

#include "pdat/cuda/cuda_array_data.hpp"
#include "pdat/patch_data.hpp"

namespace ramr::pdat::cuda {

/// Common implementation for device-resident array PatchData.
class CudaData : public PatchData {
 public:
  CudaData(vgpu::Device& device, const mesh::Box& cell_box,
           const mesh::IntVector& ghosts, mesh::Centering centering, int depth);

  vgpu::Device& device() const { return *device_; }

  int components() const { return static_cast<int>(arrays_.size()); }
  CudaArrayData& component(int k) { return arrays_[static_cast<std::size_t>(k)]; }
  const CudaArrayData& component(int k) const {
    return arrays_[static_cast<std::size_t>(k)];
  }

  /// Device-space view of component k, plane d, for kernel arguments.
  util::View device_view(int k = 0, int d = 0) const {
    return component(k).device_view(d);
  }

  void fill(double value);

  /// Transfer view export: the compiled transfer plans index the
  /// component planes directly.
  vgpu::Device* transfer_device() const override { return device_; }
  util::View transfer_view(int k, int d, const mesh::Box& region) const override {
    return component(k).region_view(region, d);
  }

  /// Checkpointing crosses PCIe by design (a full-field download/upload,
  /// charged and logged like any other crossing).
  void put_to_restart(Database& db, const std::string& prefix) const override;
  void get_from_restart(const Database& db, const std::string& prefix) override;

 private:
  vgpu::Device* device_;
  std::vector<CudaArrayData> arrays_;
};

/// Cell-centred device data (density, energy, pressure, viscosity, ...).
class CudaCellData : public CudaData {
 public:
  CudaCellData(vgpu::Device& device, const mesh::Box& cell_box,
               const mesh::IntVector& ghosts, int depth = 1)
      : CudaData(device, cell_box, ghosts, mesh::Centering::kCell, depth) {}
};

/// Node-centred device data (velocities).
class CudaNodeData : public CudaData {
 public:
  CudaNodeData(vgpu::Device& device, const mesh::Box& cell_box,
               const mesh::IntVector& ghosts, int depth = 1)
      : CudaData(device, cell_box, ghosts, mesh::Centering::kNode, depth) {}
};

/// Side-centred device data (volume / mass fluxes), x- and y-face
/// components.
class CudaSideData : public CudaData {
 public:
  CudaSideData(vgpu::Device& device, const mesh::Box& cell_box,
               const mesh::IntVector& ghosts, int depth = 1)
      : CudaData(device, cell_box, ghosts, mesh::Centering::kSide, depth) {}
};

/// Factory producing device-resident data on a fixed device.
class CudaDataFactory : public PatchDataFactory {
 public:
  CudaDataFactory(vgpu::Device& device, mesh::Centering centering,
                  mesh::IntVector ghosts, int depth = 1)
      : device_(&device), centering_(centering), ghosts_(ghosts), depth_(depth) {}

  std::unique_ptr<PatchData> allocate(const mesh::Box& cell_box) const override {
    return std::make_unique<CudaData>(*device_, cell_box, ghosts_, centering_,
                                      depth_);
  }
  std::unique_ptr<PatchData> allocate_with_ghosts(
      const mesh::Box& cell_box, const mesh::IntVector& ghosts) const override {
    return std::make_unique<CudaData>(*device_, cell_box, ghosts, centering_,
                                      depth_);
  }
  std::unique_ptr<PatchData> allocate_on(const mesh::Box& cell_box,
                                         vgpu::Device* device) const override {
    return std::make_unique<CudaData>(device != nullptr ? *device : *device_,
                                      cell_box, ghosts_, centering_, depth_);
  }
  std::unique_ptr<PatchData> allocate_with_ghosts_on(
      const mesh::Box& cell_box, const mesh::IntVector& ghosts,
      vgpu::Device* device) const override {
    return std::make_unique<CudaData>(device != nullptr ? *device : *device_,
                                      cell_box, ghosts, centering_, depth_);
  }
  mesh::Centering centering() const override { return centering_; }
  mesh::IntVector ghosts() const override { return ghosts_; }
  int depth() const override { return depth_; }

 private:
  vgpu::Device* device_;
  mesh::Centering centering_;
  mesh::IntVector ghosts_;
  int depth_;
};

}  // namespace ramr::pdat::cuda
