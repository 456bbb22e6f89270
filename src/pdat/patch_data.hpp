// The PatchData strategy interface (paper Fig. 2).
//
// Every simulation quantity on a patch is a PatchData object. SAMRAI's
// interface moves data through per-object copy and pack/unpack calls;
// here every PatchData instead exports its component planes as device
// views, and the compiled transfer plans (xfer::TransferSchedule) build
// one fused copy, pack or unpack launch over many objects from them (the
// mapping is spelled out in docs/transfer_api.md). Implementing this
// interface is what lets GPU-resident data (pdat::cuda) plug into the
// unmodified mesh-management machinery — the paper's key design point.
#pragma once

#include <memory>
#include <string>

#include "mesh/box.hpp"
#include "pdat/database.hpp"
#include "util/array_view.hpp"

namespace ramr::vgpu {
class Device;
}  // namespace ramr::vgpu

namespace ramr::pdat {

/// Abstract base for all patch-resident data.
class PatchData {
 public:
  PatchData(const mesh::Box& cell_box, const mesh::IntVector& ghosts,
            mesh::Centering centering, int depth)
      : box_(cell_box),
        ghosts_(ghosts),
        ghost_box_(cell_box.grow(ghosts)),
        centering_(centering),
        depth_(depth) {}

  virtual ~PatchData() = default;

  PatchData(const PatchData&) = delete;
  PatchData& operator=(const PatchData&) = delete;

  /// Interior cell box of the owning patch.
  const mesh::Box& box() const { return box_; }

  /// Interior cell box grown by the ghost width.
  const mesh::Box& ghost_box() const { return ghost_box_; }

  const mesh::IntVector& ghost_cell_width() const { return ghosts_; }

  mesh::Centering centering() const { return centering_; }
  int depth() const { return depth_; }

  double time() const { return time_; }
  void set_time(double t) { time_ = t; }

  /// Device owning the exported views.
  virtual vgpu::Device* transfer_device() const = 0;

  /// View of component `k`, depth plane `d`, valid at least over `region`
  /// (a box in the component's index space).
  virtual util::View transfer_view(int k, int d, const mesh::Box& region) const = 0;

  /// Checkpoint support (Fig. 2: putToRestart / getFromRestart): writes
  /// or reads all component arrays under `prefix` in the database.
  virtual void put_to_restart(class Database& db, const std::string& prefix) const = 0;
  virtual void get_from_restart(const class Database& db, const std::string& prefix) = 0;

 private:
  mesh::Box box_;
  mesh::IntVector ghosts_;
  mesh::Box ghost_box_;
  mesh::Centering centering_;
  int depth_;
  double time_ = 0.0;
};

/// Abstract factory: a variable registers one of these so levels can
/// allocate the matching concrete PatchData for each patch.
class PatchDataFactory {
 public:
  virtual ~PatchDataFactory() = default;
  virtual std::unique_ptr<PatchData> allocate(const mesh::Box& cell_box) const = 0;

  /// Allocates scratch storage with an explicit ghost width (used by the
  /// communication schedules for temporary gather regions).
  virtual std::unique_ptr<PatchData> allocate_with_ghosts(
      const mesh::Box& cell_box, const mesh::IntVector& ghosts) const = 0;

  /// Allocates on an explicit device (multi-device ranks: the patch's
  /// assigned device, see vgpu::Topology); null means the factory's
  /// default device.
  virtual std::unique_ptr<PatchData> allocate_on(const mesh::Box& cell_box,
                                                 vgpu::Device* device) const = 0;
  virtual std::unique_ptr<PatchData> allocate_with_ghosts_on(
      const mesh::Box& cell_box, const mesh::IntVector& ghosts,
      vgpu::Device* device) const = 0;

  virtual mesh::Centering centering() const = 0;
  virtual mesh::IntVector ghosts() const = 0;
  virtual int depth() const = 0;
};

}  // namespace ramr::pdat
