// Ablation: bit-compressed tag transfer (paper §IV-C). Tags are
// computed on the device as ints; the paper compresses them to bits
// before the PCIe transfer (32x smaller) and skips untagged patches
// entirely via a per-patch flag. Counters report the transferred bytes
// and modeled time of each variant, for a level of `patches` 64^2
// patches on one device (one fused pass, whatever the patch count).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "amr/tag_buffer.hpp"
#include "vgpu/device_spec.hpp"

namespace {

using ramr::amr::LevelTagData;
using ramr::mesh::Box;

/// A level of n x n cells chopped into 64^2 patches.
LevelTagData make_level(ramr::vgpu::Device& dev, int n) {
  std::vector<ramr::amr::TagPatch> patches;
  for (int j = 0; j < n; j += 64) {
    for (int i = 0; i < n; i += 64) {
      patches.push_back({Box(i, j, std::min(i + 63, n - 1),
                             std::min(j + 63, n - 1)),
                         &dev});
    }
  }
  return LevelTagData(patches);
}

/// Tags a diagonal band (a shock-front-like pattern, ~10% of cells) in
/// one fused launch.
void tag_band(ramr::vgpu::Device& dev, LevelTagData& tags, int n) {
  LevelTagData::DeviceGroup& g = tags.groups()[0];
  ramr::vgpu::Stream s(dev, "bench");
  dev.launch_batched(s, g.cells, ramr::vgpu::KernelCost{2.0, 4.0},
                     [&](std::size_t seg, int i, int j) {
                       g.views[seg](i, j) = (std::abs(i - j) < n / 20) ? 1 : 0;
                     });
}

void BM_CompressedTagDownload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ramr::vgpu::Device dev(ramr::vgpu::tesla_k20x());
  LevelTagData tags = make_level(dev, n);
  tag_band(dev, tags, n);
  dev.clock().reset();
  dev.transfers().reset();
  for (auto _ : state) {
    auto words = tags.download_compressed();
    benchmark::DoNotOptimize(words.data());
  }
  state.counters["patches"] = static_cast<double>(tags.patch_count());
  state.counters["bytes_per_transfer"] =
      static_cast<double>(dev.transfers().d2h_bytes) / state.iterations();
  state.counters["modeled_us"] = dev.clock().total() / state.iterations() * 1e6;
}
BENCHMARK(BM_CompressedTagDownload)->Arg(128)->Arg(512)->Arg(2048);

void BM_RawTagDownload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ramr::vgpu::Device dev(ramr::vgpu::tesla_k20x());
  LevelTagData tags = make_level(dev, n);
  tag_band(dev, tags, n);
  dev.clock().reset();
  dev.transfers().reset();
  for (auto _ : state) {
    auto ints = tags.download_raw();
    benchmark::DoNotOptimize(ints.data());
  }
  state.counters["bytes_per_transfer"] =
      static_cast<double>(dev.transfers().d2h_bytes) / state.iterations();
  state.counters["modeled_us"] = dev.clock().total() / state.iterations() * 1e6;
}
BENCHMARK(BM_RawTagDownload)->Arg(128)->Arg(512)->Arg(2048);

void BM_UntaggedLevelShortCircuit(benchmark::State& state) {
  // An untagged level costs one flag readback per device, not a tag
  // array transfer.
  const int n = static_cast<int>(state.range(0));
  ramr::vgpu::Device dev(ramr::vgpu::tesla_k20x());
  LevelTagData tags = make_level(dev, n);
  dev.clock().reset();
  dev.transfers().reset();
  for (auto _ : state) {
    auto words = tags.download_compressed();
    benchmark::DoNotOptimize(words.data());
  }
  state.counters["bytes_per_check"] =
      static_cast<double>(dev.transfers().d2h_bytes) / state.iterations();
  state.counters["modeled_us"] = dev.clock().total() / state.iterations() * 1e6;
}
BENCHMARK(BM_UntaggedLevelShortCircuit)->Arg(512)->Arg(2048);

}  // namespace
