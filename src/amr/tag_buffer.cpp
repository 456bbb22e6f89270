#include "amr/tag_buffer.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace ramr::amr {

using mesh::Box;
using mesh::IntVector;

namespace {

/// The low n bits set, n in [0, 64].
std::uint64_t low_bits(int n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Sets bits [x0, x1] of a row.
void set_range(std::uint64_t* row, int x0, int x1) {
  const int w0 = x0 >> 6;
  const int w1 = x1 >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t last = low_bits((x1 & 63) + 1);
  if (w0 == w1) {
    row[w0] |= first & last;
    return;
  }
  row[w0] |= first;
  std::fill(row + w0 + 1, row + w1, ~std::uint64_t{0});
  row[w1] |= last;
}

/// Set bits among [x0, x1] of a row.
std::int64_t count_range(const std::uint64_t* row, int x0, int x1) {
  const int w0 = x0 >> 6;
  const int w1 = x1 >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t last = low_bits((x1 & 63) + 1);
  if (w0 == w1) {
    return std::popcount(row[w0] & first & last);
  }
  std::int64_t n = std::popcount(row[w0] & first) + std::popcount(row[w1] & last);
  for (int w = w0 + 1; w < w1; ++w) {
    n += std::popcount(row[w]);
  }
  return n;
}

/// 64 bits of a packed 32-bit word array starting at bit `pos`; bits
/// past the array read as zero.
std::uint64_t read_bits(const std::vector<std::uint32_t>& words,
                        std::uint64_t pos) {
  const std::size_t k = static_cast<std::size_t>(pos >> 5);
  const int shift = static_cast<int>(pos & 31);
  const auto word = [&](std::size_t n) -> std::uint64_t {
    return n < words.size() ? words[n] : 0;
  };
  std::uint64_t v = (word(k) | word(k + 1) << 32) >> shift;
  if (shift != 0) {
    v |= word(k + 2) << (64 - shift);
  }
  return v;
}

/// dst |= src shifted by s bits toward higher x, and toward lower x
/// (bits shifted past either end of the row are dropped).
void or_shifted_both_ways(std::uint64_t* dst, const std::uint64_t* src,
                          int stride, int s) {
  const int q = s >> 6;
  const int r = s & 63;
  for (int k = 0; k < stride; ++k) {
    std::uint64_t v = 0;
    if (k - q >= 0) {
      v |= src[k - q] << r;
      if (r != 0 && k - q - 1 >= 0) {
        v |= src[k - q - 1] >> (64 - r);
      }
    }
    if (k + q < stride) {
      v |= src[k + q] >> r;
      if (r != 0 && k + q + 1 < stride) {
        v |= src[k + q + 1] << (64 - r);
      }
    }
    dst[k] |= v;
  }
}

}  // namespace

// ---------------------------------------------------------------------------

LevelTagData::LevelTagData(const std::vector<TagPatch>& patches) {
  boxes_.reserve(patches.size());
  for (std::size_t p = 0; p < patches.size(); ++p) {
    const TagPatch& tp = patches[p];
    RAMR_REQUIRE(!tp.box.empty() && tp.device != nullptr,
                 "tag patch " << p << " needs a cell box and a device");
    boxes_.push_back(tp.box);
    auto group = std::find_if(groups_.begin(), groups_.end(),
                              [&](const DeviceGroup& g) {
                                return g.device == tp.device;
                              });
    if (group == groups_.end()) {
      group = groups_.emplace(groups_.end());
      group->device = tp.device;
    }
    group->patches.push_back(p);
    group->cells.add(tp.box.lower().i, tp.box.lower().j, tp.box.width(),
                     tp.box.height());
  }
  for (DeviceGroup& g : groups_) {
    const std::int64_t n = g.cells.total_threads();
    g.tags = vgpu::DeviceBuffer<int>(*g.device, n);
    int* t = g.tags.device_ptr();
    for (std::size_t s = 0; s < g.cells.segment_count(); ++s) {
      const vgpu::LaunchSeg2D& seg = g.cells.segment(s);
      g.views.emplace_back(t + g.cells.offset(s), seg.ilo, seg.jlo, seg.width,
                           seg.height);
    }
    vgpu::Stream stream(*g.device, "tags");
    g.device->launch(stream, n, vgpu::KernelCost{0.0, 4.0},
                     [t](std::int64_t k) { t[k] = 0; });
  }
}

std::vector<std::vector<std::uint32_t>> LevelTagData::download_compressed() {
  std::vector<std::vector<std::uint32_t>> out(boxes_.size());
  for (DeviceGroup& g : groups_) {
    vgpu::Device& dev = *g.device;
    const vgpu::SegmentTable& cells = g.cells;
    const auto np = static_cast<std::int64_t>(g.patches.size());
    const int* t = g.tags.device_ptr();

    // Per-patch OR reduction in one fused kernel, then a single readback
    // of the P flags (paper: "if no cells in a patch are flagged ... we
    // don't copy data").
    vgpu::DeviceBuffer<int> flags(dev, np);
    int* f = flags.device_ptr();
    dev.charge_reduction(cells.total_threads(), sizeof(int));
    util::ThreadPool::global().parallel_for(
        np, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t s = begin; s < end; ++s) {
            const auto seg = static_cast<std::size_t>(s);
            const int* p = t + cells.offset(seg);
            const int* stop = p + cells.segment(seg).size();
            f[s] = std::any_of(p, stop, [](int v) { return v != 0; }) ? 1 : 0;
          }
        });
    std::vector<int> tagged(static_cast<std::size_t>(np));
    flags.download(tagged.data(), np);

    // Bit compression of the tagged patches only: one device thread per
    // output word reads 32 ints and writes one word; each patch's words
    // are one row of the fused launch, its argument the patch's cell
    // segment.
    vgpu::SegmentTable words;
    std::vector<std::int64_t> word_base(static_cast<std::size_t>(np), 0);
    for (std::size_t s = 0; s < tagged.size(); ++s) {
      if (tagged[s] != 0) {
        word_base[s] = words.total_threads();
        words.add(0, 0, static_cast<int>((cells.segment(s).size() + 31) / 32),
                  1, s);
      }
    }
    if (words.empty()) {
      continue;
    }
    vgpu::DeviceBuffer<std::uint32_t> packed(dev, words.total_threads());
    std::uint32_t* w = packed.device_ptr();
    vgpu::Stream stream(dev, "tags");
    dev.launch_batched(stream, words, vgpu::KernelCost{32.0, 32.0 * 4.0 + 4.0},
                       [&](std::size_t s, int word, int) {
                         const std::int64_t n = cells.segment(s).size();
                         const int* p = t + cells.offset(s);
                         const std::int64_t base = std::int64_t{word} * 32;
                         std::uint32_t bits = 0;
                         for (int b = 0; b < 32 && base + b < n; ++b) {
                           if (p[base + b] != 0) {
                             bits |= (1u << b);
                           }
                         }
                         w[word_base[s] + word] = bits;
                       });
    std::vector<std::uint32_t> host(static_cast<std::size_t>(words.total_threads()));
    packed.download(host.data(), words.total_threads());
    for (std::size_t q = 0; q < words.segment_count(); ++q) {
      const auto first = host.begin() + words.offset(q);
      out[g.patches[words.arg(q)]].assign(first,
                                          first + words.segment(q).size());
    }
  }
  return out;
}

std::vector<std::vector<int>> LevelTagData::download_raw() {
  std::vector<std::vector<int>> out(boxes_.size());
  for (DeviceGroup& g : groups_) {
    std::vector<int> host(static_cast<std::size_t>(g.tags.size()));
    g.tags.download(host.data(), g.tags.size());
    for (std::size_t s = 0; s < g.cells.segment_count(); ++s) {
      const auto first = host.begin() + g.cells.offset(s);
      out[g.patches[s]].assign(first, first + g.cells.segment(s).size());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

TagBitmap::TagBitmap(const Box& region)
    : region_(region), stride_((region.width() + 63) / 64) {
  RAMR_REQUIRE(!region.empty(), "tag bitmap over empty region");
  bits_.assign(static_cast<std::size_t>(stride_) *
                   static_cast<std::size_t>(region.height()),
               0u);
}

void TagBitmap::set(int i, int j) {
  RAMR_REQUIRE(region_.contains(IntVector(i, j)),
               "tag (" << i << "," << j << ") outside " << region_);
  const int x = i - region_.lower().i;
  row_ptr(j)[x >> 6] |= std::uint64_t{1} << (x & 63);
}

void TagBitmap::set(const Box& box) {
  if (box.empty()) {
    return;
  }
  RAMR_REQUIRE(region_.contains(box),
               "tag box " << box << " outside " << region_);
  const int x0 = box.lower().i - region_.lower().i;
  const int x1 = box.upper().i - region_.lower().i;
  for (int j = box.lower().j; j <= box.upper().j; ++j) {
    set_range(row_ptr(j), x0, x1);
  }
}

void TagBitmap::merge_compressed(const Box& patch_box,
                                 const std::vector<std::uint32_t>& words) {
  RAMR_REQUIRE(region_.contains(patch_box),
               "patch " << patch_box << " outside tag region " << region_);
  RAMR_REQUIRE(static_cast<std::int64_t>(words.size()) ==
                   (patch_box.size() + 31) / 32,
               "compressed tag size mismatch");
  // Patch row r is bits [r*width, (r+1)*width) of the words; OR it into
  // the bitmap row 64 bits at a time.
  const int width = patch_box.width();
  const int x0 = patch_box.lower().i - region_.lower().i;
  for (int r = 0; r < patch_box.height(); ++r) {
    std::uint64_t* dst = row_ptr(patch_box.lower().j + r);
    const std::uint64_t src = static_cast<std::uint64_t>(r) * width;
    for (int k = 0; k < width; k += 64) {
      const int n = std::min(64, width - k);
      const std::uint64_t v = read_bits(words, src + k) & low_bits(n);
      if (v == 0) {
        continue;
      }
      const int x = x0 + k;
      const int shift = x & 63;
      dst[x >> 6] |= v << shift;
      if (shift != 0 && shift + n > 64) {
        dst[(x >> 6) + 1] |= v >> (64 - shift);
      }
    }
  }
}

void TagBitmap::buffer(int b) {
  if (b <= 0) {
    return;
  }
  // Separable dilation: every row by b cells, then every column by b
  // rows, each over whole words. A radius-R dilation ORed with its
  // copies shifted by s <= R+1 is the radius-(R+s) dilation, so both
  // passes take O(log b) steps. Cells shifted off the region are
  // dropped; that is the clipping, and it loses nothing, because a cell
  // reachable through one outside the region is reachable through one
  // inside it too.
  const int width = region_.width();
  const int height = region_.height();
  const int bx = std::min(b, width - 1);
  const int by = std::min(b, height - 1);
  const std::uint64_t tail = low_bits(width - 64 * (stride_ - 1));
  std::vector<std::uint64_t> copy(static_cast<std::size_t>(stride_));
  for (int j = region_.lower().j; j <= region_.upper().j; ++j) {
    std::uint64_t* row = row_ptr(j);
    if (std::all_of(row, row + stride_, [](std::uint64_t w) { return w == 0; })) {
      continue;
    }
    for (int radius = 0; radius < bx;) {
      const int s = std::min(radius + 1, bx - radius);
      std::copy(row, row + stride_, copy.begin());
      or_shifted_both_ways(row, copy.data(), stride_, s);
      radius += s;
    }
    row[stride_ - 1] &= tail;
  }
  for (int radius = 0; radius < by;) {
    const int s = std::min(radius + 1, by - radius);
    const std::vector<std::uint64_t> before = bits_;
    for (int r = 0; r < height; ++r) {
      std::uint64_t* row = bits_.data() + static_cast<std::size_t>(r) * stride_;
      for (const int from : {r - s, r + s}) {
        if (from < 0 || from >= height) {
          continue;
        }
        const std::uint64_t* src =
            before.data() + static_cast<std::size_t>(from) * stride_;
        for (int k = 0; k < stride_; ++k) {
          row[k] |= src[k];
        }
      }
    }
    radius += s;
  }
}

std::int64_t TagBitmap::count_tags() const {
  std::int64_t n = 0;
  for (const std::uint64_t w : bits_) {
    n += std::popcount(w);
  }
  return n;
}

std::int64_t TagBitmap::count_tags(const Box& within) const {
  const Box r = region_.intersect(within);
  if (r.empty()) {
    return 0;
  }
  const int x0 = r.lower().i - region_.lower().i;
  const int x1 = r.upper().i - region_.lower().i;
  std::int64_t n = 0;
  for (int j = r.lower().j; j <= r.upper().j; ++j) {
    n += count_range(row(j).data(), x0, x1);
  }
  return n;
}

}  // namespace ramr::amr
