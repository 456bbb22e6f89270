#include "pdat/database.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/fnv1a.hpp"

namespace ramr::pdat {

namespace {

constexpr std::uint64_t kMagic = 0x52414d5244423032ull;  // "RAMRDB02"

void append_raw(std::vector<std::byte>& out, const void* data,
                std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + bytes);
}

}  // namespace

void Database::put_bytes(const std::string& key, const void* data,
                         std::size_t bytes) {
  auto& entry = entries_[key];
  entry.resize(bytes);
  if (bytes > 0) {
    std::memcpy(entry.data(), data, bytes);
  }
}

const std::vector<std::byte>& Database::get_bytes(const std::string& key) const {
  const auto it = entries_.find(key);
  RAMR_REQUIRE(it != entries_.end(), "missing restart key: " << key);
  return it->second;
}

std::vector<double> Database::get_doubles(const std::string& key) const {
  const auto& bytes = get_bytes(key);
  RAMR_REQUIRE(bytes.size() % sizeof(double) == 0,
               "restart key " << key << " is not a double array");
  std::vector<double> out(bytes.size() / sizeof(double));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

std::string Database::get_string(const std::string& key) const {
  const auto& bytes = get_bytes(key);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::vector<std::byte> Database::serialize() const {
  std::vector<std::byte> body;
  const std::uint64_t count = entries_.size();
  append_raw(body, &count, sizeof(count));
  for (const auto& [key, payload] : entries_) {
    const std::uint64_t klen = key.size();
    const std::uint64_t plen = payload.size();
    append_raw(body, &klen, sizeof(klen));
    append_raw(body, key.data(), klen);
    append_raw(body, &plen, sizeof(plen));
    append_raw(body, payload.data(), plen);
  }
  return body;
}

void Database::write_file(const std::string& path) const {
  // Serialise to memory first: the checksum covers the complete body, and
  // the file appears under its real name only via the atomic rename — a
  // crash mid-write leaves at worst a stale .tmp, never a torn file.
  const std::vector<std::byte> body = serialize();
  const std::uint64_t magic = kMagic;
  // FNV-1a catches truncation and bit rot.
  const std::uint64_t checksum =
      util::fnv1a(util::kFnvOffset, body.data(), body.size());
  const std::uint64_t body_bytes = body.size();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    RAMR_REQUIRE(os.good(), "cannot open " << tmp << " for writing");
    os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    os.write(reinterpret_cast<const char*>(&body_bytes), sizeof(body_bytes));
    os.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
    os.flush();
    RAMR_REQUIRE(os.good(), "write to " << tmp << " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  RAMR_REQUIRE(!ec, "cannot rename " << tmp << " to " << path << ": "
               << ec.message());
}

Database Database::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RAMR_REQUIRE(is.good(), "cannot open " << path << " for reading");
  std::uint64_t magic = 0;
  std::uint64_t checksum = 0;
  std::uint64_t body_bytes = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  RAMR_REQUIRE(is.good() && magic == kMagic,
               path << " is not a ramr restart file (bad or missing "
               "version header)");
  is.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  is.read(reinterpret_cast<char*>(&body_bytes), sizeof(body_bytes));
  RAMR_REQUIRE(is.good(), "truncated restart file " << path);
  std::vector<std::byte> body(body_bytes);
  is.read(reinterpret_cast<char*>(body.data()),
          static_cast<std::streamsize>(body.size()));
  RAMR_REQUIRE(is.good() &&
                   static_cast<std::uint64_t>(is.gcount()) == body_bytes,
               "truncated restart file " << path << " (expected "
               << body_bytes << " body bytes)");
  RAMR_REQUIRE(util::fnv1a(util::kFnvOffset, body.data(), body.size()) ==
                   checksum,
               "restart file " << path
               << " failed checksum verification (corrupt or truncated)");

  Database db;
  std::size_t at = 0;
  const auto take = [&](void* dst, std::size_t bytes) {
    RAMR_REQUIRE(at + bytes <= body.size(),
                 "corrupt restart file " << path << " (record overruns body)");
    std::memcpy(dst, body.data() + at, bytes);
    at += bytes;
  };
  std::uint64_t count = 0;
  take(&count, sizeof(count));
  for (std::uint64_t n = 0; n < count; ++n) {
    std::uint64_t klen = 0;
    take(&klen, sizeof(klen));
    std::string key(klen, '\0');
    take(key.data(), klen);
    std::uint64_t plen = 0;
    take(&plen, sizeof(plen));
    std::vector<std::byte> payload(plen);
    take(payload.data(), plen);
    db.entries_.emplace(std::move(key), std::move(payload));
  }
  return db;
}

std::vector<std::string> Database::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, payload] : entries_) {
    (void)payload;
    if (key.rfind(prefix, 0) == 0) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace ramr::pdat
