#include "pipeline/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "pipeline/live_session.hpp"
#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'M', 'L', 'P', 'C',
                                                'K', 'P', 'T', '\0'};
constexpr std::size_t kHeaderBytes = 24;  // magic + version + length + CRC

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82F63B78u : 0u);
    table[i] = crc;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc32c_table();

std::string errno_text() { return std::strerror(errno); }

/// Whole-file read; CheckpointError on a missing or unreadable path.
std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw CheckpointError("checkpoint: open " + path + ": " + errno_text());
  std::vector<std::uint8_t> data;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_text();
      ::close(fd);
      throw CheckpointError("checkpoint: read " + path + ": " + err);
    }
    if (n == 0) break;
    data.insert(data.end(), chunk.begin(), chunk.begin() + n);
  }
  ::close(fd);
  return data;
}

void write_all(int fd, const std::string& path,
               std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_text();
      ::close(fd);
      throw CheckpointError("checkpoint: write " + path + ": " + err);
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Best-effort directory fsync so the renames themselves are durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, std::max<std::size_t>(1, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// The generation fallback: decode PATH, then PATH.1, and return the
/// first payload `accept` takes without throwing. `what` names the
/// outcome in the error when neither does.
template <typename Accept>
LoadedCheckpoint first_generation(const std::string& path, const char* what,
                                  const Accept& accept) {
  std::string errors;
  const std::array<std::string, 2> generations = {path, path + ".1"};
  for (std::size_t g = 0; g < generations.size(); ++g) {
    try {
      std::vector<std::uint8_t> payload =
          decode_checkpoint(read_file(generations[g]));
      accept(payload);
      return LoadedCheckpoint{std::move(payload), g == 1};
    } catch (const std::exception& e) {
      if (!errors.empty()) errors += "; ";
      errors += generations[g] + ": " + e.what();
    }
  }
  throw CheckpointError(std::string("checkpoint: no ") + what +
                        " generation (" + errors + ")");
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data)
    crc = (crc >> 8) ^ kCrcTable[(crc ^ byte) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_checkpoint(
    std::span<const std::uint8_t> payload) {
  ByteWriter writer;
  writer.bytes(std::span<const std::uint8_t>(kMagic));
  writer.u32(kCheckpointVersion);
  writer.u64(payload.size());
  writer.u32(crc32c(payload));
  writer.bytes(payload);
  return writer.take();
}

std::vector<std::uint8_t> decode_checkpoint(
    std::span<const std::uint8_t> image) {
  if (image.size() < kHeaderBytes)
    throw ParseError("checkpoint: " + std::to_string(image.size()) +
                     " bytes is shorter than the file header");
  if (!std::equal(kMagic.begin(), kMagic.end(), image.begin()))
    throw ParseError("checkpoint: bad magic (not a checkpoint file)");
  ByteReader reader(image.subspan(kMagic.size()));
  const std::uint32_t version = reader.u32();
  if (version != kCheckpointVersion)
    throw ParseError("checkpoint: version " + std::to_string(version) +
                     " (this build speaks " +
                     std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t length = reader.u64();
  const std::uint32_t crc = reader.u32();
  if (length != image.size() - kHeaderBytes)
    throw ParseError("checkpoint: header claims " + std::to_string(length) +
                     " payload bytes, file carries " +
                     std::to_string(image.size() - kHeaderBytes) +
                     " (torn write)");
  const std::span<const std::uint8_t> payload = image.subspan(kHeaderBytes);
  if (crc32c(payload) != crc)
    throw ParseError("checkpoint: CRC mismatch (torn write or corruption)");
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> image = encode_checkpoint(payload);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw CheckpointError("checkpoint: open " + tmp + ": " + errno_text());
  write_all(fd, tmp, image);
  if (::fsync(fd) != 0) {
    const std::string err = errno_text();
    ::close(fd);
    throw CheckpointError("checkpoint: fsync " + tmp + ": " + err);
  }
  ::close(fd);
  // Rotate the current generation aside, then publish the new one. A
  // crash between the renames leaves only path.1 -- the loader's
  // fallback -- and a crash before them leaves path untouched: every
  // interleaving keeps at least one complete, CRC-valid generation.
  if (::rename(path.c_str(), (path + ".1").c_str()) != 0 && errno != ENOENT)
    throw CheckpointError("checkpoint: rotate " + path + ": " + errno_text());
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw CheckpointError("checkpoint: rename " + tmp + ": " + errno_text());
  sync_parent_dir(path);
}

LoadedCheckpoint read_checkpoint_file(const std::string& path) {
  return first_generation(path, "loadable",
                          [](const std::vector<std::uint8_t>&) {});
}

void save_checkpoint(LiveSession& session, const std::string& path) {
  // serialize_state() holds the session locks; the disk writes below do
  // not -- feeds stall for the in-memory capture only.
  const std::vector<std::uint8_t> payload = session.serialize_state();
  write_checkpoint_file(path, payload);
}

LoadedCheckpoint restore_checkpoint(LiveSession& session,
                                    const std::string& path) {
  // Generation by generation: restore_state() is all-or-nothing, so a
  // newest-generation payload that fails to apply leaves the session
  // clean for the fallback attempt.
  return first_generation(path, "restorable",
                          [&](const std::vector<std::uint8_t>& payload) {
                            session.restore_state(payload);
                          });
}

}  // namespace mlp::pipeline
