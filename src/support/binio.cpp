#include "tytra/support/binio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"

namespace tytra::binio {

namespace {

constexpr unsigned char kMagic[8] = {0x89, 'T', 'Y', 'C', 'S', 0x0d, 0x0a, 0x1a};
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4 + 8;
/// The header checksum field: the last 8 header bytes. The checksum covers
/// the prefix before it, which checksum64_of needs to be whole words.
constexpr std::size_t kChecksumOffset = kHeaderBytes - 8;
static_assert(kChecksumOffset % 8 == 0);
constexpr std::size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;
/// Sanity cap on the section count: the header is validated before the
/// table is read, and no legitimate container is anywhere near this.
constexpr std::uint32_t kMaxSections = 4096;

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

Diag corrupt(const std::string& what) {
  return make_error("snapshot container: " + what);
}

/// Word-at-a-time splitmix mixing of `bytes` into `h`; a partial last word
/// is zero-padded.
std::uint64_t mix_words(std::uint64_t h, std::string_view bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = hash_mix(h, w);
  }
  if (i < bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, bytes.size() - i);
    h = hash_mix(h, w);
  }
  return h;
}

constexpr std::uint64_t kChecksumSeed = 0x7459747261636b73ULL;

/// checksum64(head + tail) without building the concatenation. Exact only
/// when `head` is whole words, so no padding falls between the two parts.
std::uint64_t checksum64_of(std::string_view head, std::string_view tail) {
  const std::uint64_t h =
      hash_mix(kChecksumSeed, head.size() + tail.size());
  return mix_words(mix_words(h, head), tail);
}

FileStamp stamp_of(const struct stat& st) {
  return FileStamp{static_cast<std::uint64_t>(st.st_dev),
                   static_cast<std::uint64_t>(st.st_ino),
                   static_cast<std::uint64_t>(st.st_size),
                   static_cast<std::int64_t>(st.st_mtim.tv_sec),
                   static_cast<std::int64_t>(st.st_mtim.tv_nsec)};
}

}  // namespace

std::uint64_t checksum64(std::string_view bytes) {
  // Seeded with the length so "same bytes, different framing" cannot
  // collide with a truncation.
  return mix_words(hash_mix(kChecksumSeed, bytes.size()), bytes);
}

std::optional<FileStamp> stat_file(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return stamp_of(st);
}

tytra::Result<std::string> read_file(const std::string& path,
                                     FileStamp* stamp, bool* missing) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (missing) *missing = fd < 0 && errno == ENOENT;
  const auto fail = [&](const char* why) {
    if (fd >= 0) ::close(fd);
    return make_error("cannot read '" + path + "': " + why);
  };
  if (fd < 0) return fail(std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) return fail(std::strerror(errno));
  if (!S_ISREG(st.st_mode)) return fail("not a regular file");
  // Sized once from the fstat: no stream buffering, no growth copies. A
  // file that shrinks under the read comes back short, and the container
  // checks reject it like any other truncation.
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return fail(std::strerror(errno));
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  if (stamp) *stamp = stamp_of(st);
  return bytes;
}

// ---------------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------------

void Encoder::u32(std::uint32_t v) { put_u32(out_, v); }

void Encoder::u64(std::uint64_t v) { put_u64(out_, v); }

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view s) {
  u64(s.size());
  out_.append(s.data(), s.size());
}

const char* Decoder::take(std::size_t n) {
  if (!ok()) return nullptr;
  if (n > data_.size() - pos_) {
    fail("payload truncated (read past the end of a section)");
    return nullptr;
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Decoder::u8() {
  const char* p = take(1);
  return p ? static_cast<std::uint8_t>(*p) : 0;
}

std::uint32_t Decoder::u32() {
  const char* p = take(4);
  return p ? get_u32(p) : 0;
}

std::uint64_t Decoder::u64() {
  const char* p = take(8);
  return p ? get_u64(p) : 0;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::string Decoder::str() {
  const std::uint64_t n = u64();
  if (!ok()) return {};
  if (n > remaining()) {
    fail("payload truncated (string length exceeds the section)");
    return {};
  }
  const char* p = take(static_cast<std::size_t>(n));
  return p ? std::string(p, static_cast<std::size_t>(n)) : std::string();
}

void Decoder::fail(std::string reason) {
  if (error_.empty()) error_ = std::move(reason);
}

bool Decoder::at_end() {
  if (!ok()) return false;
  if (pos_ != data_.size()) {
    fail("payload has trailing bytes (schema mismatch)");
    return false;
  }
  return true;
}

bool Decoder::fits(std::uint64_t count, std::uint64_t min_bytes_each) {
  if (!ok()) return false;
  if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
    fail("payload count exceeds the section size (corrupt count field)");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::add_section(std::uint32_t id, std::string payload) {
  sections_.push_back(Section{id, std::move(payload)});
}

std::string Writer::render() const {
  const std::size_t table_bytes = kTableEntryBytes * sections_.size();
  std::uint64_t total = kHeaderBytes + table_bytes;
  for (const Section& s : sections_) total += s.payload.size();

  std::string out;
  out.reserve(static_cast<std::size_t>(total));
  out.append(reinterpret_cast<const char*>(kMagic), sizeof kMagic);
  put_u32(out, kFormatVersion);
  put_u32(out, kEndianTag);
  put_u32(out, static_cast<std::uint32_t>(sections_.size()));
  put_u32(out, 0);
  put_u64(out, 0);  // header checksum, filled in once the table is written
  std::uint64_t offset = kHeaderBytes + table_bytes;
  for (const Section& s : sections_) {
    put_u32(out, s.id);
    put_u32(out, 0);
    put_u64(out, offset);
    put_u64(out, s.payload.size());
    put_u64(out, checksum64(s.payload));
    offset += s.payload.size();
  }
  // The header checksum covers the header prefix (everything before the
  // checksum field itself) plus the table, so no single corrupted bit in
  // the file can survive undetected: payload flips hit a section
  // checksum, table/header flips hit this one, magic/endianness flips
  // hit their dedicated checks.
  const std::uint64_t header_checksum = checksum64_of(
      std::string_view(out.data(), kChecksumOffset),
      std::string_view(out.data() + kHeaderBytes, table_bytes));
  std::memcpy(out.data() + kChecksumOffset, &header_checksum, 8);
  for (const Section& s : sections_) out += s.payload;
  return out;
}

tytra::Result<std::uint64_t> Writer::write(const std::string& path) const {
  if (failpoint::fire("binio.write")) {
    return make_error("injected fault at failpoint 'binio.write' (writing '" +
                      path + "')");
  }
  const std::string bytes = render();
  const std::string tmp = path + ".tmp";

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return make_error("cannot create '" + tmp + "': " + std::strerror(errno));
  }
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = wrote == bytes.size() && std::fflush(f) == 0;
  // Durability half of atomicity: the payload must be on disk before the
  // rename publishes it, or a crash could publish a hole.
  if (ok) ok = ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return make_error("short write to '" + tmp + "': " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return make_error("cannot rename '" + tmp + "' over '" + path +
                      "': " + why);
  }
  // Make the rename itself durable (directory entry update).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return static_cast<std::uint64_t>(bytes.size());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

tytra::Result<Reader> Reader::open(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes.ok()) return bytes.diag();
  return from_bytes(std::move(bytes).take());
}

tytra::Result<Reader> Reader::from_bytes(std::string bytes) {
  if (failpoint::fire("binio.read")) {
    return corrupt("injected fault at failpoint 'binio.read'");
  }
  Reader r;
  r.data_ = std::move(bytes);
  const std::string& d = r.data_;

  if (d.size() < kHeaderBytes) {
    return corrupt("truncated header (" + std::to_string(d.size()) +
                   " bytes, need " + std::to_string(kHeaderBytes) + ")");
  }
  if (std::memcmp(d.data(), kMagic, sizeof kMagic) != 0) {
    return corrupt("bad magic (not a TyTra snapshot container)");
  }
  r.version_ = get_u32(d.data() + 8);
  const std::uint32_t endian = get_u32(d.data() + 12);
  if (endian != kEndianTag) {
    return corrupt("foreign endianness (written on an incompatible machine)");
  }
  if (r.version_ > kFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(r.version_) +
                   " (this build reads up to " +
                   std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = get_u32(d.data() + 16);
  if (count > kMaxSections) {
    return corrupt("implausible section count " + std::to_string(count));
  }
  const std::uint64_t table_checksum = get_u64(d.data() + kChecksumOffset);
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(kTableEntryBytes) * count;
  if (d.size() - kHeaderBytes < table_bytes) {
    return corrupt("truncated section table");
  }
  const std::string_view table(d.data() + kHeaderBytes,
                               static_cast<std::size_t>(table_bytes));
  // Mirrors Writer::render: the checksum spans the header prefix and the
  // table together.
  if (checksum64_of(std::string_view(d.data(), kChecksumOffset), table) !=
      table_checksum) {
    return corrupt("header/section-table checksum mismatch");
  }

  std::uint64_t expected_offset = kHeaderBytes + table_bytes;
  r.sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = table.data() + kTableEntryBytes * i;
    SectionInfo s;
    s.id = get_u32(e);
    s.offset = get_u64(e + 8);
    s.size = get_u64(e + 16);
    s.checksum = get_u64(e + 24);
    if (s.offset != expected_offset) {
      return corrupt("section " + std::to_string(i) +
                     " offset disagrees with the layout");
    }
    if (s.size > d.size() || s.offset > d.size() - s.size) {
      return corrupt("section " + std::to_string(i) +
                     " extends past the end of the file (truncated?)");
    }
    const std::string_view payload(d.data() + s.offset,
                                   static_cast<std::size_t>(s.size));
    if (checksum64(payload) != s.checksum) {
      return corrupt("section " + std::to_string(i) + " (id " +
                     std::to_string(s.id) + ") checksum mismatch");
    }
    expected_offset += s.size;
    r.sections_.push_back(s);
  }
  if (expected_offset != d.size()) {
    return corrupt("trailing bytes after the last section");
  }
  return r;
}

bool Reader::has_section(std::uint32_t id) const {
  for (const SectionInfo& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

std::string_view Reader::section(std::uint32_t id) const {
  for (const SectionInfo& s : sections_) {
    if (s.id == id) {
      return std::string_view(data_.data() + s.offset,
                              static_cast<std::size_t>(s.size));
    }
  }
  return {};
}

}  // namespace tytra::binio
