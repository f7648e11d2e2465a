#pragma once

// Versioned binary container for on-disk artifacts (cost-cache snapshots,
// calibration stores). The robustness contract, not the format, is the
// point: every way an artifact can be wrong on disk — truncated mid-write,
// bit-flipped at rest, produced by a newer format, produced on a
// foreign-endianness machine, or simply not one of our files — is a
// *detected* condition reported as a structured tytra::Result error, never
// a crash, never silently-trusted garbage.
//
// Layout:
//
//   [ 8] magic        0x89 'T' 'Y' 'C' 'S' 0x0d 0x0a 0x1a  (PNG-style: the
//                     high bit, CRLF and ^Z catch text-mode and 7-bit
//                     transfer mangling as well as "wrong file entirely")
//   [ 4] u32 format version (kFormatVersion; readers reject newer files)
//   [ 4] u32 endian tag 0x01020304 (fields are stored native-endian; a
//                     foreign-endianness file is rejected up front instead
//                     of decoding into nonsense)
//   [ 4] u32 section count
//   [ 4] u32 reserved (0)
//   [ 8] u64 checksum of the header prefix (bytes 0..24) + section table
//                     — so no single corrupted bit anywhere in the file
//                     goes undetected
//   per section: { u32 id, u32 reserved, u64 offset, u64 size,
//                  u64 checksum of the payload bytes }
//   payloads, back to back; the file ends exactly after the last payload
//   (trailing bytes are corruption, not slack).
//
// Writes are atomic: the container is rendered to `path + ".tmp"`, fsynced,
// and renamed over `path` — a crash mid-save leaves either the complete old
// snapshot or a stray .tmp, never a half-written file a later load trusts.
// Reads are one open, one fstat and one sized read; the fstat also yields
// the file's FileStamp, which lets a caller tell later whether the file it
// read has been rewritten or replaced since.
//
// Encoder/Decoder are the typed byte streams inside a section payload. The
// Decoder is bounds-checked and sticky-failing: any read past the end or
// any caller-flagged validation failure (bad enum value, absurd count)
// latches the first error and makes every subsequent read return zero, so
// decode code can be written straight-line and checked once at the end.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tytra/support/diag.hpp"

namespace tytra::binio {

/// Current container format version. Bump when the container layout (not a
/// payload's schema — those carry their own versions) changes.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Stable 64-bit checksum of a byte string (splitmix-style word mixing —
/// the same mixing discipline as support/hash.hpp, so it is deterministic
/// across platforms and runs). Not cryptographic: it detects truncation,
/// bit flips and transposition, not an adversary.
std::uint64_t checksum64(std::string_view bytes);

/// The filesystem identity of a file's contents: device, inode, size and
/// modification time. An atomic replace (new inode), a rewrite in place
/// (new mtime) or a resize all change it; equal stamps mean the file has
/// not been touched, to the resolution of the filesystem's timestamps.
struct FileStamp {
  std::uint64_t dev{0};
  std::uint64_t ino{0};
  std::uint64_t size{0};
  std::int64_t mtime_sec{0};
  std::int64_t mtime_nsec{0};

  friend bool operator==(const FileStamp&, const FileStamp&) = default;
};

/// The stamp `path` has now; nullopt when it cannot be stat'ed (missing).
std::optional<FileStamp> stat_file(const std::string& path);

/// Reads the whole of the regular file `path` with one open, one fstat and
/// one sized read. `stamp`, when non-null, receives the stamp of the
/// descriptor that was read. `missing`, when non-null, is set to whether
/// the open failed because the file does not exist (ENOENT) — the one
/// failure a warm start treats as a normal first run.
tytra::Result<std::string> read_file(const std::string& path,
                                     FileStamp* stamp = nullptr,
                                     bool* missing = nullptr);

/// Appends typed fields to a byte buffer (a section payload).
class Encoder {
 public:
  /// Pre-sizes the buffer for `bytes` more bytes of fields.
  void reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Length-prefixed byte string.
  void str(std::string_view s);

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a section payload. Sticky failure: the first
/// out-of-bounds read or fail() call latches an error message; all later
/// reads return zero values. Check ok() once after decoding.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  /// Marks the stream failed with a reason (bad enum value, impossible
  /// count, ...). Only the first failure is retained.
  void fail(std::string reason);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t remaining() const { return data_.size() - pos_; }
  /// True when the stream was consumed exactly; otherwise fails the stream
  /// (leftover bytes mean the payload and the decoder disagree on schema).
  bool at_end();
  /// Validates that `count` elements of at least `min_bytes_each` can still
  /// fit in the remaining bytes; fails the stream and returns false
  /// otherwise. Call before reserving containers, so a corrupt count is a
  /// clean decode error instead of a giant allocation.
  bool fits(std::uint64_t count, std::uint64_t min_bytes_each);

 private:
  const char* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_{0};
  std::string error_;
};

/// Info about one section (for inspection tools).
struct SectionInfo {
  std::uint32_t id{0};
  std::uint64_t offset{0};
  std::uint64_t size{0};
  std::uint64_t checksum{0};
};

/// Assembles a container and writes it atomically.
class Writer {
 public:
  /// Adds a section. Ids need not be unique or ordered, but readers find
  /// only the first of a duplicated id.
  void add_section(std::uint32_t id, std::string payload);

  /// Renders the complete container to memory (header + table + payloads).
  [[nodiscard]] std::string render() const;

  /// Atomic write: renders to `path + ".tmp"`, fsyncs, and renames over
  /// `path`. Returns the byte count written, or a diagnostic (unwritable
  /// directory, failed rename, short write).
  [[nodiscard]] tytra::Result<std::uint64_t> write(
      const std::string& path) const;

 private:
  struct Section {
    std::uint32_t id;
    std::string payload;
  };
  std::vector<Section> sections_;
};

/// Validates and indexes a container. `open`/`from_bytes` perform the full
/// integrity walk up front — magic, endianness, version, header checksum,
/// section-table bounds, per-section checksums, exact file length — so a
/// Reader you hold is a Reader whose every section is intact.
class Reader {
 public:
  /// read_file + from_bytes.
  static tytra::Result<Reader> open(const std::string& path);
  static tytra::Result<Reader> from_bytes(std::string bytes);

  [[nodiscard]] bool has_section(std::uint32_t id) const;
  /// The payload of the first section with this id; empty view when absent
  /// (disambiguate with has_section). Views into the Reader's buffer —
  /// valid for the Reader's lifetime.
  [[nodiscard]] std::string_view section(std::uint32_t id) const;

  [[nodiscard]] const std::vector<SectionInfo>& sections() const {
    return sections_;
  }
  [[nodiscard]] std::uint32_t format_version() const { return version_; }
  [[nodiscard]] std::uint64_t file_size() const { return data_.size(); }

 private:
  Reader() = default;

  std::string data_;
  std::vector<SectionInfo> sections_;
  std::uint32_t version_{0};
};

}  // namespace tytra::binio
