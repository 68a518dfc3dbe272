// JsonWriter: the one JSON emitter the BENCH_*.json files are written with.
//
// The caller opens and closes objects and arrays and writes keys and
// values; the writer places commas, quotes and escapes. The layout is
// fixed so every BENCH file reads the same: each member of the root
// object, and each element of an array that holds objects or arrays,
// starts its own line; everything else stays inline. Doubles are written
// in fixed notation with the caller's decimals, a non-finite one as null.
#ifndef LIVESIM_UTIL_JSON_WRITER_H
#define LIVESIM_UTIL_JSON_WRITER_H

#include <cinttypes>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace livesim {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{', false); }
  JsonWriter& begin_array() { return open('[', true); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    value(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) {
        q += c;
        continue;
      }
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      q += esc;
    }
    return raw(q + '"', false);
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false", false); }
  JsonWriter& value(std::integral auto v) {
    return raw(std::to_string(v), false);
  }
  JsonWriter& value(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return raw(std::isfinite(v) ? buf : "null", false);
  }

  /// key(k) followed by value(v...).
  template <class... V>
  JsonWriter& field(std::string_view k, const V&... v) {
    return key(k).value(v...);
  }

  /// A 64-bit fingerprint as the 16-digit hex string the benches print.
  static std::string hex(std::uint64_t bits) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    return buf;
  }

  const std::string& str() const noexcept { return out_; }

  /// Writes the document to `path`. A failed open, write or closing
  /// flush prints "cannot write <path>" to stderr and returns false, so
  /// a truncated file never passes for a written one.
  bool save(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    bool ok = f != nullptr &&
              std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) std::fprintf(stderr, "cannot write %s\n", path);
    return ok;
  }

 private:
  struct Frame {
    bool array = false;
    bool empty = true;
    bool broken = false;  // some element started its own line
  };

  JsonWriter& open(char c, bool array) {
    raw(std::string(1, c), true);
    stack_.push_back({array});
    return *this;
  }

  JsonWriter& close(char c) {
    const bool broken = stack_.back().broken;
    stack_.pop_back();
    if (broken) newline();
    out_ += c;
    if (stack_.empty()) out_ += '\n';
    return *this;
  }

  /// Appends one key, value or opening bracket, preceded by its
  /// separator and line break (none for a value that follows its key).
  JsonWriter& raw(const std::string& text, bool container) {
    if (!after_key_ && !stack_.empty()) {
      Frame& f = stack_.back();
      if (!f.empty) out_ += ',';
      if ((stack_.size() == 1 && !f.array) || (f.array && container)) {
        f.broken = true;
        newline();
      } else if (!f.empty) {
        out_ += ' ';
      }
      f.empty = false;
    }
    after_key_ = false;
    out_ += text;
    return *this;
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

/// The determinism block every thread-sweeping bench writes:
/// {"threads": [...], "fingerprints": [...], "identical": all equal}.
inline void write_determinism(
    JsonWriter& w, std::span<const std::pair<unsigned, std::uint64_t>> fps) {
  bool identical = true;
  w.key("determinism").begin_object().key("threads").begin_array();
  for (const auto& [threads, fp] : fps) w.value(threads);
  w.end_array().key("fingerprints").begin_array();
  for (const auto& [threads, fp] : fps) {
    w.value(JsonWriter::hex(fp));
    identical = identical && fp == fps.front().second;
  }
  w.end_array().field("identical", identical).end_object();
}

}  // namespace livesim

#endif  // LIVESIM_UTIL_JSON_WRITER_H
