#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "util/chaos.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace memstress::checkpoint {

namespace {

const char kFooterTag[] = "#memstress-ckpt";

/// One warning per distinct (path, reason) pair: a polling consumer that
/// keeps hitting the same bad file does not spam the log.
void warn_once(const std::string& path, const std::string& reason) {
  static std::mutex mutex;
  static std::set<std::string> seen;
  const std::string key = path + "\n" + reason;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (!seen.insert(key).second) return;
  }
  log_warn("checkpoint: ", path, ": ", reason,
           "; restarting from scratch");
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::uint32_t crc32(const std::string& text) {
  return crc32(text.data(), text.size());
}

std::string crc32_hex(const std::string& text) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", crc32(text));
  return hex;
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(fd >= 0, "checkpoint: cannot create " + temp + ": " +
                       std::strerror(errno));
  std::size_t written = 0;
  bool ok = true;
  while (ok && written < contents.size()) {
    const ssize_t n = ::write(fd, contents.data() + written,
                              contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      written += static_cast<std::size_t>(n);
    }
  }
  // fsync before rename: otherwise the rename can hit disk before the data
  // and a power cut exposes a complete-looking file of garbage.
  ok = ok && ::fsync(fd) == 0;
  const int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(temp.c_str());
    throw Error("checkpoint: write failed for " + temp + ": " +
                std::strerror(saved_errno));
  }
  chaos::crash_point("checkpoint.before_rename");
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(temp.c_str());
    throw Error("checkpoint: cannot rename " + temp + " to " + path + ": " +
                reason);
  }
}

void save(const std::string& path, const std::string& payload) {
  // The footer is found as the last line of the file, so the payload must
  // not run into it.
  require(payload.empty() || payload.back() == '\n',
          "checkpoint: save payload must be empty or newline-terminated");
  char footer[64];
  std::snprintf(footer, sizeof footer, "%s crc32=%08x size=%zu\n", kFooterTag,
                crc32(payload), payload.size());
  write_file_atomic(path, payload + footer);
}

std::optional<std::string> load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return std::nullopt;  // missing file: silent, fresh start
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();

  if (text.empty() || text.back() != '\n') {
    warn_once(path, "missing footer line (truncated file?)");
    return std::nullopt;
  }
  const std::size_t line_start =
      text.rfind('\n', text.size() - 2) == std::string::npos
          ? 0
          : text.rfind('\n', text.size() - 2) + 1;
  const std::string footer =
      text.substr(line_start, text.size() - line_start - 1);
  unsigned expected_crc = 0;
  std::size_t expected_size = 0;
  char tag[32] = {0};
  if (std::sscanf(footer.c_str(), "%31s crc32=%x size=%zu", tag,
                  &expected_crc, &expected_size) != 3 ||
      std::string(tag) != kFooterTag) {
    warn_once(path, "unrecognized footer \"" + footer + "\"");
    return std::nullopt;
  }
  std::string payload = text.substr(0, line_start);
  if (payload.size() != expected_size) {
    warn_once(path, "payload is " + std::to_string(payload.size()) +
                        " bytes, footer says " +
                        std::to_string(expected_size) + " (short read?)");
    return std::nullopt;
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    char detail[80];
    std::snprintf(detail, sizeof detail,
                  "CRC mismatch (stored %08x, computed %08x)", expected_crc,
                  actual_crc);
    warn_once(path, detail);
    return std::nullopt;
  }
  return payload;
}

void remove(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

std::string default_path(const std::string& job) {
  const char* dir = std::getenv("MEMSTRESS_CHECKPOINT_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  return std::string(dir) + "/" + job + ".ckpt";
}

long default_interval(long fallback) {
  return env_int_or("MEMSTRESS_CHECKPOINT_INTERVAL", 1, 1000000000L, fallback);
}

}  // namespace memstress::checkpoint
