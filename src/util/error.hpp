// Error type used throughout the memstress library.
#pragma once

#include <stdexcept>
#include <string>

namespace memstress {

/// Exception thrown for all recoverable library errors (bad configuration,
/// malformed march-test strings, singular circuit matrices, ...).
///
/// Library code throws `Error`; programming bugs (violated preconditions
/// that indicate caller error inside the library itself) use assertions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throw `Error` with `message` unless `condition` holds.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// The same check for a literal message. A string literal binds here rather
/// than to the overload above, so the passing path builds no std::string:
/// hot checks (one per RNG draw, DB lookup or solver step) stay
/// allocation-free, and a message is made only when the check fails.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace memstress
