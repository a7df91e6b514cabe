#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace geored {

std::optional<std::int64_t> env_int(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  const char* end = value + std::strlen(value);
  std::int64_t parsed = 0;
  const auto [stop, error] = std::from_chars(value, end, parsed);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument(std::string(name) + " must be an integer, got '" + value +
                                "'");
  }
  return parsed;
}

std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  const auto parsed = env_int(name);
  if (!parsed) return fallback;
  if (*parsed < 0) {
    throw std::invalid_argument(std::string(name) + " must be a non-negative integer, got '" +
                                std::getenv(name) + "'");
  }
  return static_cast<std::uint64_t>(*parsed);
}

}  // namespace geored
