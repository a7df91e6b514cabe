// Strict parsing of integer environment knobs (GEORED_THREADS,
// GEORED_FUZZ_ITERS). A knob that is set must parse completely as a base-10
// integer; anything else — letters, trailing characters, whitespace, a value
// outside int64 — is a one-line std::invalid_argument naming the variable
// and the value, never a silent fallback to a default.
#pragma once

#include <cstdint>
#include <optional>

namespace geored {

/// The value of integer knob `name`, or std::nullopt when it is unset or
/// empty. Accepts an optional leading '-' and decimal digits, nothing else.
std::optional<std::int64_t> env_int(const char* name);

/// A non-negative count knob: env_int(name), `fallback` when unset or empty,
/// and negative values rejected like garbage.
std::uint64_t env_count(const char* name, std::uint64_t fallback);

}  // namespace geored
