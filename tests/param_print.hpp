#pragma once

// Stable ctest names for parameterized tests.
//
// gtest prints a parameter type without operator<< as a dump of its object
// bytes, and gtest_discover_tests puts that dump into each test's ctest
// name. The dump used to include the struct's padding, which nothing
// initializes, so the same test got a different name in different builds.
// A PrintTo overload built on print_param_bytes prints the same
// "N-byte object <..>" dump from a zero-filled image that holds only the
// listed members: every name keeps its printed form, padding reads as
// zeros, and two builds list identical tests. Keeping the dump, rather
// than printing the fields readably, keeps the names the suite has always
// listed for these ~2200 parameterized tests.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace psclip::test {

template <typename T, typename... M>
void print_param_bytes(const T& v, std::ostream* os, M T::*... members) {
  unsigned char img[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&v);
  const auto copy = [&](const auto& m) {
    const auto* p = reinterpret_cast<const unsigned char*>(&m);
    std::memcpy(img + (p - base), p, sizeof m);
  };
  (copy(v.*members), ...);
  ::testing::internal::PrintBytesInObjectTo(img, sizeof img, os);
}

}  // namespace psclip::test
