// Helpers shared by at_server, at_standby and at_replay: flag parsing, the
// range checks on its values, and the allocator pin of the serving mains.
//
// Each flag is looked up by exact name ("--port 8080"); an absent flag
// yields its default. A value that is not a whole number (arg_long) or a
// number (arg_double) in full, or does not fit, throws
// std::invalid_argument naming the flag: "--docs 5OO" is an error, not 5.
// Each main then checks the range of every value it uses with require(),
// which throws the same exception carrying the message the binary prints.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace at::cli {

namespace detail {

inline const char* flag_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

[[noreturn]] inline void bad_value(const char* name, const char* what,
                                   const char* text) {
  throw std::invalid_argument(std::string(name) + " " + what + ": '" + text +
                              "'");
}

}  // namespace detail

inline long arg_long(int argc, char** argv, const char* name, long def) {
  const char* text = detail::flag_value(argc, argv, name);
  if (text == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0')
    detail::bad_value(name, "must be a whole number", text);
  if (errno == ERANGE) detail::bad_value(name, "is out of range", text);
  return v;
}

inline double arg_double(int argc, char** argv, const char* name,
                         double def) {
  const char* text = detail::flag_value(argc, argv, name);
  if (text == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0')
    detail::bad_value(name, "must be a number", text);
  if (errno == ERANGE) detail::bad_value(name, "is out of range", text);
  return v;
}

inline bool arg_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

inline std::string arg_str(int argc, char** argv, const char* name,
                           const char* def) {
  const char* text = detail::flag_value(argc, argv, name);
  return text != nullptr ? text : def;
}

inline void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Pins glibc's mmap threshold at its 128 KiB default; the serving mains
/// call it first thing. Left dynamic, glibc raises the threshold to the
/// size of the largest buffer freed so far (up to 32 MiB) and the trim
/// threshold to twice that, so freed multi-MB buffers stay parked on the
/// arena of the thread that freed them: each startup build thread's arena
/// keeps its last build's buffers, and the writer lane's arena keeps those
/// of retired epochs. Pinned, every buffer of 128 KiB or more is its own
/// mapping and goes back to the OS when freed. A no-op off glibc.
inline void pin_mmap_threshold() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

}  // namespace at::cli
