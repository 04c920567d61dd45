// Command-line flag helpers shared by at_server, at_standby and at_replay.
//
// Each flag is looked up by exact name ("--port 8080"); an absent flag
// yields its default. Values parse with atol/atof, so each main checks
// the range of every value it uses with require(), which throws
// std::invalid_argument carrying the message the binary prints.
#pragma once

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace at::cli {

inline long arg_long(int argc, char** argv, const char* name, long def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  return def;
}

inline double arg_double(int argc, char** argv, const char* name,
                         double def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  return def;
}

inline bool arg_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

inline std::string arg_str(int argc, char** argv, const char* name,
                           const char* def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return def;
}

inline void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace at::cli
