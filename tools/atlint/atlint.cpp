// atlint — project-invariant linter (ISSUE 7 tentpole, part 2).
//
// Enforces the repo-specific invariants the compiler cannot see:
//
//   failpoint-registry  every failpoint site literal in src/ and tools/ is
//                       unique and listed in tools/lint/failpoints.txt
//                       (AT_FAILPOINTS typos become lint errors); every
//                       registry entry is used. Dynamic sites built from a
//                       literal prefix register as "<prefix>*".
//   atac-tags           every ATAC artifact kind written anywhere appears
//                       exactly once in tools/lint/atac_tags.txt with its
//                       version and an existing golden fixture (version
//                       bumps must check in a new golden); every chunk 4-CC
//                       is registered exactly once; unused entries are
//                       errors.
//   simd-dispatch       every kernel slot declared in src/common/simd.h
//                       has an entry in each dispatch table (scalar,
//                       avx2 + fallback).
//   banned-rand         rand() and default-seeded std::mt19937 outside
//                       tests/ — all randomness flows through common/rng.h
//                       so runs are reproducible.
//   banned-sleep        std::this_thread::sleep_for outside tests/ and the
//                       failpoint delay engine — sleeps hide scheduling
//                       bugs the deadline logic must instead surface.
//   memcpy-guard        memcpy in src/server/ (the protocol frame codec)
//                       without a sizeof-bearing size guard on the call or
//                       within the preceding 8 lines.
//   env-prefix          getenv of a variable not starting with AT_.
//
// Any rule is suppressed at one site by `// atlint: allow(<rule>)` on the
// same line or the line above.
//
// Usage:
//   atlint --root <repo-root>      lint the tree; exit 1 on any violation
//   atlint --selftest <fixtures>   run every tests/lint fixture: clean/
//                                  must pass, each bad_<rule>/ must fail
//                                  mentioning [<rule>]
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct SourceFile {
  std::string rel;                  // path relative to the lint root
  std::vector<std::string> lines;   // 0-based
};

struct Linter {
  fs::path root;
  std::vector<SourceFile> files;
  int violations = 0;

  void report(const std::string& rule, const SourceFile& f, std::size_t line,
              const std::string& what) {
    std::cerr << f.rel << ":" << (line + 1) << ": [" << rule << "] " << what
              << "\n";
    ++violations;
  }
  void report_global(const std::string& rule, const std::string& what) {
    std::cerr << "(registry): [" << rule << "] " << what << "\n";
    ++violations;
  }

  // `// atlint: allow(<rule>)` on the flagged line or the line above.
  static bool allowed(const SourceFile& f, std::size_t line,
                      const std::string& rule) {
    const std::string marker = "atlint: allow(" + rule + ")";
    if (f.lines[line].find(marker) != std::string::npos) return true;
    return line > 0 && f.lines[line - 1].find(marker) != std::string::npos;
  }
};

bool has_suffix(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool has_prefix(const std::string& s, const std::string& pre) {
  return s.compare(0, pre.size(), pre) == 0;
}

bool in_dir(const std::string& rel, const std::string& dir) {
  return has_prefix(rel, dir + "/");
}

// The string literal starting at s[i] == '"'; returns false on newline-
// spanning or unterminated literals (never appears in flagged constructs).
bool read_literal(const std::string& s, std::size_t i, std::string* out,
                  std::size_t* end) {
  std::string lit;
  for (std::size_t j = i + 1; j < s.size(); ++j) {
    if (s[j] == '\\') {
      if (j + 1 < s.size()) lit += s[++j];
      continue;
    }
    if (s[j] == '"') {
      *out = lit;
      *end = j + 1;
      return true;
    }
    lit += s[j];
  }
  return false;
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0)
    ++i;
  return i;
}

// ---------------------------------------------------------------------------
// Walking
// ---------------------------------------------------------------------------

bool lintable(const std::string& rel) {
  if (!(has_suffix(rel, ".cpp") || has_suffix(rel, ".h"))) return false;
  // The linter's own sources (this file names every banned construct) and
  // the negative fixtures are not part of the linted tree.
  if (in_dir(rel, "tools/atlint") || in_dir(rel, "tests/lint")) return false;
  return in_dir(rel, "src") || in_dir(rel, "tests") || in_dir(rel, "bench") ||
         in_dir(rel, "tools");
}

void load_tree(Linter* lint) {
  for (const char* top : {"src", "tests", "bench", "tools"}) {
    const fs::path dir = lint->root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      const std::string rel =
          fs::relative(e.path(), lint->root).generic_string();
      if (!lintable(rel)) continue;
      SourceFile f;
      f.rel = rel;
      std::ifstream is(e.path());
      std::string line;
      while (std::getline(is, line)) f.lines.push_back(line);
      lint->files.push_back(std::move(f));
    }
  }
  std::sort(lint->files.begin(), lint->files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
}

// ---------------------------------------------------------------------------
// failpoint-registry
// ---------------------------------------------------------------------------

void rule_failpoints(Linter* lint) {
  const char* kRule = "failpoint-registry";
  // Registry: one site name per line; '#' comments; a trailing '*' marks a
  // literal prefix used to build dynamic site names.
  std::set<std::string> registered, used_entries;
  {
    std::ifstream is(lint->root / "tools" / "lint" / "failpoints.txt");
    std::string line;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                  line.back())) != 0)
        line.pop_back();
      if (line.empty()) continue;
      if (!registered.insert(line).second)
        lint->report_global(kRule, "duplicate registry entry '" + line + "'");
    }
  }

  std::map<std::string, std::string> first_site;  // literal -> file:line
  for (const auto& f : lint->files) {
    // Tests arm ad-hoc sites ("unit.a") on purpose; only production code
    // participates.
    if (!(in_dir(f.rel, "src") || in_dir(f.rel, "tools"))) continue;
    for (std::size_t ln = 0; ln < f.lines.size(); ++ln) {
      const std::string& s = f.lines[ln];
      for (const char* call :
           {"AT_FAILPOINT(", "failpoint::check(", "failpoint::check_throw("}) {
        for (std::size_t pos = s.find(call); pos != std::string::npos;
             pos = s.find(call, pos + 1)) {
          std::size_t i = skip_ws(s, pos + std::string(call).size());
          std::string name;
          std::size_t end = 0;
          // A dynamic site's literal prefix may start on the next line.
          const SourceFile& file = f;
          std::size_t name_ln = ln;
          if (i >= s.size() && ln + 1 < f.lines.size()) {
            name_ln = ln + 1;
            i = skip_ws(f.lines[name_ln], 0);
          }
          const std::string& ns = file.lines[name_ln];
          // Dynamic sites parenthesize their concatenation:
          // check_throw(("prefix" + suffix).c_str()).
          while (i < ns.size() && ns[i] == '(') i = skip_ws(ns, i + 1);
          if (i >= ns.size() || ns[i] != '"') continue;
          if (!read_literal(ns, i, &name, &end)) continue;
          const bool dynamic =
              skip_ws(ns, end) < ns.size() && ns[skip_ws(ns, end)] == '+';
          const std::string key = dynamic ? name + "*" : name;
          if (Linter::allowed(file, name_ln, kRule)) continue;
          if (registered.count(key) == 0) {
            lint->report(kRule, file, name_ln,
                         "failpoint site '" + key +
                             "' is not in tools/lint/failpoints.txt");
          } else {
            used_entries.insert(key);
          }
          if (!dynamic) {
            const std::string here =
                file.rel + ":" + std::to_string(name_ln + 1);
            auto [it, fresh] = first_site.emplace(name, here);
            if (!fresh)
              lint->report(kRule, file, name_ln,
                           "failpoint site '" + name +
                               "' already defined at " + it->second);
          }
        }
      }
    }
  }
  for (const auto& entry : registered) {
    if (used_entries.count(entry) == 0)
      lint->report_global(
          kRule, "registry entry '" + entry + "' has no code site");
  }
}

// ---------------------------------------------------------------------------
// atac-tags
// ---------------------------------------------------------------------------

void rule_atac(Linter* lint) {
  const char* kRule = "atac-tags";
  // Registry lines: `kind <4CC> <version> <golden-path>` | `chunk <4CC>`.
  std::map<std::string, std::uint64_t> kind_version;
  std::map<std::string, std::string> kind_golden;
  std::set<std::string> chunks, used_kinds, used_chunks;
  {
    std::ifstream is(lint->root / "tools" / "lint" / "atac_tags.txt");
    std::string line;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ss(line);
      std::string tag, cc;
      if (!(ss >> tag)) continue;
      if (tag == "kind") {
        std::uint64_t ver = 0;
        std::string golden;
        if (!(ss >> cc >> ver >> golden) || cc.size() != 4) {
          lint->report_global(kRule, "malformed kind entry: " + line);
          continue;
        }
        if (!kind_version.emplace(cc, ver).second) {
          lint->report_global(kRule, "duplicate kind entry '" + cc + "'");
          continue;
        }
        kind_golden[cc] = golden;
        if (!fs::exists(lint->root / golden))
          lint->report_global(kRule, "kind " + cc + " v" +
                                         std::to_string(ver) +
                                         ": golden fixture '" + golden +
                                         "' does not exist (a version bump "
                                         "must check one in)");
      } else if (tag == "chunk") {
        if (!(ss >> cc) || cc.size() != 4) {
          lint->report_global(kRule, "malformed chunk entry: " + line);
          continue;
        }
        if (!chunks.insert(cc).second)
          lint->report_global(kRule, "duplicate chunk entry '" + cc + "'");
      } else {
        lint->report_global(kRule, "unknown entry kind '" + tag + "'");
      }
    }
  }

  for (const auto& f : lint->files) {
    if (!in_dir(f.rel, "src")) continue;
    for (std::size_t ln = 0; ln < f.lines.size(); ++ln) {
      const std::string& s = f.lines[ln];
      // ArtifactWriter w(os, "KIND", version)
      const std::size_t wpos = s.find("ArtifactWriter ");
      if (wpos != std::string::npos) {
        const std::size_t q = s.find('"', wpos);
        std::string cc;
        std::size_t end = 0;
        if (q != std::string::npos && read_literal(s, q, &cc, &end) &&
            cc.size() == 4 && !Linter::allowed(f, ln, kRule)) {
          std::size_t i = skip_ws(s, end);
          std::uint64_t ver = 0;
          bool have_ver = false;
          if (i < s.size() && s[i] == ',') {
            i = skip_ws(s, i + 1);
            while (i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
              ver = ver * 10 + static_cast<std::uint64_t>(s[i] - '0');
              have_ver = true;
              ++i;
            }
          }
          auto it = kind_version.find(cc);
          if (it == kind_version.end()) {
            lint->report(kRule, f, ln,
                         "artifact kind '" + cc +
                             "' is not in tools/lint/atac_tags.txt");
          } else {
            used_kinds.insert(cc);
            if (have_ver && it->second != ver)
              lint->report(kRule, f, ln,
                           "artifact kind '" + cc + "' written at v" +
                               std::to_string(ver) + " but registered v" +
                               std::to_string(it->second) +
                               " (bump the registry and golden together)");
          }
        }
      }
      // Writer and reader chunk sites: w.chunk("4CC", ...) / r.chunk("4CC")
      for (const char* call : {".chunk(\""}) {
        for (std::size_t pos = s.find(call); pos != std::string::npos;
             pos = s.find(call, pos + 1)) {
          std::string cc;
          std::size_t end = 0;
          const std::size_t q = pos + std::string(call).size() - 1;
          if (!read_literal(s, q, &cc, &end) || cc.size() != 4) continue;
          if (Linter::allowed(f, ln, kRule)) continue;
          if (chunks.count(cc) == 0) {
            lint->report(kRule, f, ln,
                         "chunk tag '" + cc +
                             "' is not in tools/lint/atac_tags.txt");
          } else {
            used_chunks.insert(cc);
          }
        }
      }
    }
  }
  for (const auto& [cc, ver] : kind_version) {
    (void)ver;
    if (used_kinds.count(cc) == 0)
      lint->report_global(kRule, "registered kind '" + cc +
                                     "' has no writer in src/");
  }
  for (const auto& cc : chunks) {
    if (used_chunks.count(cc) == 0)
      lint->report_global(kRule, "registered chunk '" + cc +
                                     "' has no code site");
  }
}

// ---------------------------------------------------------------------------
// simd-dispatch
// ---------------------------------------------------------------------------

std::size_t count_occurrences(const std::string& s, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(pat); pos != std::string::npos;
       pos = s.find(pat, pos + 1))
    ++n;
  return n;
}

void rule_simd(Linter* lint) {
  const char* kRule = "simd-dispatch";
  const SourceFile* header = nullptr;
  for (const auto& f : lint->files) {
    if (f.rel == "src/common/simd.h") header = &f;
  }
  if (header == nullptr) return;  // fixture trees without the SIMD layer

  // Kernel slots: function-pointer fields inside `struct Kernels { ... };`.
  std::size_t slots = 0;
  bool in_struct = false;
  for (const auto& s : header->lines) {
    if (s.find("struct Kernels {") != std::string::npos) in_struct = true;
    if (!in_struct) continue;
    slots += count_occurrences(s, "(*");
    if (s.find("};") != std::string::npos) break;
  }
  if (slots == 0) {
    lint->report(kRule, *header, 0, "struct Kernels declares no kernels");
    return;
  }

  // Dispatch tables: `const Kernels k<Tier> = { &entry, ... };` — one
  // &-entry per slot, in every tier TU.
  const char* kTables[] = {"kScalarKernels", "kAvx2Kernels", "kAvx2Fallback"};
  for (const char* table : kTables) {
    bool found = false;
    for (const auto& f : lint->files) {
      if (!has_prefix(f.rel, "src/common/simd")) continue;
      for (std::size_t ln = 0; ln < f.lines.size(); ++ln) {
        if (f.lines[ln].find(std::string("Kernels ") + table + " = {") ==
            std::string::npos)
          continue;
        found = true;
        std::size_t entries = 0;
        for (std::size_t j = ln; j < f.lines.size(); ++j) {
          entries += count_occurrences(f.lines[j], "&");
          if (f.lines[j].find("};") != std::string::npos) break;
        }
        if (entries != slots)
          lint->report(kRule, f, ln,
                       std::string(table) + " has " +
                           std::to_string(entries) + " entries but simd.h "
                           "declares " + std::to_string(slots) +
                           " kernel slots");
      }
    }
    if (!found)
      lint->report_global(kRule, std::string("dispatch table ") + table +
                                     " not found under src/common/");
  }
}

// ---------------------------------------------------------------------------
// Banned patterns
// ---------------------------------------------------------------------------

bool word_at(const std::string& s, std::size_t pos, std::size_t len) {
  const bool left_ok =
      pos == 0 || (std::isalnum(static_cast<unsigned char>(s[pos - 1])) == 0 &&
                   s[pos - 1] != '_');
  const std::size_t after = pos + len;
  const bool right_ok =
      after >= s.size() ||
      (std::isalnum(static_cast<unsigned char>(s[after])) == 0 &&
       s[after] != '_');
  return left_ok && right_ok;
}

void rule_banned(Linter* lint) {
  for (const auto& f : lint->files) {
    const bool is_test = in_dir(f.rel, "tests");
    for (std::size_t ln = 0; ln < f.lines.size(); ++ln) {
      const std::string& s = f.lines[ln];

      if (!is_test) {
        // banned-rand: rand() and default-seeded std::mt19937 — all
        // production randomness flows through common/rng.h.
        const std::size_t rp = s.find("rand()");
        if (rp != std::string::npos && word_at(s, rp, 4) &&
            !Linter::allowed(f, ln, "banned-rand"))
          lint->report("banned-rand", f, ln,
                       "rand() is banned; use common/rng.h");
        for (std::size_t mp = s.find("std::mt19937");
             mp != std::string::npos; mp = s.find("std::mt19937", mp + 1)) {
          // Default-construction only: `std::mt19937 g;` / `mt19937 g{};`
          std::size_t i = mp + std::string("std::mt19937").size();
          if (i < s.size() && s[i] == '_') i += 3;  // _64
          i = skip_ws(s, i);
          while (i < s.size() &&
                 (std::isalnum(static_cast<unsigned char>(s[i])) != 0 ||
                  s[i] == '_'))
            ++i;
          i = skip_ws(s, i);
          const bool unseeded =
              i >= s.size() || s[i] == ';' ||
              (s[i] == '{' && i + 1 < s.size() && s[i + 1] == '}');
          if (unseeded && !Linter::allowed(f, ln, "banned-rand"))
            lint->report("banned-rand", f, ln,
                         "default-seeded std::mt19937 is banned; seed it or "
                         "use common/rng.h");
        }

        // banned-sleep: the failpoint delay engine is the one legitimate
        // production sleep (it implements injected delays).
        if (f.rel != "src/common/failpoint.cpp" &&
            s.find("sleep_for") != std::string::npos &&
            !Linter::allowed(f, ln, "banned-sleep"))
          lint->report("banned-sleep", f, ln,
                       "sleep_for outside tests/failpoints; wait on a "
                       "condition instead");
      }

      // memcpy-guard: frame codec copies must be visibly bounded.
      if (in_dir(f.rel, "src/server")) {
        const std::size_t mp = s.find("memcpy");
        if (mp != std::string::npos && word_at(s, mp, 6) &&
            !Linter::allowed(f, ln, "memcpy-guard")) {
          bool guarded = false;
          const std::size_t lo = ln >= 8 ? ln - 8 : 0;
          for (std::size_t j = lo; j <= ln && !guarded; ++j)
            guarded = f.lines[j].find("sizeof") != std::string::npos;
          if (!guarded)
            lint->report("memcpy-guard", f, ln,
                         "memcpy in the frame codec without a sizeof-bearing "
                         "size guard within 8 lines");
        }
      }

      // env-prefix: applies everywhere, tests included.
      for (std::size_t gp = s.find("getenv("); gp != std::string::npos;
           gp = s.find("getenv(", gp + 1)) {
        std::size_t i = skip_ws(s, gp + std::string("getenv(").size());
        std::string name;
        std::size_t end = 0;
        if (i < s.size() && s[i] == '"' && read_literal(s, i, &name, &end) &&
            !has_prefix(name, "AT_") && !Linter::allowed(f, ln, "env-prefix"))
          lint->report("env-prefix", f, ln,
                       "environment variable '" + name +
                           "' must use the AT_ prefix");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int run_lint(const fs::path& root) {
  Linter lint;
  lint.root = root;
  if (!fs::exists(root)) {
    std::cerr << "atlint: no such root: " << root << "\n";
    return 2;
  }
  load_tree(&lint);
  rule_failpoints(&lint);
  rule_atac(&lint);
  rule_simd(&lint);
  rule_banned(&lint);
  if (lint.violations > 0) {
    std::cerr << "atlint: " << lint.violations << " violation(s) under "
              << root << "\n";
    return 1;
  }
  std::cout << "atlint: clean (" << lint.files.size() << " files)\n";
  return 0;
}

// Each fixture under <dir> is a miniature repo root. clean/ must lint
// clean; every bad_<rule>/ must fail with its rule id in the output.
int run_selftest(const fs::path& dir) {
  int failures = 0;
  std::size_t fixtures = 0;
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_directory()) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  for (const auto& path : entries) {
    const std::string name = path.filename().string();
    ++fixtures;
    // Capture the lint report so expected-failure noise stays out of the
    // selftest log (and so the rule id can be asserted on).
    std::ostringstream captured;
    std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
    const int rc = run_lint(path);
    std::cerr.rdbuf(old);
    if (name == "clean") {
      if (rc != 0) {
        std::cerr << "selftest: clean fixture failed:\n" << captured.str();
        ++failures;
      }
      continue;
    }
    if (name.rfind("bad_", 0) != 0) {
      std::cerr << "selftest: unexpected fixture dir '" << name
                << "' (want clean/ or bad_<rule>/)\n";
      ++failures;
      continue;
    }
    std::string rule = name.substr(4);
    std::replace(rule.begin(), rule.end(), '_', '-');
    if (rc == 0) {
      std::cerr << "selftest: " << name << " should have failed\n";
      ++failures;
    } else if (captured.str().find("[" + rule + "]") == std::string::npos) {
      std::cerr << "selftest: " << name << " failed without firing [" << rule
                << "]:\n"
                << captured.str();
      ++failures;
    }
  }
  if (fixtures == 0) {
    std::cerr << "selftest: no fixtures under " << dir << "\n";
    return 2;
  }
  if (failures > 0) {
    std::cerr << "selftest: " << failures << "/" << fixtures
              << " fixtures failed\n";
    return 1;
  }
  std::cout << "selftest: " << fixtures << " fixtures ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--root")
    return run_lint(argv[2]);
  if (argc == 3 && std::string(argv[1]) == "--selftest")
    return run_selftest(argv[2]);
  std::cerr << "usage: atlint --root <repo-root> | --selftest <fixture-dir>\n";
  return 2;
}
