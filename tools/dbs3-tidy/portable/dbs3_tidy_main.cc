// dbs3-tidy: runs the five DBS3 invariant checks over a set of C++ sources
// and prints clang-tidy-style diagnostics.
//
//   dbs3_tidy [--checks=a,b] [--list-checks] path [path ...]
//
// A directory argument is scanned recursively for *.h / *.cc. Exit status:
// 0 clean, 1 findings, 2 usage error (unknown option or check name, no
// path) or unreadable path; tools/dbs3-tidy/cli_exit_codes.cmake pins
// these codes. All files given on one invocation are analyzed as a single
// corpus — pass headers together with their .cc files so
// dbs3-guarded-member-init can resolve out-of-line constructor init lists
// and the enums and aliases that make a member type scalar.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tidy_checks.h"

namespace {

void Usage(std::ostream& os) {
  os << "usage: dbs3_tidy [--checks=name,name] [--list-checks] "
        "path [path ...]\n";
}

/// Expands a directory argument to its *.h / *.cc files, sorted so runs
/// are deterministic; a plain file passes through unchanged.
std::vector<std::string> Expand(const std::string& arg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(arg, ec)) return {arg};
  std::vector<std::string> out;
  for (fs::recursive_directory_iterator it(arg, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") out.push_back(it->path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> enabled;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-checks") {
      for (const std::string& name : dbs3_tidy::AllCheckNames()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (arg.rfind("--checks=", 0) == 0) {
      // Fail closed: a misspelled name would otherwise run no check at all
      // and report a clean tree.
      const std::vector<std::string> known = dbs3_tidy::AllCheckNames();
      std::istringstream names(arg.substr(9));
      std::string name;
      while (std::getline(names, name, ',')) {
        if (name.empty()) continue;
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          std::cerr << "dbs3_tidy: unknown check '" << name << "'\n";
          return 2;
        }
        enabled.insert(name);
      }
      continue;
    }
    if (arg == "-h" || arg == "--help") {
      Usage(std::cout);
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dbs3_tidy: unknown option '" << arg << "'\n";
      Usage(std::cerr);
      return 2;
    }
    for (std::string& path : Expand(arg)) paths.push_back(std::move(path));
  }
  if (paths.empty()) {
    Usage(std::cerr);
    return 2;
  }

  std::vector<dbs3_tidy::TidySource> sources;
  sources.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string error;
    dbs3_tidy::TidySource src = dbs3_tidy::LoadSource(path, &error);
    if (!error.empty()) {
      std::cerr << "dbs3_tidy: " << error << "\n";
      return 2;
    }
    sources.push_back(std::move(src));
  }

  const std::vector<dbs3_tidy::Diag> diags =
      dbs3_tidy::RunChecks(sources, enabled);
  for (const dbs3_tidy::Diag& d : diags) {
    std::cout << d.file << ":" << d.line << ": warning: " << d.message
              << " [" << d.check << "]\n";
  }
  std::cerr << "dbs3_tidy: " << sources.size() << " file(s), "
            << diags.size() << " finding(s)\n";
  return diags.empty() ? 0 : 1;
}
