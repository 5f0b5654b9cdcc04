// txlint v2 — whole-program BD-HTM protocol analyzer (DESIGN.md §9).
//
// Driver: expands inputs, runs pass 1 per file, merges everything into
// a Program, runs pass-2 context propagation, then reports — human text
// and JSON (bdhtm-txlint/2) with each finding's call path — and
// optionally gates against a checked-in baseline so CI fails only on
// NEW findings.
//
//   txlint [options] <file|dir>...
//     --json <out.json>          JSON report
//     --baseline <baseline.json> fail only on findings not in baseline
//     --write-baseline <path>    write current findings as the baseline
//     --relative-to <dir>        record paths relative to <dir>
//     --exclude <substr>         skip paths containing <substr> (repeat ok)
//     --verify-expectations      corpus mode: each file is its own
//                                program, checked against txlint-expect
//     --exit-zero                report but always exit 0 (artifact gen)
//
// Exit codes: 0 clean (or all matched / nothing new vs baseline),
// 1 findings (or expectation mismatch / new findings), 2 usage or I/O.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze.hpp"
#include "json_mini.hpp"
#include "model.hpp"

namespace txlint {
namespace {

bool read_file(const std::filesystem::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool scannable(const std::filesystem::path& p) {
  auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh" || ext == ".ipp";
}

struct Options {
  std::string json_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string relative_to;
  std::vector<std::string> excludes;
  bool verify_expectations = false;
  bool exit_zero = false;
  std::vector<std::filesystem::path> inputs;
};

int usage(int code) {
  std::fprintf(
      stderr,
      "usage: txlint [--json out.json]\n"
      "              [--baseline baseline.json] [--write-baseline path]\n"
      "              [--relative-to dir] [--exclude substr]...\n"
      "              [--verify-expectations] [--exit-zero] <file|dir>...\n");
  return code;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON report (schema bdhtm-txlint/2): per-finding rule, file, line,
/// message, suppressed flag and the call path.
bool write_json_report(const std::string& path,
                       const std::vector<Finding>& findings,
                       int files_scanned, int suppressed_count) {
  std::ofstream os(path);
  if (!os) return false;
  int active = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++active;
  }
  os << "{\n"
     << "  \"schema\": \"bdhtm-txlint/2\",\n"
     << "  \"files_scanned\": " << files_scanned << ",\n"
     << "  \"findings\": " << active << ",\n"
     << "  \"suppressed\": " << suppressed_count << ",\n"
     << "  \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "    {\"rule\": \"" << rule_name(f.rule) << "\", \"file\": \""
       << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << json_escape(f.message) << "\",\n"
       << "     \"path\": [";
    for (size_t k = 0; k < f.path.size(); ++k) {
      const Frame& fr = f.path[k];
      os << (k > 0 ? ", " : "") << "{\"file\": \"" << json_escape(fr.file)
         << "\", \"line\": " << fr.line << ", \"what\": \""
         << json_escape(fr.what) << "\"}";
    }
    os << "]}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return static_cast<bool>(os);
}

// Baseline: (relative path, rule) -> count of unsuppressed findings.
using BaselineMap = std::map<std::pair<std::string, std::string>, int>;

BaselineMap count_findings(const std::vector<Finding>& findings) {
  BaselineMap m;
  for (const Finding& f : findings) {
    if (!f.suppressed) m[{f.file, rule_name(f.rule)}]++;
  }
  return m;
}

bool load_baseline(const std::string& path, BaselineMap* out,
                   std::string* err) {
  std::ifstream is(path);
  if (!is) {
    *err = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  std::string perr;
  json::ValuePtr root = json::parse(buf.str(), &perr);
  if (root == nullptr || !root->is_object()) {
    *err = "parse error in " + path + ": " + perr;
    return false;
  }
  const json::Value* schema = root->get("schema");
  if (schema == nullptr || schema->str() != "bdhtm-txlint-baseline/1") {
    *err = path + ": wrong or missing schema";
    return false;
  }
  const json::Value* files = root->get("findings");
  if (files == nullptr || !files->is_object()) {
    *err = path + ": missing findings object";
    return false;
  }
  for (const auto& [file, rules] : files->obj) {
    if (!rules->is_object()) continue;
    for (const auto& [rule, count] : rules->obj) {
      (*out)[{file, rule}] = static_cast<int>(count->as_int());
    }
  }
  return true;
}

bool write_baseline(const std::string& path, const BaselineMap& m) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"schema\": \"bdhtm-txlint-baseline/1\",\n"
     << "  \"findings\": {\n";
  // Group by file for readability / small diffs.
  std::map<std::string, std::vector<std::pair<std::string, int>>> by_file;
  for (const auto& [key, count] : m) {
    by_file[key.first].emplace_back(key.second, count);
  }
  size_t fi = 0;
  for (const auto& [file, rules] : by_file) {
    os << "    \"" << json_escape(file) << "\": {";
    for (size_t k = 0; k < rules.size(); ++k) {
      os << (k > 0 ? ", " : "") << "\"" << rules[k].first
         << "\": " << rules[k].second;
    }
    os << "}" << (++fi < by_file.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return static_cast<bool>(os);
}

void print_finding(const Finding& f) {
  std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
               rule_name(f.rule), f.message.c_str());
  if (f.path.size() > 1) {
    for (const Frame& fr : f.path) {
      std::fprintf(stderr, "    %s:%d: %s\n", fr.file.c_str(), fr.line,
                   fr.what.c_str());
    }
  }
}

int run(const Options& opt) {
  // Expand inputs to the scan list.
  std::vector<std::filesystem::path> files;
  for (const auto& in : opt.inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(in, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file(ec) && scannable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (std::filesystem::is_regular_file(in, ec)) {
      files.push_back(in);
    } else {
      std::fprintf(stderr, "txlint: cannot read '%s'\n",
                   in.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  auto rel_path = [&](const std::filesystem::path& p) -> std::string {
    if (opt.relative_to.empty()) return p.string();
    std::error_code ec;
    auto r = std::filesystem::relative(p, opt.relative_to, ec);
    return ec || r.empty() ? p.string() : r.generic_string();
  };
  auto excluded = [&](const std::string& rp) {
    for (const std::string& e : opt.excludes) {
      if (rp.find(e) != std::string::npos) return true;
    }
    return false;
  };

  Program program;
  for (const auto& f : files) {
    const std::string rp = rel_path(f);
    if (excluded(rp)) continue;
    std::string src;
    if (!read_file(f, &src)) {
      std::fprintf(stderr, "txlint: cannot read '%s'\n", f.string().c_str());
      return 2;
    }
    program.add(analyze_file(rp, src));
  }

  // ---- Corpus mode: each file is its own program ----
  if (opt.verify_expectations) {
    int failures = 0;
    for (const FileModel& fm : program.files()) {
      Program single;
      single.add(fm);
      std::vector<Finding> fnds = single.run();
      std::map<int, int> got, want;
      for (const Finding& fd : fnds) {
        if (!fd.suppressed) got[static_cast<int>(fd.rule)]++;
      }
      for (const auto& [line, r] : fm.expect) {
        (void)line;
        want[static_cast<int>(r)]++;
      }
      if (!fm.has_expectations) {
        std::fprintf(stderr,
                     "txlint: %s: corpus file has no txlint-expect "
                     "directive\n",
                     fm.path.c_str());
        ++failures;
      } else if (got != want) {
        ++failures;
        std::fprintf(stderr, "txlint: expectation mismatch in %s:\n",
                     fm.path.c_str());
        for (int r = 0; r < kNumRules; ++r) {
          const int g = got.count(r) ? got.at(r) : 0;
          const int w = want.count(r) ? want.at(r) : 0;
          if (g != w) {
            std::fprintf(stderr, "  %-26s expected %d, got %d\n",
                         rule_name(static_cast<Rule>(r)), w, g);
          }
        }
        for (const Finding& fd : fnds) {
          if (!fd.suppressed) print_finding(fd);
        }
      }
      // Propagated-path invariant the corpus also locks down: every
      // finding must carry a non-empty call path.
      for (const Finding& fd : fnds) {
        if (fd.path.empty()) {
          std::fprintf(stderr, "txlint: %s:%d: finding without call path\n",
                       fd.file.c_str(), fd.line);
          ++failures;
        }
      }
    }
    if (failures) {
      std::fprintf(stderr, "txlint: %d corpus file(s) mismatched\n",
                   failures);
      return opt.exit_zero ? 0 : 1;
    }
    std::fprintf(stderr, "txlint: all %zu corpus file(s) matched\n",
                 program.files().size());
    return 0;
  }

  // ---- Whole-program mode ----
  std::vector<Finding> findings = program.run();

  int active = 0;
  int suppressed = 0;
  for (const Finding& f : findings) {
    f.suppressed ? ++suppressed : ++active;
  }

  BaselineMap current = count_findings(findings);

  if (!opt.write_baseline_path.empty()) {
    if (!write_baseline(opt.write_baseline_path, current)) {
      std::fprintf(stderr, "txlint: cannot write baseline '%s'\n",
                   opt.write_baseline_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "txlint: baseline written to %s (%d finding(s))\n",
                 opt.write_baseline_path.c_str(), active);
  }

  bool baseline_mode = false;
  int new_findings = 0;
  if (!opt.baseline_path.empty()) {
    baseline_mode = true;
    BaselineMap base;
    std::string err;
    if (!load_baseline(opt.baseline_path, &base, &err)) {
      std::fprintf(stderr, "txlint: %s\n", err.c_str());
      return 2;
    }
    // New findings: current count above baseline for any (file, rule).
    for (const auto& [key, count] : current) {
      auto it = base.find(key);
      const int allowed = it == base.end() ? 0 : it->second;
      if (count > allowed) {
        new_findings += count - allowed;
        std::fprintf(stderr,
                     "txlint: NEW vs baseline: %s [%s] %d (baseline %d)\n",
                     key.first.c_str(), key.second.c_str(), count, allowed);
        for (const Finding& f : findings) {
          if (!f.suppressed && f.file == key.first &&
              rule_name(f.rule) == key.second) {
            print_finding(f);
          }
        }
      }
    }
    // Stale entries: baseline records findings that no longer fire.
    for (const auto& [key, count] : base) {
      auto it = current.find(key);
      const int now = it == current.end() ? 0 : it->second;
      if (now < count) {
        std::fprintf(stderr,
                     "txlint: stale baseline entry: %s [%s] baseline %d, "
                     "now %d — refresh with --write-baseline\n",
                     key.first.c_str(), key.second.c_str(), count, now);
      }
    }
  } else {
    for (const Finding& f : findings) {
      if (!f.suppressed) print_finding(f);
    }
  }

  if (!opt.json_path.empty() &&
      !write_json_report(opt.json_path, findings,
                         static_cast<int>(program.files().size()),
                         suppressed)) {
    std::fprintf(stderr, "txlint: cannot write '%s'\n",
                 opt.json_path.c_str());
    return 2;
  }

  if (baseline_mode) {
    if (new_findings > 0) {
      std::fprintf(stderr,
                   "txlint: %d NEW finding(s) vs baseline (%d total, %d "
                   "suppressed) across %zu file(s)\n",
                   new_findings, active, suppressed,
                   program.files().size());
      return opt.exit_zero ? 0 : 1;
    }
    std::fprintf(stderr,
                 "txlint: no new findings vs baseline (%d baselined, %d "
                 "suppressed) across %zu file(s)\n",
                 active, suppressed, program.files().size());
    return 0;
  }
  if (active > 0) {
    std::fprintf(stderr,
                 "txlint: %d finding(s) (%d suppressed) across %zu "
                 "file(s)\n",
                 active, suppressed, program.files().size());
    return opt.exit_zero ? 0 : 1;
  }
  std::fprintf(stderr, "txlint: clean — %zu file(s), %d suppressed\n",
               program.files().size(), suppressed);
  return 0;
}

}  // namespace
}  // namespace txlint

int main(int argc, char** argv) {
  using namespace txlint;
  Options opt;

  auto need = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "txlint: %s needs an argument\n", argv[*i]);
      return nullptr;
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    const char* v = nullptr;
    if (a == "--json") {
      if ((v = need(&i)) == nullptr) return 2;
      opt.json_path = v;
    } else if (a == "--baseline") {
      if ((v = need(&i)) == nullptr) return 2;
      opt.baseline_path = v;
    } else if (a == "--write-baseline") {
      if ((v = need(&i)) == nullptr) return 2;
      opt.write_baseline_path = v;
    } else if (a == "--relative-to") {
      if ((v = need(&i)) == nullptr) return 2;
      opt.relative_to = v;
    } else if (a == "--exclude") {
      if ((v = need(&i)) == nullptr) return 2;
      opt.excludes.emplace_back(v);
    } else if (a == "--verify-expectations") {
      opt.verify_expectations = true;
    } else if (a == "--exit-zero") {
      opt.exit_zero = true;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "txlint: unknown option '%s'\n", argv[i]);
      return usage(2);
    } else {
      opt.inputs.emplace_back(a);
    }
  }

  if (opt.inputs.empty()) {
    std::fprintf(stderr, "txlint: no inputs (see --help)\n");
    return 2;
  }
  return run(opt);
}
