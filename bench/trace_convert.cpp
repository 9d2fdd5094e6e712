// trace_convert: converts procsim binary traces (obs::write_binary, the
// --trace=PATH artifact of procsim_sweep) between formats.
//
//   trace_convert --in=trace.bin [--jsonl=out.jsonl] [--chrome=out.json]
//                 [--binary=out.bin]
//   trace_convert --in-jsonl=trace.jsonl [--jsonl=...] [--chrome=...]
//                 [--binary=...]
//
// Exactly one input; any combination of outputs (at least one). JSONL in →
// binary out → JSONL in is lossless (the round-trip CI exercises it); the
// Chrome output is a one-way visualization export for chrome://tracing /
// Perfetto.
//
// Exit codes: 0 ok; 2 usage error (an unknown flag, no input or two, no
// output; one stderr line) or unreadable/malformed input; 3 unwritable
// output.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/figure_runner.hpp"
#include "obs/trace.hpp"

namespace {

constexpr const char* kProg = "trace_convert";

}  // namespace

int main(int argc, char** argv) {
  std::string in_bin, in_jsonl, out_jsonl, out_chrome, out_bin;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--in=", 5) == 0) {
      in_bin = arg + 5;
    } else if (std::strncmp(arg, "--in-jsonl=", 11) == 0) {
      in_jsonl = arg + 11;
    } else if (std::strncmp(arg, "--jsonl=", 8) == 0) {
      out_jsonl = arg + 8;
    } else if (std::strncmp(arg, "--chrome=", 9) == 0) {
      out_chrome = arg + 9;
    } else if (std::strncmp(arg, "--binary=", 9) == 0) {
      out_bin = arg + 9;
    } else {
      procsim::core::usage_error(
          kProg, "unknown option '" + std::string(arg) +
                     "' (expected --in, --in-jsonl, --jsonl, --chrome or --binary)");
    }
  }
  if (in_bin.empty() == in_jsonl.empty())
    procsim::core::usage_error(kProg, "exactly one of --in / --in-jsonl is required");
  if (out_jsonl.empty() && out_chrome.empty() && out_bin.empty())
    procsim::core::usage_error(kProg, "no output requested (--jsonl / --chrome / --binary)");

  std::vector<procsim::obs::TraceRecord> records;
  std::string error;
  if (!in_bin.empty()) {
    std::ifstream in(in_bin, std::ios::binary);
    if (!in) {
      std::cerr << "error: cannot open " << in_bin << "\n";
      return 2;
    }
    if (!procsim::obs::read_binary(in, records, &error)) {
      std::cerr << "error: " << in_bin << ": " << error << "\n";
      return 2;
    }
  } else {
    std::ifstream in(in_jsonl);
    if (!in) {
      std::cerr << "error: cannot open " << in_jsonl << "\n";
      return 2;
    }
    if (!procsim::obs::read_jsonl(in, records, &error)) {
      std::cerr << "error: " << in_jsonl << ": " << error << "\n";
      return 2;
    }
  }

  const auto open_out = [](const std::string& path, bool binary,
                           std::ofstream& out) {
    out.open(path, binary ? std::ios::binary | std::ios::trunc : std::ios::trunc);
    if (!out) std::cerr << "error: cannot write " << path << "\n";
    return static_cast<bool>(out);
  };

  if (!out_jsonl.empty()) {
    std::ofstream out;
    if (!open_out(out_jsonl, false, out)) return 3;
    procsim::obs::write_jsonl(records, out);
  }
  if (!out_chrome.empty()) {
    std::ofstream out;
    if (!open_out(out_chrome, false, out)) return 3;
    procsim::obs::write_chrome_trace(records, out);
  }
  if (!out_bin.empty()) {
    std::ofstream out;
    if (!open_out(out_bin, true, out)) return 3;
    procsim::obs::TraceBuffer buf;
    for (const auto& r : records) buf.append(r);
    procsim::obs::write_binary(buf, out);
  }
  std::cerr << "trace_convert: " << records.size() << " records\n";
  return 0;
}
