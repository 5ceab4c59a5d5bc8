// Copyright (c) hdc authors. Apache-2.0 license.
//
// The standalone main() of a fuzz harness built without libFuzzer: it feeds
// corpus files (or every file in a corpus directory) to the harness's
// LLVMFuzzerTestOneInput, which is how the tier-1 `<name>_replay` ctests
// run on every toolchain, and `--generate DIR` rebuilds the seed corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace hdc::fuzz {

inline bool ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  return true;
}

/// The whole main(): `name --generate DIR` calls `generate(DIR)`,
/// `name <corpus file or dir>...` replays every input.
inline int RunDriver(int argc, char** argv, const char* name,
                     int (*generate)(const std::string& dir)) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--generate") return generate(args[1]);
  if (args.empty()) {
    std::cerr << "usage: " << name
              << " <corpus file or dir>... | --generate <dir>\n";
    return 2;
  }
  size_t replayed = 0;
  for (const std::string& arg : args) {
    const std::filesystem::path path(arg);
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        if (!ReplayFile(entry.path())) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(path)) return 1;
      ++replayed;
    }
  }
  std::cout << name << ": replayed " << replayed << " input(s), no crash\n";
  return 0;
}

}  // namespace hdc::fuzz
