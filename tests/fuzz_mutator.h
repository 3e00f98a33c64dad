#ifndef GNNPART_TESTS_FUZZ_MUTATOR_H_
#define GNNPART_TESTS_FUZZ_MUTATOR_H_

// The text mutator shared by the seeded fuzzers (ctest label `fuzz`): byte
// flips, inserted signs and control characters, long digit runs, blank
// lines, shifted '#', truncation, boundary integers and spliced pieces of
// the input, all drawn from common/rng so a fixed seed replays one run.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"

namespace gnnpart::fuzz {

/// Every file of `dir`, in path order.
inline std::vector<std::string> ReadCorpus(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

inline size_t Pos(const std::string& s, Rng& rng) {
  return rng.NextBounded(s.size() + 1);
}

/// The start of a random line of `s`.
inline size_t LineStart(const std::string& s, Rng& rng) {
  const size_t pos = Pos(s, rng);
  const size_t nl = pos == 0 ? std::string::npos : s.rfind('\n', pos - 1);
  return nl == std::string::npos ? 0 : nl + 1;
}

inline void MutateTextOnce(std::string& s, Rng& rng) {
  static const char* const kIds[] = {
      "4294967294",           "4294967295", "18446744073709551615",
      "18446744073709551616", "-0",         "+7",
      "-18446744073709551615"};
  static const char* const kBlankLines[] = {" \n", "\t\n", "\r\n", " \t \r\n"};
  switch (rng.NextBounded(8)) {
    case 0:  // byte flip
      if (!s.empty()) {
        s[rng.NextBounded(s.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    case 1:  // sign, CR or tab
      s.insert(Pos(s, rng), 1, "-+\r\t"[rng.NextBounded(4)]);
      break;
    case 2: {  // long digit run
      std::string digits;
      const size_t len = 1 + rng.NextBounded(40);
      for (size_t i = 0; i < len; ++i) {
        digits += static_cast<char>('0' + rng.NextBounded(10));
      }
      s.insert(Pos(s, rng), digits);
      break;
    }
    case 3:  // whitespace-only line
      s.insert(LineStart(s, rng), kBlankLines[rng.NextBounded(4)]);
      break;
    case 4: {  // shifted '#': off a line start, or onto one
      const size_t hash = s.find('#', Pos(s, rng));
      if (hash != std::string::npos) s.erase(hash, 1);
      s.insert(rng.NextBounded(2) ? LineStart(s, rng) : Pos(s, rng), 1, '#');
      break;
    }
    case 5:  // truncation
      s.resize(Pos(s, rng));
      break;
    case 6: {  // boundary id
      s.insert(Pos(s, rng), kIds[rng.NextBounded(std::size(kIds))]);
      break;
    }
    default: {  // splice a piece of the input elsewhere
      const size_t from = Pos(s, rng);
      const std::string piece = s.substr(from, rng.NextBounded(16));
      s.insert(Pos(s, rng), piece);
      break;
    }
  }
}

}  // namespace gnnpart::fuzz

#endif  // GNNPART_TESTS_FUZZ_MUTATOR_H_
