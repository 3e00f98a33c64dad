// Seeded mutation fuzzer for the JSON-lines readers (ctest label `fuzz`):
// obs::ParseEvents (`--events-out` files) and obs::ParseManifest
// (`--metrics-out` files). It mutates the seed corpus in
// tests/jsonl_fuzz_corpus with the common/rng text mutator of
// tests/fuzz_mutator.h plus JSON-aware edits, for a fixed number of
// iterations, and feeds every result to both readers. Each must return ok
// or an InvalidArgument whose message starts with its invariant domain
// ("events/..." or "manifest/"): no throw, no abort, no unnamed error.
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_mutator.h"
#include "obs/events.h"
#include "obs/manifest.h"

namespace gnnpart {
namespace {

constexpr uint64_t kSeed = 0x6a736f6e6c66757aULL;
constexpr int kIterations = 6000;

std::vector<std::string> Corpus() {
  return fuzz::ReadCorpus(GNNPART_JSONL_FUZZ_CORPUS);
}

/// A JSON-level edit: a structural token or hostile number, a swapped
/// record type, a dropped field, or a duplicated line.
void MutateJsonOnce(std::string& s, Rng& rng) {
  static const char* const kTokens[] = {
      "\"",    "\\",     "{",     "}",    "[",       "]",      ",",
      ":",     "\n",     "1e999", "-1e999", "-1",    "0.5",    "-0.0",
      "true",  "\"x\"",  "[]",    "[1,",  "\\u00ff", "\\u-7f", "\\u",
      "null",  "1e-400", "2147483648", "9223372036854775808"};
  static const char* const kTypes[] = {
      "meta",  "link",   "epoch",       "span",      "flow",
      "sample", "cache", "repartition", "migration", "counter",
      "gauge", "histogram", "timer",    "bogus"};
  switch (rng.NextBounded(4)) {
    case 0:
      s.insert(fuzz::Pos(s, rng), kTokens[rng.NextBounded(std::size(kTokens))]);
      break;
    case 1: {  // retype one record
      const std::string key = "\"type\":\"";
      const size_t at = s.find(key, fuzz::Pos(s, rng));
      if (at == std::string::npos) break;
      const size_t begin = at + key.size();
      const size_t end = s.find('"', begin);
      if (end == std::string::npos) break;
      s.replace(begin, end - begin, kTypes[rng.NextBounded(std::size(kTypes))]);
      break;
    }
    case 2: {  // drop one ",key:value" field
      const size_t comma = s.find(',', fuzz::Pos(s, rng));
      if (comma == std::string::npos) break;
      const size_t end = s.find_first_of(",}", comma + 1);
      if (end == std::string::npos) break;
      s.erase(comma, end - comma);
      break;
    }
    default: {  // duplicate one line
      const size_t begin = fuzz::LineStart(s, rng);
      const size_t nl = s.find('\n', begin);
      const size_t end = nl == std::string::npos ? s.size() : nl + 1;
      s.insert(fuzz::LineStart(s, rng), s.substr(begin, end - begin));
      break;
    }
  }
}

/// "" when `status` is ok or a named InvalidArgument of `domain`.
std::string NamedOrOk(const Status& status, const std::string& domain) {
  if (status.ok()) return "";
  if (status.code() != StatusCode::kInvalidArgument ||
      status.message().rfind(domain + "/", 0) != 0) {
    return status.ToString();
  }
  return "";
}

TEST(JsonlFuzzTest, CorpusParses) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  int events = 0;
  int manifests = 0;
  for (const std::string& text : corpus) {
    events += obs::ParseEvents(text).ok();
    manifests += obs::ParseManifest(text).ok();
  }
  EXPECT_GT(events, 0);
  EXPECT_GT(manifests, 0);
}

TEST(JsonlFuzzTest, MutatedInputsReturnANamedStatus) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(kSeed);
  int events_ok = 0;
  int manifests_ok = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = corpus[rng.NextBounded(corpus.size())];
    for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
      if (rng.NextBounded(2) == 0) {
        fuzz::MutateTextOnce(text, rng);
      } else {
        MutateJsonOnce(text, rng);
      }
    }
    const Result<obs::EventLog> events = obs::ParseEvents(text);
    ASSERT_EQ(NamedOrOk(events.status(), "events"), "")
        << "iteration " << i << " input '" << text << "'";
    const Result<obs::Manifest> manifest = obs::ParseManifest(text);
    ASSERT_EQ(NamedOrOk(manifest.status(), "manifest"), "")
        << "iteration " << i << " input '" << text << "'";
    events_ok += events.ok();
    manifests_ok += manifest.ok();
  }
  // A share of the mutants must still parse, or the fuzzer would only ever
  // exercise the first error path of each reader.
  EXPECT_GT(events_ok, kIterations / 50);
  EXPECT_GT(manifests_ok, kIterations / 50);
}

// Doubles outside the integer range of the field they are cast to: the
// readers range-check them instead of converting (undefined behaviour).
TEST(JsonlFuzzTest, OutOfRangeCastsAreRejected) {
  const std::string events_meta =
      "{\"type\":\"meta\",\"schema\":\"gnnpart.events\",\"version\":1}\n";
  const std::string epoch =
      "{\"type\":\"epoch\",\"sim\":\"distgnn\",\"steps\":1,\"workers\":2,"
      "\"grain\":1}\n";
  auto flow = [](const std::string& step, const std::string& src,
                 const std::string& dst, const std::string& links) {
    return "{\"type\":\"flow\",\"step\":" + step +
           ",\"phase\":\"fwd_sync\",\"src\":" + src + ",\"dst\":" + dst +
           ",\"t0\":0,\"t1\":1,\"t1f\":1,\"bytes\":8,\"links\":[" + links +
           "]}\n";
  };
  auto span = [](const std::string& step, const std::string& worker) {
    return "{\"type\":\"span\",\"step\":" + step + ",\"worker\":" + worker +
           ",\"phase\":\"fwd_sync\",\"t0\":0,\"dur\":1,\"comm\":0,"
           "\"bytes\":8}\n";
  };
  // Each record holds one value outside the range of the field it is
  // narrowed into: int for worker/src/dst/link/links, uint32 for the step
  // and epoch-shape fields.
  std::vector<std::string> records;
  for (const char* dst : {"1e999", "-1e999", "2147483648", "-2"}) {
    records.push_back(epoch + flow("0", "0", dst, "0"));
  }
  records.push_back(epoch + flow("0", "2147483648", "1", "0"));
  records.push_back(epoch + flow("4294967296", "0", "1", "0"));
  records.push_back(epoch + flow("0", "0", "1", "0,2147483648"));
  records.push_back(epoch + span("0", "2147483648"));
  records.push_back(epoch + span("4294967296", "0"));
  records.push_back(epoch +
                    "{\"type\":\"sample\",\"link\":2147483648,\"t0\":0,"
                    "\"t1\":1,\"rate\":1,\"flows\":1}\n");
  records.push_back(epoch +
                    "{\"type\":\"cache\",\"step\":4294967296,\"hits\":1,"
                    "\"misses\":1}\n");
  for (const char* field : {"steps", "workers", "grain"}) {
    std::string shape = epoch;
    const size_t at = shape.find(std::string("\"") + field + "\":") +
                      std::string(field).size() + 3;
    shape.replace(at, shape.find_first_of(",}", at) - at, "4294967296");
    records.push_back(shape);
  }
  for (const std::string& record : records) {
    const Result<obs::EventLog> log = obs::ParseEvents(events_meta + record);
    ASSERT_FALSE(log.ok()) << record;
    EXPECT_NE(log.status().message().find("events/bad-json"),
              std::string::npos)
        << log.status();
    EXPECT_NE(log.status().message().find("out of range"), std::string::npos)
        << log.status();
  }
  const std::string manifest_meta =
      "{\"type\":\"meta\",\"schema\":\"gnnpart.metrics\",\"version\":1}\n";
  for (const char* value : {"1e999", "-1e999", "9223372036854775808",
                            "-9223372036854775809"}) {
    const Result<obs::Manifest> manifest = obs::ParseManifest(
        manifest_meta + "{\"type\":\"gauge\",\"name\":\"g\",\"unit\":\"b\","
                        "\"det\":false,\"value\":" +
        value + "}\n");
    ASSERT_FALSE(manifest.ok()) << value;
    EXPECT_NE(manifest.status().message().find("manifest/bad-json"),
              std::string::npos)
        << manifest.status();
  }
}

}  // namespace
}  // namespace gnnpart
