// Tests for the one JSON codec (util/json): the strict reader's grammar,
// depth limit, duplicate keys and \u escapes; every JSON writer's output
// parsing back to the strings it was given; and a malformed-input sweep
// over the three hand-written inputs the reader serves (netlist deltas,
// job lines, journals).
#include "util/json.hpp"

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "diag/render.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"

namespace tv {
namespace {

bool parses(const std::string& text, json::Value* out = nullptr,
            std::string* error = nullptr) {
  json::Value v;
  bool ok = json::parse(text, v, error);
  if (out) *out = std::move(v);
  return ok;
}

std::string run_of(char c, int n) {
  return std::string(static_cast<std::size_t>(n), c);
}

// ------------------------------------------------------------------ reader

TEST(Json, AcceptsTheGrammar) {
  const char* good[] = {
      "0", "-0", "7", "-12", "1.5", "1.5e-3", "-12E+2", "0.0e0", "\"\"", "\"a\"", "true",
      "false", "null", "[]", "{}", " \t\r\n[1, \"x\", true, false, null, {\"a\": []}] \n",
      "{\"a\": {\"a\": 1}}",  // the same key in different objects
      "\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t\"",
  };
  for (const char* text : good) {
    std::string error;
    EXPECT_TRUE(parses(text, nullptr, &error)) << text << ": " << error;
  }
}

TEST(Json, RejectsWhatTheGrammarDoesNot) {
  const char* bad[] = {
      "", " ", "1-2", "--5", "1.5.5", "1e", "1e+", "01", "-", ".5", "1.", "+1", "0x10",
      "nan", "inf", "-inf", "tru", "nul", "True", "[1,]", "[,1]", "[1 2]", "{\"a\":1,}",
      "{\"a\" 1}", "{a:1}", "{1:1}", "\"abc", "[", "{\"a\":", "[1] 2", "{} {}", "\"\\q\"",
      "\"\\u12\"", "\"\\u12g4\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
      "\"\\ud800x\"", "'a'",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(parses(text, nullptr, &error)) << text;
    EXPECT_NE(error.find(" at offset "), std::string::npos) << text << ": " << error;
  }
}

TEST(Json, RejectsRawControlBytesInStrings) {
  for (int c = 0; c < 0x20; ++c) {
    std::string text = "\"a";
    text += static_cast<char>(c);
    text += "b\"";
    std::string error;
    EXPECT_FALSE(parses(text, nullptr, &error)) << c;
    EXPECT_EQ(error, "raw control byte in a string at offset 2") << c;
  }
  // Bytes at and above 0x20 are taken verbatim, UTF-8 included.
  json::Value v;
  ASSERT_TRUE(parses("\"\x7f\xc3\xa9\"", &v));
  EXPECT_EQ(v.str, "\x7f\xc3\xa9");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  const std::pair<const char*, const char*> cases[] = {
      {"\"\\u0041\"", "A"},
      {"\"\\u00e9\"", "\xc3\xa9"},
      {"\"\\u20AC\"", "\xe2\x82\xac"},
      {"\"\\ud83d\\ude00\"", "\xf0\x9f\x98\x80"},  // surrogate pair
      {"\"\\uDBFF\\uDFFF\"", "\xf4\x8f\xbf\xbf"},  // highest code point
  };
  for (const auto& [text, utf8] : cases) {
    json::Value v;
    std::string error;
    ASSERT_TRUE(parses(text, &v, &error)) << text << ": " << error;
    EXPECT_EQ(v.str, utf8) << text;
  }
  json::Value nul;
  ASSERT_TRUE(parses("\"a\\u0000b\"", &nul));
  EXPECT_EQ(nul.str, std::string("a\0b", 3));
}

TEST(Json, RejectsDuplicateKeysInEveryObject) {
  std::string error;
  EXPECT_FALSE(parses("{\"a\":1,\"a\":2}", nullptr, &error));
  EXPECT_EQ(error, "duplicate key \"a\" at offset 7");
  EXPECT_FALSE(parses("[{\"x\": {\"b\": 1, \"c\": 2, \"b\": 3}}]", nullptr, &error));
  EXPECT_EQ(error, "duplicate key \"b\" at offset 24");
  // Keys compare after decoding.
  EXPECT_FALSE(parses("{\"a\": 1, \"\\u0061\": 2}", nullptr, &error));
  // The first repeat in document order is the one reported.
  EXPECT_FALSE(parses("{\"b\":1,\"a\":1,\"a\":2,\"b\":2}", nullptr, &error));
  EXPECT_EQ(error, "duplicate key \"a\" at offset 13");
}

TEST(Json, NestingIsBoundedByTheDepthLimit) {
  const int limit = json::kMaxDepth;
  EXPECT_TRUE(parses(run_of('[', limit) + run_of(']', limit)));
  std::string error;
  std::string deep = run_of('[', limit + 1) + run_of(']', limit + 1);
  EXPECT_FALSE(parses(deep, nullptr, &error));
  EXPECT_EQ(error, "nesting deeper than " + std::to_string(limit) + " at offset " +
                       std::to_string(limit));
  std::string objects;
  for (int i = 0; i <= limit; ++i) objects += "{\"k\":";
  EXPECT_FALSE(parses(objects + "1" + run_of('}', limit + 1), nullptr, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos);
  // A megabyte of '[' is rejected, not a stack overflow.
  EXPECT_FALSE(parses(run_of('[', 1 << 20), nullptr, &error));
}

TEST(Json, NumbersKeepTheirTextAndConvertStrictly) {
  json::Value v;
  ASSERT_TRUE(parses("[1.5, -0, 9223372036854775807, -9223372036854775808, "
                     "9223372036854775808, 1.0, 1e3, 1e400, 2.5e-1, \"7\"]",
                     &v));
  ASSERT_EQ(v.arr.size(), 10u);
  EXPECT_EQ(v.arr[0].str, "1.5");
  EXPECT_EQ(v.arr[0].as_double(), 1.5);
  EXPECT_EQ(v.arr[0].as_int64(), std::nullopt);
  EXPECT_EQ(v.arr[1].as_int64(), 0);
  EXPECT_EQ(v.arr[2].as_int64(), INT64_MAX);
  EXPECT_EQ(v.arr[3].as_int64(), INT64_MIN);
  EXPECT_EQ(v.arr[4].as_int64(), std::nullopt);  // out of range
  EXPECT_EQ(v.arr[4].as_double(), 9223372036854775808.0);
  EXPECT_EQ(v.arr[5].as_int64(), std::nullopt);  // not an integer token
  EXPECT_EQ(v.arr[6].as_int64(), std::nullopt);
  EXPECT_EQ(v.arr[6].as_double(), 1000.0);
  EXPECT_EQ(v.arr[7].as_double(), std::nullopt);  // not finite
  EXPECT_EQ(v.arr[8].as_double(), 0.25);
  EXPECT_EQ(v.arr[9].as_double(), std::nullopt);  // a string is not a number
  EXPECT_EQ(v.arr[9].as_int64(), std::nullopt);
}

TEST(Json, ErrorsNameTheOffset) {
  std::string error;
  EXPECT_FALSE(parses("[1, 2 x]", nullptr, &error));
  EXPECT_EQ(error, "expected ',' or ']' at offset 6");
  EXPECT_FALSE(parses("{\"id\": 1} x", nullptr, &error));
  EXPECT_EQ(error, "trailing characters after the value at offset 10");
  EXPECT_FALSE(parses("", nullptr, &error));
  EXPECT_EQ(error, "unexpected end of input at offset 0");
}

TEST(Json, EscapeWritesTheSharedTable) {
  EXPECT_EQ(json::quote("a\"b\\c\nd\te\rf"), "\"a\\\"b\\\\c\\nd\\te\\rf\"");
  EXPECT_EQ(json::quote(std::string("\x01\x1f\x7f\xc3\xa9/", 6)),
            "\"\\u0001\\u001f\x7f\xc3\xa9/\"");
  EXPECT_EQ(json::quote(std::string("\0", 1)), "\"\\u0000\"");
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    json::Value v;
    ASSERT_TRUE(parses(json::quote(s), &v)) << c;
    EXPECT_EQ(v.str, s) << c;
  }
}

// ------------------------------------------------- writers round-trip

// Every character class a writer must escape: quote, backslash, TAB, CR,
// LF and a C0 byte that has no short escape.
const std::string kNasty = std::string("q\"b\\s\tt\x01u\r\nv");

TEST(JsonWriters, ExportJsonRoundTrips) {
  Netlist nl;
  nl.buf("B", 0, 0, nl.ref("A .S0-4"), nl.ref("X"));
  nl.finalize();
  VerifyResult r;
  r.degradations.push_back(Degradation{diag::kWarnTimeLimit, kNasty});
  VerifyResult::CaseResult c;
  c.name = kNasty;
  r.cases.push_back(c);
  const std::string out = export_json(nl, r, from_ns(50), {}, kNasty);
  json::Value v;
  std::string error;
  ASSERT_TRUE(parses(out, &v, &error)) << error << "\n" << out;
  EXPECT_EQ(v.get("design")->str, kNasty);
  EXPECT_EQ(v.get("degradations")->arr.at(0).get("message")->str, kNasty);
  EXPECT_EQ(v.get("cases")->arr.at(0).get("name")->str, kNasty);
  // --json writes TAB and CR with their short escapes.
  EXPECT_NE(out.find("s\\tt\\u0001u\\r\\nv"), std::string::npos) << out;
}

TEST(JsonWriters, RenderJsonRoundTrips) {
  diag::DiagnosticEngine diags;
  diag::Diagnostic& d = diags.report(diag::Severity::Error, "TV-E305",
                                     diag::SourceLoc{kNasty, 3, 4}, kNasty);
  d.notes.push_back(diag::Note{diag::SourceLoc{kNasty, 1, 2}, kNasty});
  const std::string out = diag::render_json(diags);
  json::Value v;
  std::string error;
  ASSERT_TRUE(parses(out, &v, &error)) << error << "\n" << out;
  const json::Value& first = v.get("diagnostics")->arr.at(0);
  EXPECT_EQ(first.get("message")->str, kNasty);
  EXPECT_EQ(first.get("loc")->get("file")->str, kNasty);
  EXPECT_EQ(first.get("notes")->arr.at(0).get("message")->str, kNasty);
  EXPECT_EQ(v.get("errors")->as_int64(), 1);
}

TEST(JsonWriters, ManifestRoundTrips) {
  serve::Manifest m;
  serve::JobRecord j;
  j.id = kNasty;
  j.design = kNasty;
  j.state = serve::JobState::Done;
  j.attempts = 1;
  j.outcomes = {kNasty, "exit:0"};
  m.jobs.push_back(j);
  const std::string out = m.to_json();
  json::Value v;
  std::string error;
  ASSERT_TRUE(parses(out, &v, &error)) << error << "\n" << out;
  const json::Value& job = v.get("jobs")->arr.at(0);
  EXPECT_EQ(job.get("id")->str, kNasty);
  EXPECT_EQ(job.get("design")->str, kNasty);
  EXPECT_EQ(job.get("outcomes")->arr.at(0).str, kNasty);
  // A C0 byte is escaped, never written raw.
  EXPECT_EQ(out.find('\x01'), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A journal of one batch whose job id is `id`: header, launch, outcome,
/// settle and a quarantine record.
std::string write_journal(const std::string& path, const std::string& id) {
  serve::JobSpec job;
  job.id = id;
  job.design = "d.shdl";
  std::string error;
  auto j = serve::Journal::create(path, {job}, 7, 3, serve::BatchPolicy{}, &error);
  EXPECT_TRUE(j) << error;
  if (!j) return {};
  j->record_launch(id, 1);
  j->record_outcome(id, 1, "exit:5");
  j->record_launch(id, 2);
  j->record_outcome(id, 2, "exit:1");
  j->record_settle(id, serve::JobState::Violations);
  j->record_quarantine(id);
  EXPECT_TRUE(j->ok());
  return slurp(path);
}

TEST(JsonWriters, JournalRecordsRoundTrip) {
  const std::string path = ::testing::TempDir() + "tv_json_journal_roundtrip";
  const std::string text = write_journal(path, kNasty);
  EXPECT_EQ(text.find('\x01'), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    json::Value v;
    std::string error;
    ASSERT_TRUE(parses(line, &v, &error)) << error << ": " << line;
    if (const json::Value* job = v.get("job")) {
      EXPECT_EQ(job->str, kNasty);
    }
    ++records;
  }
  EXPECT_EQ(records, 7);
  std::string error;
  auto replay = serve::replay_journal(path, &error);
  ASSERT_TRUE(replay) << error;
  ASSERT_EQ(replay->jobs.count(kNasty), 1u);
  EXPECT_EQ(replay->jobs.at(kNasty).outcomes, (std::vector<std::string>{"exit:5", "exit:1"}));
  EXPECT_EQ(replay->quarantined_keys, std::vector<std::string>{kNasty});
  std::remove(path.c_str());
}

// ------------------------------------------------- malformed-input sweep

/// Feeds `parse` every prefix of `valid` and `flips` copies with one to
/// three seeded bytes overwritten. Each input must be accepted or rejected
/// with a message; a crash or a hang fails the test run.
template <class Parse>
void sweep(const std::string& valid, int flips, Parse&& parse) {
  std::string error;
  ASSERT_TRUE(parse(valid, error)) << error;
  for (std::size_t n = 0; n < valid.size(); ++n) {
    error.clear();
    if (!parse(valid.substr(0, n), error)) {
      EXPECT_FALSE(error.empty()) << n;
    }
  }
  std::mt19937 rng(20240611u);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> count(1, 3);
  for (int i = 0; i < flips; ++i) {
    std::string mutated = valid;
    for (int k = count(rng); k > 0; --k) mutated[pos(rng)] = static_cast<char>(byte(rng));
    error.clear();
    if (!parse(mutated, error)) {
      EXPECT_FALSE(error.empty()) << i;
    }
  }
}

Netlist delta_netlist() {
  Netlist nl;
  nl.buf("B", 0, 0, nl.ref("A .S0-4"), nl.ref("X"));
  nl.buf("C", 0, 0, nl.ref("X"), nl.ref("Y"));
  nl.finalize();
  return nl;
}

TEST(JsonSweep, NetlistDelta) {
  const Netlist nl = delta_netlist();
  const std::string valid =
      "{\"prims\": [{\"prim\": \"B\", \"dmin\": 1.0, \"dmax\": 2.5,"
      " \"rise_fall\": [1, 2, 1.5, 2.5]}],\n"
      " \"pins\": [{\"prim\": \"C\", \"input\": 0, \"signal\": \"A .S0-4\","
      " \"invert\": true}],\n"
      " \"wires\": [{\"signal\": \"X\", \"dmin\": 0.0, \"dmax\": 1e0}],\n"
      " \"cases\": [{\"name\": \"c\\u0031\", \"pins\": [[\"X\", 1]], \"at\": 0}]}\n";
  sweep(valid, 3000, [&](const std::string& text, std::string& error) {
    NetlistDelta delta;
    return parse_delta_json(text, nl, &delta, &error);
  });
}

TEST(JsonSweep, JobLine) {
  const std::string valid =
      R"({"id": "j\t1", "design": "a.shdl", "stdlib": true, "time_limit": 2.5, )"
      R"("jobs": 4, "fault": "io.read@1:fail", "fault_attempts": 1})";
  sweep(valid, 3000, [](const std::string& text, std::string& error) {
    return serve::parse_job_line(text, &error).has_value();
  });
}

TEST(JsonSweep, Journal) {
  const std::string path = ::testing::TempDir() + "tv_json_journal_sweep";
  const std::string valid = write_journal(path, "job-1");
  sweep(valid, 600, [&](const std::string& text, std::string& error) {
    spit(path, text);
    return serve::replay_journal(path, &error).has_value();
  });
  std::remove(path.c_str());
}

// ------------------------------------------------- what the copies got wrong

TEST(DeltaJson, RejectsMalformedNumbers) {
  const Netlist nl = delta_netlist();
  for (const char* number : {"1-2", "--5", "1.5.5", "1e", "01", ".5", "nan", "1e400"}) {
    const std::string text =
        std::string("{\"prims\": [{\"prim\": \"B\", \"dmin\": ") + number + ", \"dmax\": 3.5}]}";
    NetlistDelta delta;
    std::string error;
    EXPECT_FALSE(parse_delta_json(text, nl, &delta, &error)) << number;
    EXPECT_EQ(error.rfind("delta JSON: ", 0), 0u) << error;
  }
}

TEST(DeltaJson, RejectsARepeatedSection) {
  const Netlist nl = delta_netlist();
  NetlistDelta delta;
  std::string error;
  EXPECT_FALSE(parse_delta_json(
      "{\"prims\": [{\"prim\": \"B\", \"dmin\": 1, \"dmax\": 2}],"
      " \"prims\": [{\"prim\": \"C\", \"dmin\": 1, \"dmax\": 2}]}",
      nl, &delta, &error));
  EXPECT_EQ(error, "delta JSON: duplicate key \"prims\" at offset 49");
}

TEST(DeltaJson, IntegerFieldsTakeIntegerTokens) {
  const Netlist nl = delta_netlist();
  const char* bad[] = {
      R"({"pins": [{"prim": "C", "input": 0.5, "signal": "A .S0-4"}]})",
      R"({"pins": [{"prim": "C", "input": -1, "signal": "A .S0-4"}]})",
      R"({"cases": [{"name": "c", "pins": [["X", 0.5]]}]})",
      R"({"cases": [{"name": "c", "pins": [["X", 2]]}]})",
      R"({"cases": [{"name": "c", "pins": [["X", 1]], "at": 1.5}]})",
  };
  for (const char* text : bad) {
    NetlistDelta delta;
    std::string error;
    EXPECT_FALSE(parse_delta_json(text, nl, &delta, &error)) << text;
  }
  NetlistDelta delta;
  std::string error;
  ASSERT_TRUE(parse_delta_json(R"({"cases": [{"name": "c", "pins": [["X", 1]], "at": 0}]})",
                               nl, &delta, &error))
      << error;
  ASSERT_EQ(delta.cases.size(), 1u);
  EXPECT_EQ(delta.cases[0].spec->pins.at(0).second, Value::One);
}

TEST(DeltaJson, DeepNestingIsAnInputError) {
  const Netlist nl = delta_netlist();
  NetlistDelta delta;
  std::string error;
  EXPECT_FALSE(parse_delta_json(run_of('[', 1 << 20), nl, &delta, &error));
  EXPECT_EQ(error, "delta JSON: nesting deeper than " + std::to_string(json::kMaxDepth) +
                       " at offset " + std::to_string(json::kMaxDepth));
}

}  // namespace
}  // namespace tv
