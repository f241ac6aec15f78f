// SARIF 2.1.0 rendering. The output is byte-deterministic (fixed rule
// table, fixed key order, results in diagnostic order) so the test
// suite can pin a golden file and CI can upload the report to code
// scanning unchanged.
#include <sstream>
#include <string>
#include <vector>

#include "sfcheck.hpp"

namespace sf::lint {

namespace {

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

struct RuleInfo {
  const char* id;
  const char* text;
};

// Fixed rule table: every rule is always present (stable ruleIndex)
// whether or not it fired.
const RuleInfo kRules[] = {
    {"D1", "seeded RNG only: no rand()/srand()/std::random_device/unseeded mt19937 "
           "outside the sf::Rng home"},
    {"D2", "no wall-clock reads outside the sanctioned sf::util::wallclock_now() shim"},
    {"D3", "no unordered-container iteration in emit modules"},
    {"D4", "no naked std::ofstream outside the torn-write-safe helpers"},
    {"D5", "canonical float formatting only in emit modules (no std::to_string, bare "
           "stream insertion of floats, or direct printf-family calls)"},
    {"L1", "include-graph layering: includes point down the module ranks; the module "
           "graph stays acyclic"},
    {"R1", "task functions must not reach a nondeterminism sink through any call chain"},
    {"C1", "task lambdas must be pure: no captured-state mutation, no 'mutable', no "
           "store/journal calls"},
    {"U1", "every src/ definition is reachable from a product"},
    {"SUP", "sfcheck:allow suppressions must carry a reason"},
};

int rule_index(const std::string& id) {
  for (int i = 0; i < static_cast<int>(sizeof(kRules) / sizeof(kRules[0])); ++i) {
    if (id == kRules[i].id) return i;
  }
  return -1;
}

// "name@file:line" -> (name, file, line). Tolerates names containing
// '@' or ':' by splitting from the right.
void split_hop(const std::string& hop, std::string& name, std::string& file, int& line) {
  const std::size_t colon = hop.rfind(':');
  const std::size_t at = hop.rfind('@', colon == std::string::npos ? hop.size() : colon);
  if (colon == std::string::npos || at == std::string::npos || at > colon) {
    name = hop;
    file.clear();
    line = 0;
    return;
  }
  name = hop.substr(0, at);
  file = hop.substr(at + 1, colon - at - 1);
  line = std::atoi(hop.c_str() + colon + 1);
}

void emit_result(std::ostringstream& o, const Diagnostic& d, bool suppressed, bool first) {
  if (!first) o << ",";
  o << "\n      {\n";
  o << "        \"ruleId\": \"" << json_escape(d.rule) << "\",\n";
  o << "        \"ruleIndex\": " << rule_index(d.rule) << ",\n";
  o << "        \"level\": \"error\",\n";
  o << "        \"message\": {\"text\": \"" << json_escape(d.message) << "\"},\n";
  o << "        \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
    << json_escape(d.file) << "\"}";
  if (d.line > 0) o << ", \"region\": {\"startLine\": " << d.line << "}";
  o << "}}]";
  if (!d.chain.empty()) {
    o << ",\n        \"codeFlows\": [{\"threadFlows\": [{\"locations\": [";
    for (std::size_t i = 0; i < d.chain.size(); ++i) {
      std::string name, file;
      int line = 0;
      split_hop(d.chain[i], name, file, line);
      if (i) o << ",";
      o << "\n          {\"location\": {\"physicalLocation\": {\"artifactLocation\": "
        << "{\"uri\": \"" << json_escape(file) << "\"}";
      if (line > 0) o << ", \"region\": {\"startLine\": " << line << "}";
      o << "}, \"message\": {\"text\": \"" << json_escape(name) << "\"}}}";
    }
    o << "\n        ]}]}]";
  }
  if (suppressed) {
    o << ",\n        \"suppressions\": [{\"kind\": \"inSource\", \"justification\": \""
      << json_escape(d.reason) << "\"}]";
  }
  o << "\n      }";
}

}  // namespace

std::string render_sarif(const ScanResult& result) {
  std::ostringstream o;
  o << "{\n";
  o << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  o << "  \"version\": \"2.1.0\",\n";
  o << "  \"runs\": [{\n";
  o << "    \"tool\": {\"driver\": {\n";
  o << "      \"name\": \"sfcheck\",\n";
  o << "      \"informationUri\": \"https://example.invalid/summitfold/tools/sfcheck\",\n";
  o << "      \"rules\": [";
  for (std::size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    if (i) o << ",";
    o << "\n        {\"id\": \"" << kRules[i].id << "\", \"shortDescription\": {\"text\": \""
      << json_escape(kRules[i].text) << "\"}}";
  }
  o << "\n      ]\n";
  o << "    }},\n";
  o << "    \"columnKind\": \"utf16CodeUnits\",\n";
  o << "    \"results\": [";
  bool first = true;
  for (const Diagnostic& d : result.diagnostics) {
    emit_result(o, d, /*suppressed=*/false, first);
    first = false;
  }
  for (const Diagnostic& d : result.suppressed) {
    emit_result(o, d, /*suppressed=*/true, first);
    first = false;
  }
  o << "\n    ]\n";
  o << "  }]\n";
  o << "}\n";
  return o.str();
}

}  // namespace sf::lint
