#include "util/csv.hpp"

namespace sf {

void CsvWriter::row_of_strings(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out_ << ',';
    *out_ << escape(fields[i]);
  }
  *out_ << '\n';
}

std::string CsvWriter::escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += "\"\"";
    else quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace sf
