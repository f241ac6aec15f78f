// Minimal CSV writer/reader.
//
// The paper's Dask client appends per-task statistics (start/end times,
// worker id) to a CSV file as tasks complete; dataflow::TaskStatsRecorder
// uses this writer to do the same, and the figure benches read the files
// back to print timeline series.
#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace sf {

class CsvWriter {
 public:
  // Writes to an external stream which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(const std::vector<std::string>& columns) { row_of_strings(columns); }

  // Append one row; accepts any streamable field types.
  template <typename... Fields>
  void row(const Fields&... fields) {
    bool first = true;
    ((*out_ << (first ? "" : ",") << format_field(fields), first = false), ...);
    *out_ << '\n';
  }

  void row_of_strings(const std::vector<std::string>& fields);

 private:
  template <typename T>
  static std::string format_field(const T& value) {
    std::ostringstream ss;
    ss << value;
    return escape(ss.str());
  }
  static std::string escape(const std::string& field);

  std::ostream* out_;
};

}  // namespace sf
