#include "dataflow/stats.hpp"

#include <string>

#include "util/csv.hpp"
#include "util/file_io.hpp"

namespace sf {

void write_task_stats_csv(std::ostream& out, const std::vector<TaskRecord>& records) {
  CsvWriter csv(out);
  csv.header({"task_id", "name", "worker", "start_s", "end_s"});
  for (const auto& r : records) {
    csv.row(r.task_id, r.name, r.worker, r.start_s, r.end_s);
  }
}

void write_task_stats_csv_file(const std::string& path, const std::vector<TaskRecord>& records) {
  write_file_atomic(path, [&](std::ostream& out) { write_task_stats_csv(out, records); });
}

}  // namespace sf
