// Task-statistics recording.
//
// The paper's client appends per-task statistics to a CSV as each Dask
// future resolves (§3.3 step 3e). This module writes that CSV;
// the Fig. 2 timeline itself is rendered from traces
// (obs::render_trace_timeline).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dataflow/task.hpp"

namespace sf {

// CSV with header: task_id,name,worker,start_s,end_s
void write_task_stats_csv(std::ostream& out, const std::vector<TaskRecord>& records);
void write_task_stats_csv_file(const std::string& path, const std::vector<TaskRecord>& records);

}  // namespace sf
