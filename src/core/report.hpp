// Paper-style report printers shared by benches and examples.
#pragma once

#include <iosfwd>

#include "core/pipeline.hpp"

namespace sf {

// One stage line: wall time, node-hours, utilization, spread.
void print_stage(std::ostream& out, const StageReport& stage);

// Full campaign summary: all three stages plus quality distributions
// (fractions above the paper's 70-pLDDT / 0.6-pTMS cutoffs, mean
// recycles, OOM counts).
void print_campaign(std::ostream& out, const CampaignReport& report,
                    const SpeciesProfile& species);

}  // namespace sf
