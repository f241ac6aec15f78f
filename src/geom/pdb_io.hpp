// Minimal PDB-format writer for the reduced heavy-atom model.
//
// Output is standard-enough ATOM records to load in PyMOL/ChimeraX.
#pragma once

#include <iosfwd>
#include <string>

#include "geom/structure.hpp"

namespace sf {

// Write ATOM records for all modeled atoms of `s`.
void write_pdb(std::ostream& out, const Structure& s);
// Write to a file path; throws std::runtime_error on failure.
void write_pdb_file(const std::string& path, const Structure& s);

}  // namespace sf
