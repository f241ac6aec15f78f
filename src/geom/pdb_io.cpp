#include "geom/pdb_io.hpp"

#include <cstdio>
#include <ostream>

#include "util/file_io.hpp"

namespace sf {

namespace {

const char* three_letter(char aa) {
  switch (aa) {
    case 'A': return "ALA";
    case 'R': return "ARG";
    case 'N': return "ASN";
    case 'D': return "ASP";
    case 'C': return "CYS";
    case 'Q': return "GLN";
    case 'E': return "GLU";
    case 'G': return "GLY";
    case 'H': return "HIS";
    case 'I': return "ILE";
    case 'L': return "LEU";
    case 'K': return "LYS";
    case 'M': return "MET";
    case 'F': return "PHE";
    case 'P': return "PRO";
    case 'S': return "SER";
    case 'T': return "THR";
    case 'W': return "TRP";
    case 'Y': return "TYR";
    case 'V': return "VAL";
    default: return "UNK";
  }
}

void write_atom(std::ostream& out, int serial, const char* atom_name, char aa, int res_seq,
                const Vec3& p) {
  char line[96];
  // Columns per the PDB v3.3 ATOM record spec.
  std::snprintf(line, sizeof(line),
                "ATOM  %5d %-4s %3s A%4d    %8.3f%8.3f%8.3f  1.00  0.00           %c\n",
                serial, atom_name, three_letter(aa), res_seq, p.x, p.y, p.z,
                atom_name[0] == 'S' ? 'C' : atom_name[0]);
  out << line;
}

}  // namespace

void write_pdb(std::ostream& out, const Structure& s) {
  out << "REMARK summitfold reduced heavy-atom model: " << s.name() << '\n';
  int serial = 1;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Residue& r = s.residue(i);
    const int res_seq = static_cast<int>(i) + 1;
    write_atom(out, serial++, "N", r.aa, res_seq, r.n);
    write_atom(out, serial++, "CA", r.aa, res_seq, r.ca);
    write_atom(out, serial++, "C", r.aa, res_seq, r.c);
    write_atom(out, serial++, "O", r.aa, res_seq, r.o);
    if (r.has_cb) write_atom(out, serial++, "CB", r.aa, res_seq, r.cb);
    if (r.has_sc) write_atom(out, serial++, "SC", r.aa, res_seq, r.sc);
  }
  out << "TER\nEND\n";
}

void write_pdb_file(const std::string& path, const Structure& s) {
  write_file_atomic(path, [&](std::ostream& out) { write_pdb(out, s); });
}

}  // namespace sf
