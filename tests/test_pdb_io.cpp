#include "geom/pdb_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scratch_dir.hpp"

namespace sf {
namespace {

// An ALA with a CB, then an unknown residue with a CB and a sidechain
// centroid. Every atom has its own coordinates, so each record's
// columns show which field was written.
Structure two_residues() {
  Structure s("pair");
  Residue a;
  a.aa = 'A';
  a.n = {1.0, -2.5, 10.125};
  a.ca = {2.25, -0.5, 3.0};
  a.c = {4.0, 5.125, -6.0};
  a.o = {-7.75, 8.5, 0.25};
  a.cb = {11.0, -12.375, 13.5};
  a.has_cb = true;
  s.add_residue(a);
  Residue x;
  x.aa = 'X';
  x.n = {-14.0, 15.25, -16.5};
  x.ca = {17.625, 18.0, -19.25};
  x.c = {-20.5, -21.0, 22.75};
  x.o = {23.125, -24.0, 25.5};
  x.cb = {-26.25, 27.0, -28.875};
  x.sc = {-999.875, 100.5, 31.0};
  x.has_cb = true;
  x.has_sc = true;
  s.add_residue(x);
  return s;
}

std::string pdb_text(const Structure& s) {
  std::ostringstream out;
  write_pdb(out, s);
  return out.str();
}

TEST(PdbIo, WritesOneFixedColumnRecordPerModeledAtom) {
  EXPECT_EQ(pdb_text(two_residues()),
            "REMARK summitfold reduced heavy-atom model: pair\n"
            "ATOM      1 N    ALA A   1       1.000  -2.500  10.125  1.00  0.00           N\n"
            "ATOM      2 CA   ALA A   1       2.250  -0.500   3.000  1.00  0.00           C\n"
            "ATOM      3 C    ALA A   1       4.000   5.125  -6.000  1.00  0.00           C\n"
            "ATOM      4 O    ALA A   1      -7.750   8.500   0.250  1.00  0.00           O\n"
            "ATOM      5 CB   ALA A   1      11.000 -12.375  13.500  1.00  0.00           C\n"
            "ATOM      6 N    UNK A   2     -14.000  15.250 -16.500  1.00  0.00           N\n"
            "ATOM      7 CA   UNK A   2      17.625  18.000 -19.250  1.00  0.00           C\n"
            "ATOM      8 C    UNK A   2     -20.500 -21.000  22.750  1.00  0.00           C\n"
            "ATOM      9 O    UNK A   2      23.125 -24.000  25.500  1.00  0.00           O\n"
            "ATOM     10 CB   UNK A   2     -26.250  27.000 -28.875  1.00  0.00           C\n"
            "ATOM     11 SC   UNK A   2    -999.875 100.500  31.000  1.00  0.00           C\n"
            "TER\nEND\n");
}

TEST(PdbIo, FileHoldsTheStreamBytes) {
  const Structure s = two_residues();
  const std::string path = test_scratch_dir() + "sf_test.pdb";
  write_pdb_file(path, s);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), pdb_text(s));
}

TEST(PdbIo, ThrowsOnUnwritablePath) {
  EXPECT_THROW(write_pdb_file("/nonexistent/dir/x.pdb", Structure{}), std::runtime_error);
}

}  // namespace
}  // namespace sf
