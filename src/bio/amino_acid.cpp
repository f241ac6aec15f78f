#include "bio/amino_acid.hpp"

namespace sf {

namespace {

// Index lookup table built once.
constexpr std::array<int, 128> make_index_table() {
  std::array<int, 128> t{};
  for (auto& v : t) v = -1;
  for (int i = 0; i < kNumAminoAcids; ++i) t[static_cast<unsigned char>(kAminoAcids[i])] = i;
  return t;
}
constexpr auto kIndexTable = make_index_table();

// Order: A R N D C Q E G H I L K M F P S T W Y V
constexpr std::array<int, 20> kHeavyAtoms = {5, 11, 8, 8, 6, 9, 9, 4, 10, 8,
                                             8, 9, 8, 11, 7, 6, 7, 14, 12, 7};

constexpr std::array<double, 20> kBackgroundFreq = {
    0.0780, 0.0512, 0.0448, 0.0536, 0.0192, 0.0426, 0.0629, 0.0738, 0.0226, 0.0514,
    0.0901, 0.0574, 0.0225, 0.0385, 0.0520, 0.0712, 0.0584, 0.0132, 0.0321, 0.0645};

constexpr std::array<double, 20> kHelixProp = {1.42, 0.98, 0.67, 1.01, 0.70, 1.11, 1.51,
                                               0.57, 1.00, 1.08, 1.21, 1.16, 1.45, 1.13,
                                               0.57, 0.77, 0.83, 1.08, 0.69, 1.06};

constexpr std::array<double, 20> kStrandProp = {0.83, 0.93, 0.89, 0.54, 1.19, 1.10, 0.37,
                                                0.75, 0.87, 1.60, 1.30, 0.74, 1.05, 1.38,
                                                0.55, 0.75, 1.19, 1.37, 1.47, 1.70};

// BLOSUM62, rows/cols in kAminoAcids order (ARNDCQEGHILKMFPSTWYV).
constexpr std::array<std::array<std::int8_t, 20>, 20> kBlosum62 = {{
    {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
    {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
    {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
    {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
    {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
    {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
    {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
    {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
    {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
    {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
    {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
    {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
    {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
    {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
    {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
    {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
    {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
    {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
    {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
    {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
}};

}  // namespace

int aa_index(char aa) {
  const auto u = static_cast<unsigned char>(aa);
  return u < 128 ? kIndexTable[u] : -1;
}

char aa_from_index(int idx) {
  return (idx >= 0 && idx < kNumAminoAcids) ? kAminoAcids[static_cast<std::size_t>(idx)] : 'X';
}

int aa_heavy_atoms(char aa) {
  const int i = aa_index(aa);
  return i >= 0 ? kHeavyAtoms[static_cast<std::size_t>(i)] : 5;
}

bool aa_has_cb(char aa) { return aa != 'G'; }

bool aa_has_sc(char aa) { return aa != 'G' && aa != 'A'; }

double aa_background_freq(char aa) {
  const int i = aa_index(aa);
  return i >= 0 ? kBackgroundFreq[static_cast<std::size_t>(i)] : 0.0;
}

double aa_helix_propensity(char aa) {
  const int i = aa_index(aa);
  return i >= 0 ? kHelixProp[static_cast<std::size_t>(i)] : 1.0;
}

double aa_strand_propensity(char aa) {
  const int i = aa_index(aa);
  return i >= 0 ? kStrandProp[static_cast<std::size_t>(i)] : 1.0;
}

int blosum62(char a, char b) {
  const int i = aa_index(a);
  const int j = aa_index(b);
  if (i < 0 || j < 0) return -1;
  return kBlosum62[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

const std::array<std::int8_t, kNumAminoAcids>& blosum62_row(char a) {
  static const std::array<std::int8_t, 20> unknown = {
      -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};
  const int i = aa_index(a);
  return i >= 0 ? kBlosum62[static_cast<std::size_t>(i)] : unknown;
}

}  // namespace sf
