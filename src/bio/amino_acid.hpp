// Amino-acid chemistry tables.
//
// Everything downstream that needs residue-level chemistry draws from
// here: heavy-atom counts (Fig. 4 x-axis), background frequencies
// (sequence generation and E-value statistics), secondary-structure
// propensities (making synthetic sequences consistent with their folds),
// and a BLOSUM62-flavored substitution matrix (alignment scoring and
// homolog mutation sampling).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace sf {

inline constexpr int kNumAminoAcids = 20;
inline constexpr std::string_view kAminoAcids = "ARNDCQEGHILKMFPSTWYV";

// Index of a one-letter code in kAminoAcids; -1 if not a standard residue.
int aa_index(char aa);
char aa_from_index(int idx);

// Heavy (non-hydrogen) atoms per residue, backbone included
// (GLY 4 ... TRP 14). Unknown residues get the ALA value.
int aa_heavy_atoms(char aa);

// True for residues with a beta carbon (all but glycine).
bool aa_has_cb(char aa);
// True for residues whose sidechain extends beyond CB (all but GLY/ALA);
// these get a sidechain-centroid pseudo-atom in the structure model.
bool aa_has_sc(char aa);

// Robinson-Robinson background frequencies (sum to 1).
double aa_background_freq(char aa);

// Chou-Fasman-style propensities, normalized around 1.0.
double aa_helix_propensity(char aa);
double aa_strand_propensity(char aa);

// BLOSUM62 substitution score (integers, standard matrix).
int blosum62(char a, char b);

// A full row of BLOSUM62 for residue `a`, indexed by kAminoAcids order.
const std::array<std::int8_t, kNumAminoAcids>& blosum62_row(char a);

}  // namespace sf
