// src/store: content-addressed artifact store.
//
// Covers the store's determinism contract bottom-up: key derivation,
// bit-exact payload codecs, manifest torn-write recovery + compaction,
// FIFO eviction, checksum-guarded reads, replica-priced staging -- and
// top-down: a campaign with a store produces a byte-identical report to
// one without, and a journal-sealed feature stage plus a warm store
// resumes with zero feature-stage task attempts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/key.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_scratch_dir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

store::ArtifactKey key_of(int i) {
  return store::artifact_key(mix64(0x5eedULL, static_cast<std::uint64_t>(i)), "features",
                             0xc0f1ULL);
}

// ------------------------------------------------------------------ //
// Keys.
// ------------------------------------------------------------------ //

TEST(StoreKey, DeterministicAndSensitiveToEveryInput) {
  FoldUniverse universe(30, 9);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 3).generate(4);
  const std::uint64_t fp0 = store::record_fingerprint(records[0]);
  EXPECT_EQ(fp0, store::record_fingerprint(records[0]));
  EXPECT_NE(fp0, store::record_fingerprint(records[1]));

  const store::ArtifactKey base = store::artifact_key(fp0, "features", 7);
  EXPECT_EQ(base, store::artifact_key(fp0, "features", 7));
  EXPECT_NE(base, store::artifact_key(fp0, "inference", 7));
  EXPECT_NE(base, store::artifact_key(fp0, "features", 8));
  EXPECT_NE(base, store::artifact_key(fp0 + 1, "features", 7));
}

TEST(StoreKey, HexRoundTrip) {
  const store::ArtifactKey key = store::artifact_key(0x123456789abcdef0ULL, "relaxation", 42);
  const std::string hex = key.hex();
  EXPECT_EQ(hex.size(), 32u);
  store::ArtifactKey back;
  ASSERT_TRUE(store::ArtifactKey::from_hex(hex, back));
  EXPECT_EQ(back, key);
  EXPECT_FALSE(store::ArtifactKey::from_hex("zz", back));
}

TEST(StoreKey, ContentChecksumSeparatesPayloads) {
  EXPECT_EQ(store::content_checksum("abc"), store::content_checksum("abc"));
  EXPECT_NE(store::content_checksum("abc"), store::content_checksum("abd"));
  EXPECT_NE(store::content_checksum(""), store::content_checksum("a"));
}

// ------------------------------------------------------------------ //
// Codecs: bit-exact round trips.
// ------------------------------------------------------------------ //

TEST(StoreCodec, FeaturesRoundTripBitExact) {
  FoldUniverse universe(30, 9);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 3).generate(6);
  for (const auto& rec : records) {
    const InputFeatures f = sample_features(rec, LibraryKind::kReduced);
    InputFeatures back;
    ASSERT_TRUE(store::decode_features(store::encode_features(f), back));
    EXPECT_EQ(back.target_id, f.target_id);
    EXPECT_EQ(back.length, f.length);
    EXPECT_EQ(back.msa_depth, f.msa_depth);
    EXPECT_EQ(back.neff, f.neff);  // bit-exact, not approx
    EXPECT_EQ(back.mean_identity, f.mean_identity);
    EXPECT_EQ(back.has_templates, f.has_templates);
    EXPECT_EQ(back.feature_bytes(), f.feature_bytes());
  }
}

Structure make_structure(int n) {
  Structure s("test/pred");
  for (int i = 0; i < n; ++i) {
    Residue r;
    r.aa = static_cast<char>('A' + (i % 20));
    r.heavy_atoms = 4 + (i % 8);
    const double x = 0.1 + i * 3.8;
    r.n = {x, 0.31 + i, -1.25};
    r.ca = {x + 1.1, 0.77 - i * 0.01, 2.5};
    r.c = {x + 2.2, 1.0 / 3.0, 0.625};
    r.o = {x + 2.9, -7.125, 1e-9 * i};
    r.has_cb = (i % 3) != 0;
    if (r.has_cb) r.cb = {x + 1.4, 1.5, -0.5 - i};
    r.has_sc = (i % 2) != 0;
    if (r.has_sc) r.sc = {x + 1.8, 2.25, 0.3 * i};
    s.add_residue(r);
  }
  return s;
}

TEST(StoreCodec, PredictionRoundTripBitExact) {
  store::PredictionArtifact a;
  a.top_model = 3;
  a.plddt = 87.4321098765;
  a.ptms = 0.71234567890123;
  a.true_tm = 1.0 / 7.0;  // not representable in short decimal
  a.true_lddt = 0.9999999999999999;
  a.recycles = 9;
  a.converged = true;
  a.dropped = false;
  for (int m = 0; m < 5; ++m) a.passes[m] = m + 1;
  a.oom_mask = 0b10010u;
  a.conv_mask = 0b01101u;
  a.has_structure = true;
  a.structure = make_structure(17);

  store::PredictionArtifact b;
  ASSERT_TRUE(store::decode_prediction(store::encode_prediction(a), b));
  EXPECT_EQ(b.top_model, a.top_model);
  EXPECT_EQ(b.plddt, a.plddt);
  EXPECT_EQ(b.ptms, a.ptms);
  EXPECT_EQ(b.true_tm, a.true_tm);
  EXPECT_EQ(b.true_lddt, a.true_lddt);
  EXPECT_EQ(b.recycles, a.recycles);
  EXPECT_EQ(b.converged, a.converged);
  EXPECT_EQ(b.dropped, a.dropped);
  for (int m = 0; m < 5; ++m) EXPECT_EQ(b.passes[m], a.passes[m]);
  EXPECT_EQ(b.oom_mask, a.oom_mask);
  EXPECT_EQ(b.conv_mask, a.conv_mask);
  ASSERT_TRUE(b.has_structure);
  ASSERT_EQ(b.structure.size(), a.structure.size());
  EXPECT_EQ(b.structure.name(), a.structure.name());
  for (std::size_t i = 0; i < a.structure.size(); ++i) {
    const Residue& ra = a.structure.residue(i);
    const Residue& rb = b.structure.residue(i);
    EXPECT_EQ(rb.aa, ra.aa);
    EXPECT_EQ(rb.heavy_atoms, ra.heavy_atoms);
    EXPECT_EQ(rb.ca.x, ra.ca.x);  // bit-exact coordinates
    EXPECT_EQ(rb.ca.y, ra.ca.y);
    EXPECT_EQ(rb.ca.z, ra.ca.z);
    EXPECT_EQ(rb.o.z, ra.o.z);
    EXPECT_EQ(rb.has_cb, ra.has_cb);
    EXPECT_EQ(rb.has_sc, ra.has_sc);
    if (ra.has_cb) {
      EXPECT_EQ(rb.cb.x, ra.cb.x);
    }
    if (ra.has_sc) {
      EXPECT_EQ(rb.sc.z, ra.sc.z);
    }
  }
}

TEST(StoreCodec, DroppedPredictionRoundTripsWithoutStructure) {
  store::PredictionArtifact a;
  a.dropped = true;
  a.oom_mask = 0b11111u;
  store::PredictionArtifact b;
  ASSERT_TRUE(store::decode_prediction(store::encode_prediction(a), b));
  EXPECT_TRUE(b.dropped);
  EXPECT_FALSE(b.has_structure);
  EXPECT_EQ(b.oom_mask, a.oom_mask);
}

TEST(StoreCodec, RelaxRoundTripBitExact) {
  store::RelaxArtifact a;
  a.clashes_before = 41;
  a.clashes_after = 0;
  a.bumps_before = 17;
  a.bumps_after = 2;
  a.heavy_atoms = 2531.0;
  a.energy_evaluations = 48123.5;
  store::RelaxArtifact b;
  ASSERT_TRUE(store::decode_relax(store::encode_relax(a), b));
  EXPECT_EQ(b.clashes_before, a.clashes_before);
  EXPECT_EQ(b.clashes_after, a.clashes_after);
  EXPECT_EQ(b.bumps_before, a.bumps_before);
  EXPECT_EQ(b.bumps_after, a.bumps_after);
  EXPECT_EQ(b.heavy_atoms, a.heavy_atoms);
  EXPECT_EQ(b.energy_evaluations, a.energy_evaluations);
}

TEST(StoreCodec, TornPayloadFailsToDecode) {
  store::PredictionArtifact a;
  a.top_model = 1;
  a.has_structure = true;
  a.structure = make_structure(8);
  const std::string full = store::encode_prediction(a);
  store::PredictionArtifact out;
  // Any strict prefix must fail: every line is sealed with `end`, so a
  // torn object can never decode into a plausible-but-wrong artifact.
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    EXPECT_FALSE(store::decode_prediction(full.substr(0, cut), out)) << "cut " << cut;
  }
  InputFeatures f;
  EXPECT_FALSE(store::decode_features("sffeat v1 id 10", f));
  store::RelaxArtifact r;
  EXPECT_FALSE(store::decode_relax("", r));
}

// `payload` with token `i` of its first line replaced by `value`.
std::string with_token(const std::string& payload, std::size_t i, const std::string& value) {
  const std::size_t eol = payload.find('\n');
  std::vector<std::string> tokens = split(payload.substr(0, eol), ' ');
  tokens.at(i) = value;
  std::string line = tokens[0];
  for (std::size_t t = 1; t < tokens.size(); ++t) line += " " + tokens[t];
  return line + payload.substr(eol);
}

// Every decoder refuses a value its encoder never writes -- the
// strictness the campaign journal applies to the same fields -- and
// none of them throws, whatever the payload claims.
TEST(StoreCodec, RefusesValuesTheEncoderNeverWritesWithoutThrowing) {
  store::RelaxArtifact relax;
  relax.clashes_before = 4;
  relax.bumps_after = 2;
  relax.heavy_atoms = 810.0;
  const std::string relax_bytes = store::encode_relax(relax);
  store::PredictionArtifact pred;
  pred.top_model = 2;
  pred.recycles = 3;
  pred.converged = true;
  pred.oom_mask = 0b00100u;
  const std::string pred_bytes = store::encode_prediction(pred);
  store::PairArtifact pair;
  pair.interface_score = 0.5;
  pair.recycles = 6;
  const std::string pair_bytes = store::encode_pair(pair);
  pred.has_structure = true;
  pred.structure = make_structure(3);
  const std::string with_structure = store::encode_prediction(pred);
  const std::string head = with_structure.substr(0, with_structure.find('\n') + 1);

  store::RelaxArtifact r;
  store::PredictionArtifact p;
  store::PairArtifact q;
  // Controls: the unmutated payloads decode.
  ASSERT_TRUE(store::decode_relax(relax_bytes, r));
  ASSERT_TRUE(store::decode_prediction(pred_bytes, p));
  ASSERT_TRUE(store::decode_pair(pair_bytes, q));
  ASSERT_TRUE(store::decode_prediction(with_structure, p));

  const auto refused = [](const std::function<bool()>& decode) {
    bool ok = true;
    EXPECT_NO_THROW(ok = decode());
    return !ok;
  };
  for (const auto& [at, value] : std::vector<std::pair<std::size_t, std::string>>{
           {2, "-1"}, {3, "+2"}, {6, "0x3ff0000000000000"}}) {
    SCOPED_TRACE("sfrelax token " + std::to_string(at) + " = " + value);
    EXPECT_TRUE(refused([&] { return store::decode_relax(with_token(relax_bytes, at, value), r); }));
  }
  for (const auto& [at, value] : std::vector<std::pair<std::size_t, std::string>>{
           {2, "9"},            // top model past 5
           {2, "-1"},           // the old default, never written
           {7, "-3"},           // negative recycles
           {8, "2"},            // flag 2
           {9, "7"},            // flag 7
           {10, "-1"},          // negative passes
           {15, "4294967296"},  // a mask of 2^32, once read back as 0
           {16, "32"},          // a mask past five models
           {17, "2"},           // has_structure 2
           {3, "3FF0000000000000"}}) {
    SCOPED_TRACE("sfpred token " + std::to_string(at) + " = " + value);
    EXPECT_TRUE(
        refused([&] { return store::decode_prediction(with_token(pred_bytes, at, value), p); }));
  }
  for (const auto& [at, value] : std::vector<std::pair<std::size_t, std::string>>{
           {4, "-5"}, {5, "3"}, {6, "9"}}) {
    SCOPED_TRACE("sfpair token " + std::to_string(at) + " = " + value);
    EXPECT_TRUE(refused([&] { return store::decode_pair(with_token(pair_bytes, at, value), q); }));
  }
  // A structure line claiming more residues than the payload holds is
  // refused before anything is reserved for them.
  for (const char* count : {"99999999999999", "18446744073709551615", "4", "2"}) {
    SCOPED_TRACE(std::string("struct count ") + count);
    const std::string body = with_structure.substr(head.size());
    const std::string bad = head + "struct test/pred " + count + " end\n" +
                            body.substr(body.find('\n') + 1);
    EXPECT_TRUE(refused([&] { return store::decode_prediction(bad, p); }));
  }
}

// ------------------------------------------------------------------ //
// Manifest durability.
// ------------------------------------------------------------------ //

TEST(StoreManifest, TornTailRecoveryAndCompaction) {
  const std::string dir = fresh_dir("store_manifest");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.sfstore";
  {
    store::Manifest m(path);
    m.load();
    m.append_put(key_of(1), 1000, 11, "a/features");
    m.append_put(key_of(2), 2000, 22, "b/features");
    m.append_evict(key_of(1));
    m.append_put(key_of(3), 3000, 33, "c/features");
  }
  // Tear the tail mid-line (a kill during append).
  const std::string full = read_file(path);
  write_file(path, full + "put deadbeef");
  {
    store::Manifest m(path);
    ASSERT_TRUE(m.load());
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.entries()[0].key, key_of(2));
    EXPECT_EQ(m.entries()[1].key, key_of(3));
    EXPECT_EQ(m.total_bytes(), 5000u);
    // Compaction preserved the original insertion counters, so eviction
    // order cannot change across a reopen.
    EXPECT_EQ(m.entries()[0].seq, 2u);
    EXPECT_EQ(m.entries()[1].seq, 3u);
    EXPECT_EQ(m.next_seq(), 4u);
  }
  // Compaction is idempotent: a clean reopen leaves the bytes alone.
  const std::string compacted = read_file(path);
  EXPECT_NE(compacted, full + "put deadbeef");
  {
    store::Manifest m(path);
    ASSERT_TRUE(m.load());
  }
  EXPECT_EQ(read_file(path), compacted);
}

TEST(StoreManifest, RejectsForeignHeader) {
  const std::string dir = fresh_dir("store_manifest_hdr");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.sfstore";
  write_file(path, "sfjournal v1 end\nmeasured 0 end\n");
  store::Manifest m(path);
  EXPECT_FALSE(m.load());
  EXPECT_EQ(m.size(), 0u);
}

// Lines the writer never produces end the valid prefix exactly like a
// torn tail: neither they nor the well-formed line behind them load,
// and compaction cuts the file back to its clean image (the journal's
// rule, ChaosCampaign.JournalKeepsFirstRowOnDuplicateAndDropsGarbageTail).
TEST(StoreManifest, DropsLinesItsWriterNeverProducesAndEverythingAfter) {
  const std::string dir = fresh_dir("store_manifest_strict");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.sfstore";
  {
    store::Manifest m(path);
    m.load();
    m.append_put(key_of(1), 1000, 0x11, "a/features");
    m.append_put(key_of(2), 2000, 0x22, "b/features", 1.5);
    m.append_touch(key_of(1));  // tick 3
  }
  const std::string clean = read_file(path);
  const std::string k1 = key_of(1).hex();
  const std::string k3 = key_of(3).hex();
  const std::string trailer = "touch " + k1 + " 10 end\n";
  {  // control: a well-formed put loads, and so does the line behind it
    write_file(path, clean + "put " + k3 + " 3000 0000000000000033 9 c/features end\n" + trailer);
    store::Manifest m(path);
    ASSERT_TRUE(m.load());
    ASSERT_NE(m.find(key_of(3)), nullptr);
    EXPECT_EQ(m.find(key_of(1))->last_touch, 10u);
  }
  const std::vector<std::string> rejected = {
      "put " + k3 + " -1 0000000000000033 9 c/features end",     // sign on the byte count
      "put " + k3 + " 3000 0000000000000033 +5 c/features end",  // '+' on the seq
      "touch " + k1 + " -1 end",                                 // sign on the tick
      "put " + k3 + " 3000 0x00000000000033 9 c/features end",   // 0x-prefixed checksum
      "put " + k3 + " 3000 00000000000000AB 9 c/features end",   // uppercase checksum
      "put " + k3 + " 3000 000000000000033 9 c/features end",    // 15-digit checksum
      "put " + k3 + " 3000 0000000000000033 0 c/features end",   // seqs start at 1
      "put " + k3 + " 3000 0000000000000033 18446744073709551615 c/features end",  // wraps
      "touch " + k1 + " 18446744073709551615 end",  // the next seq would wrap to 0
  };
  for (const std::string& line : rejected) {
    SCOPED_TRACE(line);
    write_file(path, clean + line + "\n" + trailer);
    store::Manifest m(path);
    ASSERT_TRUE(m.load());
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.total_bytes(), 3000u);
    EXPECT_EQ(m.find(key_of(3)), nullptr);
    ASSERT_NE(m.find(key_of(1)), nullptr);
    EXPECT_EQ(m.find(key_of(1))->last_touch, 3u);
    EXPECT_EQ(m.next_seq(), 4u);
    EXPECT_EQ(read_file(path), clean);
  }
}

// ------------------------------------------------------------------ //
// Store: eviction, corruption, pricing.
// ------------------------------------------------------------------ //

store::StagingPricer test_pricer() {
  store::StagingPricer p;
  p.replicas = 4;
  p.total_jobs = 16;
  return p;
}

TEST(ArtifactStore, PutGetRoundTripAndStats) {
  const std::string dir = fresh_dir("store_roundtrip");
  store::ArtifactStore s(dir);
  EXPECT_FALSE(s.open());  // cold
  s.begin_stage("features", test_pricer());
  s.put(key_of(1), "a/features", "payload-one", 4096.0);
  EXPECT_TRUE(s.contains(key_of(1)));
  const auto got = s.get(key_of(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload-one");
  EXPECT_FALSE(s.get(key_of(2)).has_value());
  const store::StoreStats& st = s.stage_stats();
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.gets, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.bytes_written, 4096.0);
  EXPECT_EQ(st.bytes_read, 4096.0);
  EXPECT_GT(st.read_s, 0.0);
  EXPECT_GT(st.write_s, 0.0);

  // Reopen warm: the artifact survives a process restart.
  store::ArtifactStore again(dir);
  EXPECT_TRUE(again.open());
  again.begin_stage("features", test_pricer());
  EXPECT_EQ(again.get(key_of(1)).value_or(""), "payload-one");
}

TEST(ArtifactStore, EvictionIsFifoAndSparesTheFreshPut) {
  const std::string dir = fresh_dir("store_evict");
  store::StorePolicy policy;
  policy.capacity_bytes = 2500;
  store::ArtifactStore s(dir, policy);
  s.open();
  s.begin_stage("features", test_pricer());
  s.put(key_of(1), "a", "one", 1000.0);
  s.put(key_of(2), "b", "two", 1000.0);
  s.put(key_of(3), "c", "three", 1000.0);  // pushes past 2500: evicts key 1
  EXPECT_FALSE(s.contains(key_of(1)));
  EXPECT_TRUE(s.contains(key_of(2)));
  EXPECT_TRUE(s.contains(key_of(3)));
  // An oversized artifact evicts everything else but itself survives.
  s.put(key_of(4), "d", "four", 9000.0);
  EXPECT_FALSE(s.contains(key_of(2)));
  EXPECT_FALSE(s.contains(key_of(3)));
  EXPECT_TRUE(s.contains(key_of(4)));
  EXPECT_EQ(s.total_stats().evictions, 3u);
}

TEST(ArtifactStore, EvictionOrderIsIdenticalAcrossReruns) {
  // The same call sequence against two fresh stores leaves bit-identical
  // manifests -- the determinism contract eviction rests on.
  std::string images[2];
  for (int run = 0; run < 2; ++run) {
    const std::string dir = fresh_dir("store_rerun_" + std::to_string(run));
    store::StorePolicy policy;
    policy.capacity_bytes = 5000;
    store::ArtifactStore s(dir, policy);
    s.open();
    s.begin_stage("features", test_pricer());
    for (int i = 0; i < 12; ++i) {
      s.put(key_of(i), "rec" + std::to_string(i), "payload" + std::to_string(i),
            1000.0 + 100.0 * i);
      if (i % 3 == 0) (void)s.get(key_of(i / 2));
    }
    // Force compaction to the canonical image before comparing.
    store::ArtifactStore reopened(dir);
    reopened.open();
    images[run] = read_file(dir + "/manifest.sfstore");
  }
  EXPECT_FALSE(images[0].empty());
  EXPECT_EQ(images[0], images[1]);
}

TEST(ArtifactStore, CorruptObjectIsAMissNeverWrongData) {
  const std::string dir = fresh_dir("store_corrupt");
  store::ArtifactStore s(dir);
  s.open();
  s.begin_stage("features", test_pricer());
  s.put(key_of(7), "x/features", "true-payload", 1000.0);
  write_file(s.object_path(key_of(7)), "corrupted bytes");
  EXPECT_FALSE(s.get(key_of(7)).has_value());
  EXPECT_FALSE(s.contains(key_of(7)));  // entry dropped, recompute path
  EXPECT_EQ(s.stage_stats().misses, 1u);

  s.put(key_of(8), "y/features", "gone", 1000.0);
  std::filesystem::remove(s.object_path(key_of(8)));
  EXPECT_FALSE(s.get(key_of(8)).has_value());
  EXPECT_FALSE(s.contains(key_of(8)));
}

TEST(StagingPricer, FewerReplicasMeansSlowerStaging) {
  const FilesystemModel fs;
  store::StagingPricer crowded{fs, 1, 96};
  store::StagingPricer spread{fs, 24, 96};
  EXPECT_GT(crowded.read_seconds(1e9), spread.read_seconds(1e9));
  EXPECT_GT(crowded.write_seconds(1e9), spread.write_seconds(1e9));
  EXPECT_GT(crowded.lookup_seconds(), spread.lookup_seconds());
  // A write is two metadata ops (create + rename) to a read's one.
  EXPECT_GT(spread.write_seconds(0.0), spread.read_seconds(0.0));
  // Bytes dominate metadata for large artifacts.
  EXPECT_GT(spread.read_seconds(1e12), spread.read_seconds(0.0) * 100);
}

// ------------------------------------------------------------------ //
// Campaign integration.
// ------------------------------------------------------------------ //

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 8;
  cfg.relax_sample = 4;
  return cfg;
}

void expect_campaign_eq(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.features.wall_s, b.features.wall_s);
  EXPECT_EQ(a.features.node_hours, b.features.node_hours);
  EXPECT_EQ(a.features.tasks, b.features.tasks);
  EXPECT_EQ(a.inference.wall_s, b.inference.wall_s);
  EXPECT_EQ(a.inference.node_hours, b.inference.node_hours);
  EXPECT_EQ(a.inference.retry_attempts, b.inference.retry_attempts);
  EXPECT_EQ(a.relaxation.wall_s, b.relaxation.wall_s);
  EXPECT_EQ(a.relaxation.node_hours, b.relaxation.node_hours);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    SCOPED_TRACE("target " + std::to_string(i));
    EXPECT_EQ(a.targets[i].id, b.targets[i].id);
    EXPECT_EQ(a.targets[i].measured, b.targets[i].measured);
    EXPECT_EQ(a.targets[i].top_model, b.targets[i].top_model);
    EXPECT_EQ(a.targets[i].plddt, b.targets[i].plddt);
    EXPECT_EQ(a.targets[i].ptms, b.targets[i].ptms);
    EXPECT_EQ(a.targets[i].true_tm, b.targets[i].true_tm);
    EXPECT_EQ(a.targets[i].true_lddt, b.targets[i].true_lddt);
    EXPECT_EQ(a.targets[i].recycles, b.targets[i].recycles);
    EXPECT_EQ(a.targets[i].oom, b.targets[i].oom);
    EXPECT_EQ(a.targets[i].relaxed, b.targets[i].relaxed);
    EXPECT_EQ(a.targets[i].clashes_before, b.targets[i].clashes_before);
    EXPECT_EQ(a.targets[i].clashes_after, b.targets[i].clashes_after);
  }
  EXPECT_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_EQ(a.ptms.mean(), b.ptms.mean());
  EXPECT_EQ(a.recycles.mean(), b.recycles.mean());
  ASSERT_EQ(a.inference_records.size(), b.inference_records.size());
  for (std::size_t i = 0; i < a.inference_records.size(); ++i) {
    EXPECT_EQ(a.inference_records[i].start_s, b.inference_records[i].start_s);
    EXPECT_EQ(a.inference_records[i].end_s, b.inference_records[i].end_s);
  }
}

TEST(StoreCampaign, StoreOnMatchesStoreOffBitForBit) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(10);
  const PipelineConfig cfg = small_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport off = pipeline.run(records);

  const std::string dir = fresh_dir("store_campaign");
  store::ArtifactStore artifacts(dir);
  EXPECT_FALSE(artifacts.open());
  const CampaignReport cold = pipeline.run(records, nullptr, nullptr, &artifacts);
  expect_campaign_eq(off, cold);
  // Cold pass populated all three stages.
  EXPECT_GT(artifacts.size(), 0u);
  EXPECT_EQ(artifacts.total_stats().hits, 0u);
  EXPECT_GT(artifacts.total_stats().puts, 0u);

  // A second run against the warm store still reports identically: hits
  // skip only the real recompute, never the modeled schedule.
  store::ArtifactStore warm(dir);
  EXPECT_TRUE(warm.open());
  const CampaignReport warm_run = pipeline.run(records, nullptr, nullptr, &warm);
  expect_campaign_eq(off, warm_run);
  EXPECT_EQ(warm.total_stats().misses, 0u);
  EXPECT_GT(warm.total_stats().hits, 0u);
  EXPECT_EQ(warm.total_stats().puts, 0u);
}

TEST(StoreCampaign, WarmResumeSkipsFeatureStageEntirely) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(10);
  const PipelineConfig cfg = small_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport baseline = pipeline.run(records);

  // Journaled + stored run, then kill it right after the feature stage
  // seals (mid-inference: measured rows exist but the stage does not).
  const std::string dir = fresh_dir("store_resume");
  const std::string journal_path = test_scratch_dir() + "store_resume.sfj";
  write_file(journal_path, "");
  {
    store::ArtifactStore artifacts(dir);
    artifacts.open();
    CampaignJournal journal(journal_path);
    pipeline.run(records, &journal, nullptr, &artifacts);
  }
  const std::string full = read_file(journal_path);
  const std::size_t seal = full.find("stage features");
  ASSERT_NE(seal, std::string::npos);
  std::size_t cut = full.find('\n', seal);
  ASSERT_NE(cut, std::string::npos);
  // Keep a few measured rows past the seal to model a mid-inference
  // kill, tearing the final line.
  for (int skip = 0; skip < 3; ++skip) {
    const std::size_t next = full.find('\n', cut + 1);
    if (next == std::string::npos) break;
    cut = next;
  }
  write_file(journal_path, full.substr(0, cut - 5));

  // Resume with the warm store and a trace recorder watching.
  store::ArtifactStore warm(dir);
  ASSERT_TRUE(warm.open());
  CampaignJournal journal(journal_path);
  obs::TraceRecorder recorder;
  const CampaignReport resumed = pipeline.run(records, &journal, &recorder, &warm);
  expect_campaign_eq(baseline, resumed);

  // Zero feature-stage task attempts: the stage is in the trace but ran
  // nothing -- the whole point of pairing the journal with the store.
  ASSERT_EQ(recorder.stages().size(), 3u);
  const obs::StageTrace& features = recorder.stages()[0];
  EXPECT_EQ(features.info.stage, "features");
  EXPECT_TRUE(features.spans.empty());
  EXPECT_TRUE(features.rounds.empty());
  ASSERT_TRUE(features.store);
  EXPECT_EQ(features.store->misses, 0u);
  EXPECT_EQ(features.store->hits, static_cast<std::uint64_t>(records.size()));
  EXPECT_EQ(features.store->puts, 0u);

  // The store's own per-stage window agrees with the trace.
  ASSERT_FALSE(warm.stage_history().empty());
  EXPECT_EQ(warm.stage_history()[0].first, "features");
  EXPECT_EQ(warm.stage_history()[0].second.misses, 0u);
}

TEST(StoreCampaign, SealedStageWithColdStoreRecomputesMissesInline) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(8);
  const PipelineConfig cfg = small_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport baseline = pipeline.run(records);

  // Journal-complete campaign, but the store starts cold (e.g. the
  // cache directory was lost): every feature is a miss, recomputed
  // inline and re-stored, and the report still replays bit-for-bit.
  const std::string journal_path = test_scratch_dir() + "store_coldresume.sfj";
  write_file(journal_path, "");
  {
    CampaignJournal journal(journal_path);
    pipeline.run(records, &journal);
  }
  const std::string dir = fresh_dir("store_cold_resume");
  store::ArtifactStore cold(dir);
  EXPECT_FALSE(cold.open());
  CampaignJournal journal(journal_path);
  const CampaignReport resumed = pipeline.run(records, &journal, nullptr, &cold);
  expect_campaign_eq(baseline, resumed);
  ASSERT_FALSE(cold.stage_history().empty());
  EXPECT_EQ(cold.stage_history()[0].second.misses,
            static_cast<std::uint64_t>(records.size()));
  EXPECT_EQ(cold.stage_history()[0].second.puts,
            static_cast<std::uint64_t>(records.size()));
}

TEST(StoreCampaign, FifoTraceStoreSectionMatchesPrePolicyByteImage) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(8);
  const PipelineConfig cfg = small_config();
  const Pipeline pipeline(universe, cfg);

  auto trace_with = [&](store::EvictionPolicy ep, const std::string& tag) {
    store::StorePolicy policy;
    policy.eviction = ep;
    store::ArtifactStore artifacts(fresh_dir("store_trace_" + tag), policy);
    artifacts.open();
    obs::TraceRecorder recorder;
    pipeline.run(records, nullptr, &recorder, &artifacts);
    const std::string path = test_scratch_dir() + "store_trace_" + tag + ".json";
    obs::write_chrome_trace_file(path, recorder.doc());
    return read_file(path);
  };

  // Default-policy (FIFO) traces must keep the exact byte image of
  // builds that predate pluggable eviction: no "policy" key anywhere in
  // the store sections. This is the regression guard for PR 6 goldens.
  const std::string fifo = trace_with(store::EvictionPolicy::kFifo, "fifo");
  EXPECT_NE(fifo.find("\"store\":{"), std::string::npos);
  EXPECT_EQ(fifo.find("\"policy\""), std::string::npos);

  // Non-default policies announce themselves, and the name round-trips.
  const std::string lru = trace_with(store::EvictionPolicy::kLru, "lru");
  EXPECT_NE(lru.find("\"policy\":\"lru\""), std::string::npos);
  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::parse_chrome_trace(lru, doc, &error)) << error;
  ASSERT_FALSE(doc.stages.empty());
  for (const obs::StageTrace& st : doc.stages) {
    ASSERT_TRUE(st.store);
    EXPECT_EQ(st.store->policy, "lru");
  }
  obs::TraceDoc fifo_doc;
  ASSERT_TRUE(obs::parse_chrome_trace(fifo, fifo_doc, &error)) << error;
  for (const obs::StageTrace& st : fifo_doc.stages) {
    ASSERT_TRUE(st.store);
    EXPECT_TRUE(st.store->policy.empty());
  }
}

}  // namespace
}  // namespace sf
