// Verification subsystem tests: the linearizability and serializability
// checkers on hand-built histories (known-good and known-bad), the
// mutation self-tests (seeded bugs must be CAUGHT), clean chaos seeds
// (no false positives), and the fault-plan shrinker (deterministic,
// small minimized plans), and the tests/corpus reader (strict on typos,
// crash-free and round-tripping under mutation).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "text_mutator.h"
#include "verify/corpus.h"
#include "verify/fuzz.h"
#include "verify/history.h"
#include "verify/linearize.h"
#include "verify/serialize.h"

namespace ipipe {
namespace {

using verify::DtHistory;
using verify::KvHistory;
using verify::KvOp;
using verify::kPendingNs;

std::vector<std::uint8_t> val(std::uint8_t tag) { return {tag, 0x5A, tag}; }

KvOp kv_put(std::uint64_t rid, const std::string& key,
            std::vector<std::uint8_t> v, Ns inv, Ns res) {
  KvOp op;
  op.request_id = rid;
  op.op = rkv::Op::kPut;
  op.key = key;
  op.arg = std::move(v);
  op.invoke = inv;
  op.response = res;
  if (res != kPendingNs) {
    op.has_status = true;
    op.status = rkv::Status::kOk;
  }
  return op;
}

KvOp kv_get(std::uint64_t rid, const std::string& key, Ns inv, Ns res,
            rkv::Status status, std::vector<std::uint8_t> result = {}) {
  KvOp op;
  op.request_id = rid;
  op.op = rkv::Op::kGet;
  op.key = key;
  op.invoke = inv;
  op.response = res;
  op.has_status = true;
  op.status = status;
  op.result = std::move(result);
  return op;
}

// ------------------------------------------------------ linearizability --

TEST(Linearize, AcceptsSequentialHistory) {
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kOk, val(1)));
  h.ops.push_back(kv_put(3, "k", val(2), 40, 50));
  h.ops.push_back(kv_get(4, "k", 60, 70, rkv::Status::kOk, val(2)));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_FALSE(r.inconclusive);
}

TEST(Linearize, AcceptsConcurrentOverlap) {
  // Two puts overlap; a read concurrent with both may observe either.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 100));
  h.ops.push_back(kv_put(2, "k", val(2), 10, 90));
  h.ops.push_back(kv_get(3, "k", 20, 80, rkv::Status::kOk, val(1)));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
  h.ops[2] = kv_get(3, "k", 20, 80, rkv::Status::kOk, val(2));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, PendingPutMayOrMayNotTakeEffect) {
  // An unacknowledged put is concurrent with everything after its
  // invoke: a later read may see it or not.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_put(2, "k", val(2), 20, kPendingNs));
  h.ops.push_back(kv_get(3, "k", 30, 40, rkv::Status::kOk, val(2)));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
  h.ops[2] = kv_get(3, "k", 30, 40, rkv::Status::kOk, val(1));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, RejectsStaleRead) {
  // The second put was acknowledged before the read was invoked, so the
  // read observing the first value is a stale read.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_put(2, "k", val(2), 20, 30));
  h.ops.push_back(kv_get(3, "k", 40, 50, rkv::Status::kOk, val(1)));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_NE(r.detail.find("not linearizable"), std::string::npos) << r.detail;
}

TEST(Linearize, RejectsReadOfValueNeverWritten) {
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kOk, val(9)));
  EXPECT_FALSE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, RejectsLostAckedWrite) {
  // NotFound after an acknowledged put with no delete anywhere.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kNotFound));
  EXPECT_FALSE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, KeysArePartitionedIndependently) {
  // A violation on one key does not hide behind traffic on another.
  KvHistory h;
  h.ops.push_back(kv_put(1, "a", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "a", 20, 30, rkv::Status::kOk, val(1)));
  h.ops.push_back(kv_put(3, "b", val(2), 0, 10));
  h.ops.push_back(kv_get(4, "b", 20, 30, rkv::Status::kNotFound));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("key=b"), std::string::npos) << r.detail;
  EXPECT_EQ(r.detail.find("key=a"), std::string::npos) << r.detail;
}

// -------------------------------------------- serializability/atomicity --

using Outcome = dt::CoordinatorObserver::Outcome;

Outcome committed_txn(std::uint64_t txn, Ns decided_at) {
  Outcome o;
  o.txn_id = txn;
  o.status = dt::TxnStatus::kCommitted;
  o.decided_at = decided_at;
  return o;
}

DtHistory::Apply install(std::uint64_t txn, netsim::NodeId node,
                         const std::string& key, std::uint32_t version,
                         std::vector<std::uint8_t> value, Ns at) {
  return DtHistory::Apply{at, node, txn, key, version, std::move(value)};
}

/// Register a validated read both in the coordinator outcome and in the
/// participant-side read records (the checker joins the two).
void add_read(Outcome& o, DtHistory& h, netsim::NodeId node,
              const std::string& key, std::uint32_t version,
              std::vector<std::uint8_t> value, Ns at) {
  o.request.reads.push_back(dt::TxnRead{node, key});
  o.read_versions.push_back(version);
  o.read_values.push_back(value);
  h.reads.push_back(
      DtHistory::Read{at, node, o.txn_id, key, version, std::move(value),
                      /*ok=*/true});
}

TEST(Serialize, CleanHistoryPasses) {
  DtHistory h;
  auto t1 = committed_txn(1, 100);
  h.applies.push_back(install(1, 0, "x", 1, val(1), 90));
  auto t2 = committed_txn(2, 200);
  add_read(t2, h, 0, "x", 1, val(1), 180);
  h.applies.push_back(install(2, 0, "y", 1, val(2), 190));
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_history(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(r.edges, 1u);  // wr: 1 -> 2
}

TEST(Serialize, AtomicityRejectsVisibleAbortedWrite) {
  DtHistory h;
  Outcome o;
  o.txn_id = 7;
  o.status = dt::TxnStatus::kAbortedValidation;
  o.decided_at = 50;
  h.outcomes.push_back(o);
  h.applies.push_back(install(7, 1, "x", 1, val(1), 60));
  const auto r = verify::check_dt_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("atomicity:"), std::string::npos) << r.detail;
  EXPECT_NE(r.detail.find("aborted write visible"), std::string::npos);
}

TEST(Serialize, InDoubtInstallIsAllowed) {
  // An install by a transaction with no recorded outcome is in-doubt
  // (coordinator crashed before deciding), not a violation.
  DtHistory h;
  h.applies.push_back(install(42, 0, "x", 1, val(1), 10));
  const auto r = verify::check_dt_history(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.in_doubt, 1u);
}

TEST(Serialize, RejectsWrCycle) {
  // T1 reads T2's write and vice versa: wr edges both ways.
  DtHistory h;
  auto t1 = committed_txn(1, 300);
  auto t2 = committed_txn(2, 300);
  h.applies.push_back(install(1, 0, "a", 1, val(1), 100));
  h.applies.push_back(install(2, 0, "b", 1, val(2), 100));
  add_read(t1, h, 0, "b", 1, val(2), 200);
  add_read(t2, h, 0, "a", 1, val(1), 200);
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("serialization cycle"), std::string::npos)
      << r.detail;
}

TEST(Serialize, RejectsRwWwCycle) {
  // T1 read x@v0 then T2 installed x@1 (rw T1->T2); T2's y install
  // precedes T1's y install in the same chain (ww T2->T1).
  DtHistory h;
  auto t1 = committed_txn(1, 500);
  auto t2 = committed_txn(2, 400);
  add_read(t1, h, 0, "x", 0, {}, 100);
  h.applies.push_back(install(2, 0, "x", 1, val(2), 200));
  h.applies.push_back(install(2, 0, "y", 1, val(2), 200));
  h.applies.push_back(install(1, 0, "y", 2, val(1), 300));
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("serialization cycle"), std::string::npos)
      << r.detail;
}

TEST(Serialize, ReplayedInstallAfterWipeIsNotAViolation) {
  // T1 committed long before node 0's wipe; the coordinator's commit
  // retransmit re-installs its write afterwards.  T2 decided after the
  // wipe and wrote the same key.  Without the replay exemption this
  // reads as T2 -> T1 -> T2.
  DtHistory h;
  auto t1 = committed_txn(1, 100);
  h.applies.push_back(install(1, 0, "x", 1, val(1), 110));
  h.wipes.push_back(DtHistory::Wipe{500, 0});
  auto t2 = committed_txn(2, 600);
  h.applies.push_back(install(2, 0, "x", 1, val(2), 610));
  // Replay of T1's write lands after T2's fresh install.
  h.applies.push_back(install(1, 0, "x", 2, val(1), 700));
  add_read(t1, h, 0, "x", 0, {}, 90);
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_TRUE(r.ok) << r.detail;
}

// ----------------------------------------------- end-to-end fuzz runs --

TEST(VerifyFuzz, RkvStaleReadBugCaught) {
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.app = verify::FuzzApp::kRkv;
  opt.inject_stale_reads = true;
  const auto v = verify::run_verify_once(opt);
  ASSERT_FALSE(v.ok) << "seeded stale-read bug was not caught";
  EXPECT_EQ(v.checker, "linearizability");
  EXPECT_GT(v.kv_completed, 0u);
}

TEST(VerifyFuzz, DtLostAbortBugCaught) {
  verify::FuzzOptions opt;
  opt.seed = 2;
  opt.app = verify::FuzzApp::kDt;
  opt.inject_lost_abort = true;
  const auto v = verify::run_verify_once(opt);
  ASSERT_FALSE(v.ok) << "seeded lost-abort bug was not caught";
  EXPECT_EQ(v.checker, "atomicity");
  EXPECT_GT(v.txns_aborted, 0u);
}

TEST(VerifyFuzz, CleanSeedsPassUnderChaos) {
  // No false positives: ten random seeds, both applications, chaos on.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    verify::FuzzOptions opt;
    opt.seed = seed;
    opt.app = seed % 2 ? verify::FuzzApp::kRkv : verify::FuzzApp::kDt;
    const auto v = verify::run_verify_once(opt);
    EXPECT_TRUE(v.ok) << "seed " << seed << " checker=" << v.checker << "\n"
                      << v.detail;
    EXPECT_FALSE(v.inconclusive) << "seed " << seed;
    if (opt.app == verify::FuzzApp::kRkv) {
      EXPECT_GT(v.kv_completed, 100u) << "seed " << seed;
    } else {
      EXPECT_GT(v.txns_committed, 100u) << "seed " << seed;
    }
  }
}

TEST(VerifyFuzz, ShrinkIsDeterministicAndSmall) {
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.app = verify::FuzzApp::kRkv;
  opt.inject_stale_reads = true;
  const auto failing = verify::run_verify_once(opt);
  ASSERT_FALSE(failing.ok);

  const auto s1 = verify::shrink_fault_plan(opt, failing.plan);
  ASSERT_FALSE(s1.verdict.ok) << "minimized plan no longer reproduces";
  EXPECT_LE(s1.plan.size(), 3u) << s1.plan.to_text();
  EXPECT_LT(s1.plan.size(), failing.plan.size());

  // Same seed, same failing plan => byte-identical minimized plan.
  const auto s2 = verify::shrink_fault_plan(opt, failing.plan);
  EXPECT_EQ(s1.plan.to_text(), s2.plan.to_text());
  EXPECT_EQ(s1.runs, s2.runs);
}

// ---------------------------------------------------------- corpus reader --

std::vector<std::string> corpus_texts() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPIPE_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

void ExpectSameCase(const verify::CorpusCase& a, const verify::CorpusCase& b,
                    const std::string& context) {
  EXPECT_EQ(a.fo.app, b.fo.app) << context;
  EXPECT_EQ(a.fo.seed, b.fo.seed) << context;
  EXPECT_EQ(a.fo.duration_s, b.fo.duration_s) << context;
  EXPECT_EQ(a.fo.inject_stale_reads, b.fo.inject_stale_reads) << context;
  EXPECT_EQ(a.fo.inject_lost_abort, b.fo.inject_lost_abort) << context;
  EXPECT_EQ(a.fo.inject_stale_cache, b.fo.inject_stale_cache) << context;
  EXPECT_EQ(a.expect_fail, b.expect_fail) << context;
  ASSERT_EQ(a.fo.plan_override.has_value(), b.fo.plan_override.has_value())
      << context;
  if (a.fo.plan_override) {
    EXPECT_EQ(a.fo.plan_override->to_text(), b.fo.plan_override->to_text())
        << context;
  }
}

TEST(CorpusReader, RejectsTyposAndMalformedValues) {
  const std::string good =
      "app shard\nseed 9\nduration 25\ninject stale-cache\nexpect fail\n"
      "plan:\nnic-crash 0 at 4000000000ns for 1500000000ns\n";
  const auto c = verify::parse_corpus(good);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->fo.app, verify::FuzzApp::kShard);
  EXPECT_TRUE(c->fo.inject_stale_cache);
  EXPECT_TRUE(c->expect_fail);
  ASSERT_TRUE(c->fo.plan_override.has_value());
  EXPECT_EQ(c->fo.plan_override->size(), 1u);

  // Each edit of `good` and the keyword its error must name.  The reader
  // used to map the first three to rkv / no injection / pass and leave
  // unparsable numbers at their defaults.
  const std::pair<std::pair<std::string, std::string>, std::string> cases[] = {
      {{"app shard", "app shrad"}, "app"},
      {{"inject stale-cache", "inject stale-cash"}, "inject"},
      {{"expect fail", "expect fial"}, "expect"},
      {{"seed 9", "seed 9x"}, "seed"},
      {{"seed 9", "seed -9"}, "seed"},
      {{"seed 9", "seed nan"}, "seed"},
      {{"seed 9", "seed 99999999999999999999"}, "seed"},
      {{"seed 9", "seed"}, "seed"},
      {{"duration 25", "duration 0"}, "duration"},
      {{"duration 25", "duration -25"}, "duration"},
      {{"duration 25", "duration 25.5"}, "duration"},
      {{"duration 25", "duration inf"}, "duration"},
      {{"duration 25", "duration 2e1"}, "duration"},
      {{"duration 25", "duration 25 30"}, "duration"},
      {{"duration 25", "durration 25"}, "durration"},
      {{"app shard", "app shard\napp rkv"}, "app"},
      {{"expect fail\n", ""}, "expect"},
      {{"plan:", "plan: now"}, "plan:"},
      {{"at 4000000000ns", "at 4000000000"}, "plan:"},
  };
  for (const auto& [edit, keyword] : cases) {
    std::string text = good;
    text.replace(text.find(edit.first), edit.first.size(), edit.second);
    std::string error;
    EXPECT_FALSE(verify::parse_corpus(text, &error).has_value()) << text;
    EXPECT_NE(error.find(keyword), std::string::npos) << text << " -> " << error;
  }
}

TEST(CorpusReader, MutatedCorporaNeverCrashAndRoundTrip) {
  std::vector<std::string> seeds = corpus_texts();
  ASSERT_GE(seeds.size(), 10u) << IPIPE_CORPUS_DIR;
  for (const std::string& text : seeds) {
    std::string error;
    const auto c = verify::parse_corpus(text, &error);
    ASSERT_TRUE(c.has_value()) << text << " -> " << error;
    const auto again = verify::parse_corpus(verify::corpus_to_text(*c));
    ASSERT_TRUE(again.has_value()) << verify::corpus_to_text(*c);
    ExpectSameCase(*c, *again, text);
  }

  Rng rng(21);
  std::size_t parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text = fuzztest::mutate(seeds[i % seeds.size()], rng);
    std::string error;
    const auto c = verify::parse_corpus(text, &error);
    if (!c) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++parsed;
    const std::string printed = verify::corpus_to_text(*c);
    const auto again = verify::parse_corpus(printed, &error);
    ASSERT_TRUE(again.has_value()) << text << " -> " << printed << " -> " << error;
    ExpectSameCase(*c, *again, text + " -> " + printed);
    EXPECT_EQ(verify::corpus_to_text(*again), printed) << text;
  }
  // The mix must exercise both outcomes, not just the error path.
  EXPECT_GT(parsed, 400u);
  EXPECT_LT(parsed, 3600u);
}

}  // namespace
}  // namespace ipipe
