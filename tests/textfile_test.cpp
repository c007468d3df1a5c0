//===- tests/textfile_test.cpp - Persisted-file layer tests ---------------===//
//
// Covers src/support/TextFile (whole-file read, rename-atomic write,
// token helpers), src/support/Parallel, and the reject accounting of the
// strict dataset/model/target parsers: every rejected input is counted
// exactly once.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"
#include "support/TextFile.h"

#include "model/Dataset.h"
#include "model/Features.h"
#include "model/GbStumps.h"
#include "obs/Metrics.h"
#include "target/Target.h"

#include <atomic>
#include <filesystem>
#include <functional>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "gtest/gtest.h"

using namespace pinj;

namespace fs = std::filesystem;

namespace {

fs::path freshDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

/// Number of `*.tmp.*` files directly inside \p Dir.
std::size_t tempFilesIn(const fs::path &Dir) {
  std::size_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.path().filename().string().find(".tmp.") != std::string::npos)
      ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// readFile / writeFileAtomic
//===----------------------------------------------------------------------===//

TEST(TextFile, WriteReplacesContent) {
  fs::path Dir = freshDir("textfile_replace");
  std::string Path = (Dir / "f.txt").string();
  std::string Err;
  ASSERT_TRUE(writeFileAtomic(Path, "old contents\n", &Err)) << Err;
  // Binary-safe: embedded NUL and no trailing newline survive.
  std::string New("new\0bytes", 9);
  ASSERT_TRUE(writeFileAtomic(Path, New, &Err)) << Err;
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back));
  EXPECT_EQ(Back, New);
  EXPECT_EQ(tempFilesIn(Dir), 0u);
}

TEST(TextFile, ReadMissingAndEmpty) {
  fs::path Dir = freshDir("textfile_read");
  std::string Out = "untouched";
  EXPECT_FALSE(readFile((Dir / "absent").string(), Out));
  EXPECT_EQ(Out, "untouched");
  ASSERT_TRUE(writeFileAtomic((Dir / "empty").string(), "", nullptr));
  EXPECT_TRUE(readFile((Dir / "empty").string(), Out));
  EXPECT_EQ(Out, "");
}

TEST(TextFile, MissingParentDirectoryFailsToOpen) {
  fs::path Dir = freshDir("textfile_noparent");
  std::string Path = (Dir / "missing" / "f.txt").string();
  std::string Err;
  EXPECT_FALSE(writeFileAtomic(Path, "x", &Err));
  EXPECT_EQ(Err.rfind("cannot open " + Path + ".tmp.", 0), 0u) << Err;
  EXPECT_NE(Err.find(" for writing"), std::string::npos) << Err;
  EXPECT_FALSE(fs::exists(Dir / "missing"));
  EXPECT_EQ(tempFilesIn(Dir), 0u);
}

TEST(TextFile, DirectoryDestinationFailsToRename) {
  fs::path Dir = freshDir("textfile_isdir");
  fs::path Dest = Dir / "dest";
  fs::create_directories(Dest);
  std::string Err;
  EXPECT_FALSE(writeFileAtomic(Dest.string(), "x", &Err));
  EXPECT_EQ(Err.rfind("rename to " + Dest.string() + " failed: ", 0), 0u)
      << Err;
  // The message carries the rename's own error, not the cleanup's.
  EXPECT_EQ(Err.find("Success"), std::string::npos) << Err;
  EXPECT_TRUE(fs::is_directory(Dest));
  EXPECT_EQ(tempFilesIn(Dir), 0u);
}

TEST(TextFile, ConcurrentWritersLeaveOneCompletePayload) {
  fs::path Dir = freshDir("textfile_race");
  std::string Path = (Dir / "f.txt").string();
  constexpr unsigned Writers = 8;
  std::vector<std::string> Payloads;
  for (unsigned W = 0; W != Writers; ++W)
    Payloads.push_back(std::string(64 * 1024 + W, char('a' + W)));

  for (unsigned Round = 0; Round != 8; ++Round) {
    std::atomic<unsigned> Failures{0};
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W != Writers; ++W)
      Pool.emplace_back([&, W] {
        for (unsigned I = 0; I != 4; ++I)
          if (!writeFileAtomic(Path, Payloads[W], nullptr))
            ++Failures;
      });
    for (std::thread &T : Pool)
      T.join();
    EXPECT_EQ(Failures.load(), 0u);
    std::string Back;
    ASSERT_TRUE(readFile(Path, Back));
    unsigned Matches = 0;
    for (const std::string &P : Payloads)
      Matches += Back == P;
    EXPECT_EQ(Matches, 1u) << "torn file of " << Back.size() << " bytes";
    EXPECT_EQ(tempFilesIn(Dir), 0u);
  }
}

TEST(TextFile, ForkedWritersDoNotShareTempFile) {
  // A forked child's main thread has the parent's thread id, the same
  // collision two unrelated processes hit when ASLR is off.
  fs::path Dir = freshDir("textfile_fork");
  std::string Path = (Dir / "f.txt").string();
  const std::string Mine(256 * 1024, 'p'), Theirs(256 * 1024 + 1, 'c');
  // Counts failed writes and reads that see neither payload.
  auto Hammer = [&](const std::string &Payload) {
    unsigned Bad = 0;
    std::string Back;
    for (unsigned I = 0; I != 200; ++I) {
      if (!writeFileAtomic(Path, Payload, nullptr))
        ++Bad;
      else if (!readFile(Path, Back) || (Back != Mine && Back != Theirs))
        ++Bad;
    }
    return Bad;
  };
  pid_t Child = ::fork();
  ASSERT_NE(Child, -1);
  if (Child == 0)
    ::_exit(Hammer(Theirs) == 0 ? 0 : 1);
  unsigned Bad = Hammer(Mine);
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  EXPECT_EQ(Bad, 0u);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_EQ(tempFilesIn(Dir), 0u);
}

//===----------------------------------------------------------------------===//
// Token helpers
//===----------------------------------------------------------------------===//

TEST(TextFile, ParseFiniteDouble) {
  double V = 0;
  EXPECT_TRUE(parseFiniteDouble("1.5", V));
  EXPECT_EQ(V, 1.5);
  EXPECT_TRUE(parseFiniteDouble("-2e-3", V));
  EXPECT_EQ(V, -2e-3);
  EXPECT_FALSE(parseFiniteDouble("1e999", V)); // Overflows to inf.
  EXPECT_FALSE(parseFiniteDouble("nan", V));
  EXPECT_FALSE(parseFiniteDouble("inf", V));
  EXPECT_FALSE(parseFiniteDouble("1.5x", V)); // Trailing junk.
  EXPECT_FALSE(parseFiniteDouble("", V));
}

TEST(TextFile, IsLowerHex32) {
  EXPECT_TRUE(isLowerHex32("0123456789abcdef0123456789abcdef"));
  EXPECT_FALSE(isLowerHex32("0123456789ABCDEF0123456789abcdef"));
  EXPECT_FALSE(isLowerHex32("0123456789abcdef0123456789abcde"));
  EXPECT_FALSE(isLowerHex32("0123456789abcdef0123456789abcdeg"));
  EXPECT_FALSE(isLowerHex32(""));
}

TEST(TextFile, SanitizeToken) {
  EXPECT_EQ(sanitizeToken(""), "_");
  EXPECT_EQ(sanitizeToken("a b\tc\nd"), "a_b_c_d");
  EXPECT_EQ(sanitizeToken("plain"), "plain");
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(Parallel, EveryIndexExactlyOnce) {
  for (unsigned Workers : {0u, 1u, 3u, 8u, 64u}) {
    std::vector<int> Hits(37, 0);
    parallelFor(Hits.size(), Workers, [&](std::size_t I) { ++Hits[I]; });
    for (std::size_t I = 0; I != Hits.size(); ++I)
      EXPECT_EQ(Hits[I], 1) << "index " << I << ", workers " << Workers;
  }
  parallelFor(0, 8, [](std::size_t) { ADD_FAILURE() << "called for N=0"; });
}

TEST(Parallel, OneWorkerRunsInlineInOrder) {
  std::vector<std::size_t> Order;
  std::thread::id Caller = std::this_thread::get_id();
  parallelFor(5, 1, [&](std::size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  EXPECT_EQ(Order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

//===----------------------------------------------------------------------===//
// Strict parsers: one reject per rejected input
//===----------------------------------------------------------------------===//

namespace {

/// Damaged variants of \p Text: every proper line-boundary prefix (each
/// must be rejected) and one flipped byte per line (either outcome).
struct Damage {
  std::vector<std::string> Truncated;
  std::vector<std::string> Flipped;
};

Damage damage(const std::string &Text) {
  Damage D;
  std::size_t Start = 0;
  while (Start < Text.size()) {
    std::size_t Nl = Text.find('\n', Start);
    std::size_t End = Nl == std::string::npos ? Text.size() : Nl + 1;
    if (End < Text.size())
      D.Truncated.push_back(Text.substr(0, End));
    std::string F = Text;
    F[Start + (End - Start) / 2] ^= 0x01;
    D.Flipped.push_back(F);
    Start = End;
  }
  return D;
}

/// Feeds every damaged variant of \p Text to \p Parse (true = accepted,
/// \p Err set on rejection) and checks that \p CounterName moved by
/// exactly the number of rejections.
void checkRejectsCountedOnce(
    const std::string &Text, const std::string &CounterName,
    const std::function<bool(const std::string &, std::string &)> &Parse) {
  std::string Err;
  ASSERT_TRUE(Parse(Text, Err)) << Err;
  Damage D = damage(Text);
  ASSERT_GT(D.Truncated.size(), 3u);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::uint64_t Rejected = 0;
  for (const std::string &T : D.Truncated) {
    Err.clear();
    EXPECT_FALSE(Parse(T, Err)) << "accepted a truncation:\n" << T;
    EXPECT_FALSE(Err.empty());
    ++Rejected;
  }
  for (const std::string &F : D.Flipped) {
    Err.clear();
    if (!Parse(F, Err)) {
      EXPECT_FALSE(Err.empty());
      ++Rejected;
    }
  }
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(Delta.counter(CounterName), Rejected);
}

} // namespace

TEST(RejectAccounting, DatasetCountsEachRejectOnce) {
  model::Dataset D;
  D.SchemaHash = model::featureSchemaHash();
  D.SpaceSignature = "0123456789abcdef0123456789abcdef";
  D.TargetId = "gpu-analytic-0123456789abcdef";
  for (unsigned I = 0; I != 3; ++I) {
    model::Sample S;
    S.X.assign(model::featureCount(), 0.25 * (I + 1));
    S.TimeUs = 10.5 + I;
    S.Kernel = "k" + std::to_string(I);
    S.Encoding = "enc" + std::to_string(I);
    D.Samples.push_back(S);
  }
  checkRejectsCountedOnce(
      model::serializeDataset(D), "model.dataset_rejects",
      [](const std::string &T, std::string &Err) {
        model::Dataset Out;
        return model::parseDataset(T, Out, &Err);
      });
}

TEST(RejectAccounting, ModelCountsEachRejectOnce) {
  model::GbStumpsModel M;
  M.SchemaHash = model::featureSchemaHash();
  M.Base = 3.25;
  M.Config.Rounds = 3;
  M.Config.SubsampleNum = 1;
  M.Config.SubsampleDen = 2;
  for (unsigned I = 0; I != 3; ++I)
    M.Stumps.push_back({I, 0.5 * I, -0.125, 0.375});
  checkRejectsCountedOnce(
      model::serializeModel(M), "model.rejects",
      [](const std::string &T, std::string &Err) {
        model::GbStumpsModel Out;
        return model::parseModel(T, Out, &Err);
      });
}

TEST(RejectAccounting, TargetCountsEachRejectOnce) {
  for (const char *Name : {"cpu-simd", "v100"}) {
    std::shared_ptr<target::TargetModel> T = target::makeBuiltinTarget(Name);
    ASSERT_TRUE(T) << Name;
    checkRejectsCountedOnce(
        target::serializeTarget(*T), "target.rejects",
        [](const std::string &Text, std::string &Err) {
          return target::parseTarget(Text, &Err) != nullptr;
        });
  }
}
